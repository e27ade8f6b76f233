"""Steadiness check: run the benchmark several times per workload, each with
another seed, and report each end-to-end metric's median, quartiles and
spread (quartile distance as a share of the median) against its bound.

    python3 perfbench/steadiness.py --runs 10 [--first-seed N]
        [--workload NAME ...] [--out FILE]

Reads the command, run length, workloads and bounds from BENCHMARK.json at
the repository root.  Also reports the spread of the unscaled wall time
(see ``refclock.py``), for comparison only.  Exits 1 if any run fails or
any spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:"
                           f"\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    raw = re.search(r"raw wall_s = (\S+) s", done.stdout)
    return result, float(raw.group(1)), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = ["| workload | metric | median | q1 | q3 | spread | bound | "
             "values |", "|---|---|---|---|---|---|---|---|"]
    steady = True
    for workload in names:
        values = {name: [] for name in bounds}
        raw = []
        durations = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, raw_wall, elapsed = run_once(spec, workload, seed)
            durations.append(elapsed)
            raw.append(raw_wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, " + ", ".join(
                f"{n} {values[n][-1]:.4g}" for n in bounds)
                + f", raw wall_s {raw_wall:.4g}", flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s" and spread > bounds[name]:
                steady = False
            lines.append(
                f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                f"{spread:.3f} | {bounds[name]} | "
                + " ".join(f"{v:.4g}" for v in vals) + " |")
        q1, med, q3 = statistics.quantiles(raw, n=4)
        lines.append(f"| {workload} | raw wall_s (unscaled, no bound) | "
                     f"{med:.4g} | {q1:.4g} | {q3:.4g} | "
                     f"{(q3 - q1) / med:.3f} | | "
                     + " ".join(f"{v:.4g}" for v in raw) + " |")
        lines.append(f"| {workload} | run duration s | "
                     f"{statistics.median(durations):.1f} | | | | | "
                     f"max {max(durations):.1f} |")
    table = "\n".join(lines)
    print(table)
    if args.out:
        args.out.write_text(table + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
