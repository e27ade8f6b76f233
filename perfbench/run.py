"""cobarlab benchmark: time to verdict per workload, and per-layer costs.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src``.  With
``--trace 0`` the run reports the end-to-end metrics: set-up time in fresh
processes, then wall and CPU seconds per full pass of the workload (one
warm-up pass discarded), and peak resident memory.  With ``--trace 1`` it
runs one untraced and one traced pass and reports per-layer self times and
call counts, plus micro-costs on recorded inputs.  Every run compares each
verdict and homology answer with its expected value and runs the four
negative controls; any mismatch makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat each metric by name and unit, with its sample count.  It is a closed
loop with one caller: one process, no threads, each check starting when the
previous one returns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


# ----- environment -------------------------------------------------------------------


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": git_commit(),
            "execution": "one process, no threads, shared machine"}


# ----- measurement -------------------------------------------------------------------


def setup_samples(workload: str, count: int):
    """Seconds from starting a fresh interpreter to its workload being
    ready for the first check, once per probe, at the reference speed
    measured right before and right after each probe."""
    samples = []
    for _ in range(count):
        chunks = refclock.burst(refclock.SETUP_BURST)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("set-up probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        chunks += refclock.burst(refclock.SETUP_BURST)
        samples.append(refclock.scale(ready - start, 0.0, chunks,
                                      inside=False)[0])
    return samples


def run_passes(wl, lib, ctx, rng, seconds: float):
    """Timed passes until the next would end past ``seconds`` (at least one).

    Returns (wall seconds, CPU seconds, outcomes, raw wall seconds,
    reference chunk seconds): the first two per pass at the reference speed
    measured during that pass, the last two as read.
    """
    walls, cpus, outcomes, raw, chunks = [], [], [], [], []
    start = time.perf_counter()
    while True:
        with refclock.Interleaved() as ref:
            w0, c0 = time.perf_counter(), time.process_time()
            got, _ = wl.run_pass(lib, ctx, rng)
            wall = time.perf_counter() - w0
            cpu = time.process_time() - c0
        scaled_wall, scaled_cpu = ref.scale(wall, cpu)
        walls.append(scaled_wall)
        cpus.append(scaled_cpu)
        outcomes += got
        raw.append(wall)
        chunks += [w for w, _ in ref.chunks]
        if time.perf_counter() - start + wall > seconds:
            return walls, cpus, outcomes, raw, chunks


def summary(samples):
    """Median, quartiles (when there are two samples or more) and count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def timed_run(wl, lib, rng, seconds):
    ctx = wl.setup(lib)
    outcomes = workloads.negative_controls(lib)
    warm, _ = wl.run_pass(lib, ctx, rng)  # timing discarded
    outcomes += warm
    # read before the reference clock makes its buffer
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = setup_samples(wl.name, SETUP_PROBES)
    walls, cpus, got, raw, chunks = run_passes(wl, lib, ctx, rng, seconds)
    outcomes += got
    metrics = {
        "setup_s": (summary(setup), "s"),
        "wall_s": (summary(walls), "s"),
        "cpu_s": (summary(cpus), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    unscaled = {"raw wall_s": (summary(raw), "s"),
                "reference chunk": (summary([c * 1e6 for c in chunks]), "us")}
    return outcomes, metrics, unscaled


# calls counted for per-layer metrics: metric name -> (layer, qualname)
COUNTED = {
    "cubes.CubeMorphism_new.calls": ("cubes", "CubeMorphism.__init__"),
    "simpcube.PartitionSimplex_new.calls": ("simpcube",
                                            "PartitionSimplex.__init__"),
    "cobar.face.calls": ("cobar", "CobarSet.face"),
    "simplicial.Simplex_dim.calls": ("simplicial", "Simplex.dim"),
    "snf.calls": ("snf", "smith_normal_form"),
    "chains.homology.calls": ("chains", "ChainComplex.homology"),
    "szczarba.sz.calls": ("szczarba", "SzProvider.sz"),
}


def traced_run(wl, lib, rng):
    ctx = wl.setup(lib)
    outcomes = workloads.negative_controls(lib)
    start = time.perf_counter()
    got, suite_s = wl.run_pass(lib, ctx, rng)
    untraced = time.perf_counter() - start
    outcomes += got
    layers = tracer.LayerTracer("cobarlab", workloads.LAYERS)
    layers.install()
    try:
        start = time.perf_counter()
        got, _ = wl.run_pass(lib, ctx, rng)
        traced = time.perf_counter() - start
    finally:
        layers.uninstall()
    outcomes += got

    metrics = {f"{layer}.self_s": (layers.self_s[layer], "s")
               for layer in workloads.LAYERS}
    for name, (layer, qualname) in COUNTED.items():
        metrics[name] = (layers.calls(layer, qualname), "count")
    metrics["snf.entries"] = (layers.snf_entries, "count")
    homologies = metrics["chains.homology.calls"][0]
    metrics["snf.calls_per_homology"] = (
        metrics["snf.calls"][0] / homologies if homologies else 0.0, "ratio")
    for suite in workloads.SUITES:
        metrics[f"verify.{suite}_s"] = (suite_s.get(suite, 0.0), "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics.update(micro.measure(lib, rng))
    total = sum(layers.self_s[layer] for layer in workloads.LAYERS)
    shares = {layer: layers.self_s[layer] / total for layer in workloads.LAYERS}
    return outcomes, metrics, shares


# ----- output --------------------------------------------------------------------------


def report_line(name, value, unit):
    if isinstance(value, dict):
        text = f"{name} = {value['median']:.6g} {unit} (median of {value['n']}"
        if "q1" in value:
            text += f"; q1 {value['q1']:.6g}, q3 {value['q3']:.6g}"
        return text + ")"
    if isinstance(value, int):
        return f"{name} = {value} {unit}"
    return f"{name} = {value:.6g} {unit}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = workloads.load_library(ROOT)
    except workloads.LibraryMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    print(f"environment: {json.dumps(environment())}")
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")

    if args.trace:
        outcomes, metrics, shares = traced_run(wl, lib, rng)
        print("layer self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        outcomes, metrics, unscaled = timed_run(wl, lib, rng, args.seconds)
        print(f"times at the speed where a reference chunk takes "
              f"{refclock.NOMINAL_CHUNK_S * 1e6:g} us; as read:")
        for name, (value, unit) in unscaled.items():
            print("  " + report_line(name, value, unit))

    failed = [o for o in outcomes if not o.ok]
    for o in failed[:20]:
        print(f"MISMATCH {o.check}: got {o.got!r}, want {o.want!r}",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(report_line(name, value, unit))
    print(report_line("checks_total", len(outcomes), "count"))
    print(report_line("checks_failed", len(failed), "count"))

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value["median"] if isinstance(value, dict)
                           else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
