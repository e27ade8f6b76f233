"""Set-up probe, run in a fresh interpreter: import the library, build the
objects a workload needs before its first check, then print ``ready``.

``run.py`` times each probe from process start to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main(name: str) -> int:
    try:
        lib = workloads.load_library(HERE.parent)
    except workloads.LibraryMissing as exc:
        print(f"probe: {exc}", file=sys.stderr)
        return 2
    workloads.WORKLOADS[name].setup(lib)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
