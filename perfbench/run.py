"""The serving benchmark's command line: run workloads, print their metrics.

Run from the repository root::

    python3 perfbench/run.py --workload batch_eval --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``); without ``--workload`` every workload
runs in turn.  Each workload's report goes to standard output and ends with
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every output check passed, 1 when one failed, and
2 when the serving code is not next to this directory.
"""

import os

# One BLAS thread in this process and every process it forks: the machine
# this benchmark targets has two cores, and a BLAS pool per process would
# measure the scheduler instead of the program.  Set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no serving code at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="Run the serving benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
