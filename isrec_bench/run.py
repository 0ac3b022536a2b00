"""ISRec benchmark: one command per workload, end to end or per layer.

Run from the repository root::

    python3 isrec_bench/run.py --workload pipeline-sparse --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` runs the untraced path and reports the end-to-end metrics.
``--trace 1`` reports the per-layer metrics: it times each layer's public
calls, runs the fit untraced and traced, and writes the traced run's spans
to ``.bench_out/spans-<workload>-<seed>.jsonl``.  Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
environment block, the untraced run's raw samples or the traced run's
test metrics, and any failed output check.  The workloads, metrics and
bounds are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: forked serving workers inherit
# the setting, and on two cores a multithreaded BLAS in the trainer, the
# cluster's parent and both workers would fight over the same cores.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro  # the program under test, from ./src
    except ImportError as error:
        print(f"cannot import the repro package from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from isrec_bench import paths
    from isrec_bench.measure import environment
    from isrec_bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(),
                      "workload": workload.name, "why": workload.why}))
    sys.stdout.flush()
    if args.trace:
        result = paths.traced(workload, args.seed, args.seconds, ROOT)
    else:
        result = paths.untraced(workload, args.seed, args.seconds, ROOT)
    details = result.pop("details")
    if details:
        print(json.dumps(details))
    for failure in result.pop("failures"):
        print(f"check failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
