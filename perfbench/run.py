"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the repository root::

    python3 perfbench/run.py --workload deliver-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``perfbench/out/``).
The line before the result is the run's metadata, prefixed
``perfbench-meta``.  The exit code is 0 only when every answer matched the
single-pool reference and no shard worker process leaked.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(HERE, "out"), help="directory for spans and metadata"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One BLAS thread per process unless the caller chose otherwise: on a
    # 2-core host, OpenBLAS's own threads in this process and in every shard
    # worker oversubscribe the cores and make latencies wander run to run.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from perfbench.system import BenchRun
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    try:
        run = BenchRun(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    except ValueError as error:
        parser.error(str(error))
    outcome = run.run()

    os.makedirs(args.out, exist_ok=True)
    meta_path = os.path.join(args.out, f"meta-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(meta_path, "w") as fh:
        json.dump(outcome.meta, fh, indent=2, default=str)
    print("perfbench-meta " + json.dumps(outcome.meta, default=str))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
