"""parcodec benchmark: one workload per process, metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stream --seed 7 --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics instead.  The last
line of standard output is the result; progress and gate notes go to
standard error.  See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import ORACLES, SRC, WORKLOADS


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    missing = [str(p) for p in (SRC / "parcodec" / "__init__.py", ORACLES) if not p.is_file()]
    if missing:
        log(f"error: not a parcodec checkout, missing {', '.join(missing)}")
        return 2
    sys.path.insert(0, str(SRC))

    import measure

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            import tracing

            metrics, tally = tracing.run_traced(workload, args.seed, log)
        else:
            metrics, tally = measure.run_untraced(workload, args.seed, args.seconds, log)
    finally:
        measure.clean_work_dir()
    for note in tally.notes:
        log(f"FAILED: {note}")
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    log(f"fail_ratio {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
