"""Tracking benchmark for nslp: serial and farm iteration time, set-up time
and memory per workload, or (with ``--trace 1``) the per-layer split.

Run from the repository root:

    python3 bench/run_bench.py --workload steady-n200 --seed 1 --seconds 55 --trace 0

It imports nslp from ``src/`` next to this directory, measures for about
``--seconds`` seconds, checks the outputs, prints one line of machine facts
and then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS thread, as the nslp command line and the worker pool use; set
# before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def result_line(run, metrics: dict | None, units: dict) -> str:
    """The result object; ``metrics`` None prints every value as null."""
    return json.dumps({
        "correct": metrics is not None and run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": None if metrics is None else metrics[name],
                           "unit": units[name][0]} for name in units},
    })


def stop_children() -> None:
    """Stop and wait for every process this run started. The farm's pool
    joins its workers itself; multiprocessing's resource tracker, started
    with the first spawned worker, would otherwise outlive this process
    until it noticed the exit."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    # a terminated run unwinds too, so the pool and the tracker still stop
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; at least one serial and one farm pass run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "nslp" / "__init__.py").is_file():
        print(f"error: nslp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    run = harness.measure(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({"machine": harness.machine_facts()}))
    if not run.farm or not run.serial or (args.trace and not (run.traced and run.farm1)):
        print("error: a pass failed before any measurement completed", file=sys.stderr)
        print(result_line(run, None, units))
        return 1
    metrics = harness.per_layer(run) if args.trace else harness.end_to_end(run)
    print(result_line(run, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
