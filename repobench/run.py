"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 repobench/run.py
        --workload {train,serve,serve_catalog,serve_workers}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the program runs as shipped and the last line of
standard output is the end-to-end result::

    {"correct": true, "attempted": ..., "failed": 0,
     "metrics": {"setup_s": {"value": ..., "unit": "s"}, ...}}

With ``--trace 1`` every layer is wrapped in spans and the metrics are the
per-layer ones.  The line before the result records the host, the
request counts and the workload's own figures.  Fixtures are built on the
first run in a checkout (see ``fixtures.py``).  The exit code is 0 when a
result was printed, also when a check failed (``"correct": false``).
"""

from __future__ import annotations

import argparse
import signal
import sys

from common import (CACHE, SRC, BenchError, cpu_times, emit, fresh_dir,
                    host_record, log, require_program, steal_share)

WORKLOADS = ("train", "serve", "serve_catalog", "serve_workers")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "primary_p50_ms": "ms", "secondary_p50_ms": "ms"}


def _terminate(signum, frame):
    # Unwind through every ``finally`` so servers and jobs are torn down.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        require_program()
        sys.path.insert(0, str(SRC))
        import serve_bench
        import train_bench
        from layers import complete
        run_dir = fresh_dir(CACHE / "runs" / args.workload)
        before = cpu_times()
        if args.workload == "train":
            bench = train_bench.run_traced if args.trace else train_bench.run
            result = bench(args.seed, args.seconds, run_dir)
        else:
            bench = serve_bench.run_traced if args.trace else serve_bench.run
            result = bench(args.workload, args.seed, args.seconds, run_dir)
        host = host_record()
        host["steal_share"] = steal_share(before, cpu_times())
    except BenchError as exc:
        log(f"benchmark error: {exc}")
        return 2
    problems = list(result["problems"])
    if result["failed"]:
        problems.append(f"{result['failed']} requests failed")
    emit({"workload": args.workload, "seed": args.seed,
          "seconds": args.seconds, "trace": args.trace, "host": host,
          "problems": problems, "detail": result["detail"]})
    if args.trace:
        metrics = complete(result["metrics"])
    else:
        metrics = {name: {"value": float(result["metrics"][name]),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    emit({"correct": not problems, "attempted": int(result["attempted"]),
          "failed": int(result["failed"]), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
