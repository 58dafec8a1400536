"""MISSL benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``serve_online``, ``serve_mixed``, ``batch_score`` and ``train``.  With
``--trace 0`` the last line of standard output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Earlier lines record the host and the details behind
each metric (sample counts, tail percentiles, per-phase op accounting).

A failed correctness check, a server that does not start or stop cleanly,
or a checkout without the program ends the run with one ``FAILED: reason``
line and exit code 1, and no result line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, host_record, import_program  # noqa: E402

WORKLOADS = ("serve_online", "serve_mixed", "batch_score", "train")
END_TO_END = {"setup_s": "s", "p50_ms": "ms", "throughput": "1/s",
              "rss_mb": "MB"}


def _run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload in ("serve_online", "serve_mixed"):
        import serving
        return serving.run(workload, seed, seconds, trace)
    import offline
    if workload == "batch_score":
        return offline.run_batch_score(seed, seconds, trace)
    return offline.run_train(seed, seconds, trace)


def _terminate(signum, _frame):
    raise SystemExit(f"interrupted by signal {signum}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.perf_counter()
    try:
        import_program()
        print(json.dumps({"host": host_record()}), flush=True)
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"FAILED: {str(error).splitlines()[0]}", flush=True)
        return 1
    if args.trace:
        from layers import PER_LAYER, unit_of
        metrics = {name: {"value": float(result["metrics"][name]),
                          "unit": unit_of(name)} for name in PER_LAYER}
    else:
        metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "wall_s": time.perf_counter() - started,
                      **result.get("info", {})}), flush=True)
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
