"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer split.  Output: one line per metric (value, unit, sample
count), one ``{"record": ...}`` JSON line with provenance and sample
counts (also written to ``perfbench/results/``), and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when an
output check fails and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import sys
import time

# Single-threaded BLAS, set before numpy loads: on a small host the load
# generator process needs a core, and OpenBLAS worker threads spinning
# on it make compute-bound runs bimodal.  Override from the environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "perfbench" / "results"
WORKLOAD_NAMES = ("sparse", "saturated", "frames")


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A terminated run unwinds like an exception, so every ``closing``
    # block stops and waits for what it started (the load generator).
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from perfbench import workloads
        from perfbench.fixture import load_fixture
        from perfbench.harness import provenance
    except ImportError as error:
        print(f"perfbench: repository sources not importable: {error}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    fixture = load_fixture()
    fixture_s = time.perf_counter() - started
    outcome = workloads.run_workload(
        args.workload, fixture, args.seed, args.seconds, bool(args.trace)
    )
    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    metrics = {}
    for name, unit in units.items():
        value, samples = outcome.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40s} {value:>14.4f} {unit:9s} n={samples}")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed, fixture.digest),
        "fixture_s": fixture_s,
        "wall_s": time.perf_counter() - started,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit, "samples": outcome.metrics[name][1]}
            for name, unit in units.items()
        },
        "failed_frac": outcome.failed / max(outcome.attempted, 1),
        "mismatches": len(outcome.mismatches),
        "details": outcome.details,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record}))

    for mismatch in outcome.mismatches[:20]:
        print(f"output check failed: {mismatch}", file=sys.stderr)
    correct = not outcome.mismatches
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
