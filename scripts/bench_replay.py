#!/usr/bin/env python3
"""Replay-throughput benchmark CLI (see ``repro.benchmarks`` for the harness).

Times the trace-replay hot path on pinned scenarios, writes a
schema-validated JSON document, and optionally gates against a committed
baseline:

    python scripts/bench_replay.py --out BENCH_replay.json
    python scripts/bench_replay.py --quick \
        --baseline BENCH_replay.json --threshold 0.2

Exit status: 0 on success; 1 when the comparison found a throughput
regression beyond the threshold *or* a result-digest mismatch (pinned
inputs must produce byte-identical simulation results); 2 on bad usage.
``docs/performance.md`` documents the schema and the regression-gate
policy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchmarks import (  # noqa: E402  (path setup must precede import)
    DEFAULT_REGRESSION_THRESHOLD,
    SCALE_SCENARIOS,
    BenchmarkError,
    compare_bench,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.engine import ENGINES  # noqa: E402
from repro.io import load_json  # noqa: E402


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short scenarios / fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override repeat count (default: 3, quick: 2)")
    parser.add_argument("--engines", nargs="+", default=["object"],
                        choices=ENGINES, metavar="ENGINE",
                        help="replay engines to time, each scenario once "
                             "per engine (default: object only; the "
                             "committed baseline records both)")
    parser.add_argument("--scale", action="store_true",
                        help="time the million-access SCALE_SCENARIOS "
                             "instead of the default pinned set")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the bench document to FILE")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="compare against a baseline bench document")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_REGRESSION_THRESHOLD,
                        help="regression threshold as a fraction "
                             "(default 0.2 = fail below 80%% of baseline)")
    parser.add_argument("--experiments", nargs="*", default=None,
                        metavar="NAME",
                        help="also wall-time these experiments "
                             "(serial, no cache; slow)")
    parser.add_argument("--experiments-trace-length", type=int, default=15000)
    args = parser.parse_args(argv)

    try:
        document = run_bench(
            quick=args.quick,
            repeats=args.repeats,
            scenarios=SCALE_SCENARIOS if args.scale else None,
            experiments=args.experiments,
            engines=args.engines,
        )
        validate_bench(document)
    except BenchmarkError as error:
        print(f"bench error: {error}", file=sys.stderr)
        return 2

    for record in document["scenarios"]:
        print(
            f"{record['workload']}/{record['config']} "
            f"len={record['trace_length']} seed={record['seed']} "
            f"engine={record.get('engine', 'object')}: "
            f"{record['requests_per_s']:.0f} req/s "
            f"(best {record['best_wall_s']:.3f}s over {record['repeats']} runs) "
            f"digest={record['result_sha256'][:12]}"
        )
    for record in document.get("experiments", []):
        print(f"experiment {record['experiment']}: {record['wall_s']:.1f}s "
              f"(trace length {record['trace_length']})")

    if args.out:
        write_bench(document, args.out)
        print(f"wrote {args.out}")

    if args.baseline:
        try:
            baseline = load_json(args.baseline)
            report = compare_bench(document, baseline, threshold=args.threshold)
        except BenchmarkError as error:
            print(f"comparison error: {error}", file=sys.stderr)
            return 2
        for key, entry in sorted(report["matched"].items()):
            flag = "ok" if entry["ratio"] >= 1.0 - args.threshold else "REGRESSED"
            digest = "" if entry["digest_match"] else "  RESULTS CHANGED"
            print(f"vs baseline {key}: {entry['ratio']:.2f}x ({flag}){digest}")
        if not report["matched"]:
            print("comparison error: no scenarios matched the baseline",
                  file=sys.stderr)
            return 2
        if not report["ok"]:
            print(
                "FAIL: " + json.dumps(
                    {k: report[k] for k in ("regressed", "results_changed")}
                ),
                file=sys.stderr,
            )
            return 1
        print("comparison ok: no regression, results byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
