#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

``--workload`` is ``replay`` or ``service`` (see the module of the same
name for what each exercises and why).  ``--trace 0`` measures, with
tracing off, the end-to-end metrics every workload reports:
``setup_s``, ``peak_rss_mb`` and ``op_s``, the median seconds of the
workload's operation (a cold 100k-access replay, a closed-loop cycle of
service requests).  ``--trace 1`` runs the traced parts of the
``replay``, ``battery`` and ``service`` modules (see :func:`run_traced`)
and reports the per-layer metrics, tracing overheads and self time per
layer.  Every run checks the program's outputs (result digests against
``perfbench/digests.json`` for the pinned seeds, byte-identity of
service payloads), prints every metric by name and unit, writes a
result document with host metadata and the in-run quartiles of each
metric under ``.perfbench/results/``, and ends its standard output with
one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status 2 means the checkout holds no program to measure (or bad
usage); nothing is printed on standard output then.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402  (path set-up precedes import)
    ROOT,
    WORK_DIR,
    ProgramMissing,
    Result,
    Spans,
    host_metadata,
    load_program,
    peak_rss_mb,
    pinned_digests,
    quartiles,
    run_scaled,
)

WORKLOADS = ("replay", "service")

#: Fresh-interpreter set-up probes run beside the run's own set-up.
SETUP_PROBES = 4


def probe_setup():
    """Raw set-up seconds of :data:`SETUP_PROBES` fresh interpreters."""
    from perfbench.common import program_env

    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py")],
            capture_output=True, text=True, timeout=120, env=program_env(),
            check=True, cwd=ROOT,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def run_replay(args, result: Result) -> None:
    from perfbench import replay

    replay.warm_up()
    setup = [time.perf_counter() - START] + probe_setup()
    pinned = pinned_digests("replay", args.seed) or {}
    run = replay.measure(args.seconds, args.seed, Spans(False))
    replay.check_digests(result, run, pinned)
    result.extra["digests"] = {k: v[0] for k, v in run["digests"].items()}
    result.extra["raw_times"] = run["raw_times"]
    result.extra["raw_op_s"] = replay.raw_op_seconds(run)
    result.extra["probes"] = run["probes"]
    result.extra["raw_setup_s"] = setup
    result.add("setup_s", run_scaled(quartiles(setup)["median"], run["probes"]),
               "s", [run_scaled(t, run["probes"]) for t in setup])
    result.add("peak_rss_mb", peak_rss_mb(), "MB")
    result.add("op_s", replay.op_seconds(run), "s",
               [run_scaled(t, run["probes"]) for t in run["round_ops"]])


def run_service(args, result: Result) -> None:
    from perfbench import service

    service.run(args, result, START)


def run_traced(args, result: Result) -> None:
    """The traced run: every part, whatever the workload.

    Each workload touches only some layers, so a traced run of any
    workload measures all of them: the traced ``replay``, ``battery``
    (the experiment battery, cold and warm) and ``service`` parts, each
    given a third of ``--seconds`` (and at least one round, cold pass or
    phase set).  Self time per layer is summed over the parts' spans,
    which are written out together.
    """
    from perfbench import battery, layers, replay, service

    replay.warm_up()
    budget = args.seconds / 3
    parts = [layers.run_traced(args.seed, budget, result),
             battery.run_traced(args.seed, budget, result),
             service.run_traced(args.seed, budget, result)]
    spans = Spans(True)
    for part in parts:
        spans.records += part.records
    for layer, seconds in sorted(spans.self_times().items()):
        result.add(f"self_s.{layer}", seconds, "s")
    spans.write(WORK_DIR / "spans" / f"{args.workload}-s{args.seed}.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        load_program()
    except ProgramMissing as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    result = Result()
    if args.trace:
        run_traced(args, result)
    else:
        {"replay": run_replay, "service": run_service}[args.workload](
            args, result)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    result.declare(m["name"] for m in manifest[
        "per_layer" if args.trace else "end_to_end"])

    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "failures": result.failures,
        "quartiles": result.samples,
        **result.extra,
        **result.summary(),
        "metrics": result.metrics,
    }
    out = WORK_DIR / "results" / (
        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=2, sort_keys=True))
    for name, metric in sorted(result.metrics.items()):
        spread = result.samples.get(name)
        band = (f"  (n={spread['n']} q1={spread['q1']:.6g} "
                f"q3={spread['q3']:.6g})" if spread and spread["n"] else "")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{band}")
    if not args.trace:
        for name, metric in sorted(result.extra.get("unbounded", {}).items()):
            print(f"{name} = {metric['value']:.6g} {metric['unit']}"
                  "  (per-layer, no bound)")
    for name, phase in result.extra.get("phases", {}).items():
        print(f"phase {name}: {phase['requests']} requests at "
              f"{phase['rate']}/s, p50 {phase['p50_ms']:.3f} ms, "
              f"p99 {phase['p99_ms']:.3f} ms, answered "
              f"{phase['achieved_rps']:.1f}/s, generator late p99 "
              f"{phase['late_p99_ms']:.3f} ms, backlog growth "
              f"{phase['backlog_growth']:.1f}"
              + (" (growing)" if phase["growing"] else ""))
    for failure in result.failures:
        print(f"FAILED: {failure}")
    print(f"host: {json.dumps(document['host'], sort_keys=True)}")
    print(f"wrote {out}")
    print(json.dumps(result.summary(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
