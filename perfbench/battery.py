"""The ``battery`` part of the traced run: the experiment battery.

``run_battery(["fig3", "fig6", "fig8", "regions"])`` over all 16
benchmarks at a short trace length, fanned out over ``nproc`` worker
processes.  A cold pass starts from an empty result store (every job
simulates and writes its entry); warm passes rerun the same battery
against the filled store (reads only).  At 4000 accesses trace
generation plus simulator construction is about a third of each job,
and the passes also cover ``track_intervals``, the interval analysis,
process fan-out and ``telemetry.ResultCache`` get and put.

It is not a workload of its own: over five 20 s runs on a shared 2-core
host the median cold pass spread 0.2 (IQR/median), raw and scaled
alike, and the median warm pass 0.085 to 0.10, too close to the 0.25
bound of ``op_s``.  Every traced run measures its layers.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path
from typing import Dict, List

from perfbench.common import (
    WORK_DIR,
    Spans,
    digest,
    percentile,
    pinned_digests,
    quartiles,
    run_scaled,
    timed_probed,
    wrap_attr,
)

#: Experiments in the battery.
EXPERIMENTS = ("fig3", "fig6", "fig8", "regions")

#: Trace accesses per job.
LENGTH = 4000

#: Seconds of warm passes after each cold pass.
WARM_SLICE_S = 1.0

#: Warm passes timed together (one warm pass takes a few milliseconds).
WARM_BATCH = 50


def jobs() -> int:
    """Worker processes: one per core."""
    return os.cpu_count() or 1


def timed_cache(root: Path, spans: Spans):
    """A ``ResultCache`` whose get and put record spans."""
    from repro.telemetry import ResultCache

    class TimedCache(ResultCache):
        def get(self, key):
            with spans.span("telemetry.cache.get"):
                return super().get(key)

        def put(self, key, descriptor, payload):
            with spans.span("telemetry.cache.put"):
                return super().put(key, descriptor, payload)

    return TimedCache(root)


def battery_pass(cache, seed: int, spans: Spans, op: str):
    """One battery run; returns (per-experiment digests, telemetry)."""
    from repro.experiments.parallel import run_battery
    from repro.io import experiment_result_to_dict

    with spans.span("experiments.battery", op):
        results, telemetry = run_battery(
            EXPERIMENTS, trace_length=LENGTH, seed=seed, jobs=jobs(),
            cache=cache)
    digests = {name: digest(experiment_result_to_dict(results[name]))
               for name in EXPERIMENTS}
    return digests, telemetry


def warm_up(root: Path) -> None:
    """Import the experiment modules and run one tiny in-process battery."""
    from repro.experiments.parallel import run_battery
    from repro.telemetry import ResultCache

    run_battery(EXPERIMENTS, trace_length=300, benchmarks=["nn"], seed=0,
                jobs=1, cache=ResultCache(root))
    shutil.rmtree(root, ignore_errors=True)


def measure(seconds: float, seed: int, spans: Spans, work: Path) -> Dict:
    """Alternate cold and warm passes until ``seconds`` have passed.

    Each cycle runs one cold pass on a fresh store, then warm passes on
    that store for :data:`WARM_SLICE_S`; interleaving
    spreads both samples over the whole run, so host drift hits them
    alike.  At least one cycle runs, and none starts after the deadline.
    Raw pass times are kept with the host speed reading before each (see
    :func:`perfbench.common.run_scaled`); warm passes are timed in
    batches of :data:`WARM_BATCH`.
    """
    walls: Dict[str, List[float]] = {"cold": [], "warm": [],
                                     "cold_probes": [], "warm_probes": []}
    digests: List[Dict[str, str]] = []
    kinds: List[str] = []
    cold_telemetries = []
    cache_hits = 0

    def run_passes(kind, store, count):
        """``count`` passes timed as one; records the time per pass."""
        nonlocal cache_hits

        def passes():
            return [battery_pass(store, seed, spans,
                                 f"{kind}{len(walls[kind])}.{i}")
                    for i in range(count)]

        outcomes, raw, probe = timed_probed(passes)
        walls[kind].append(raw / count)
        walls[kind + "_probes"].append(probe)
        for result, telemetry in outcomes:
            digests.append(result)
            kinds.append(kind)
            cache_hits += telemetry.cache_hits
            if kind == "cold":
                # warm telemetry is not kept: thousands of passes would
                # grow this process, and its size is a measured metric
                cold_telemetries.append(telemetry)

    deadline = time.perf_counter() + seconds
    while not walls["cold"] or time.perf_counter() < deadline:
        root = work / f"store-{len(walls['cold'])}"
        shutil.rmtree(root, ignore_errors=True)
        store = timed_cache(root, spans)
        run_passes("cold", store, 1)
        slice_end = time.perf_counter() + WARM_SLICE_S
        while True:
            run_passes("warm", store, WARM_BATCH)
            if time.perf_counter() >= slice_end:
                break
        shutil.rmtree(root, ignore_errors=True)
    return dict(walls, digests=digests, kinds=kinds,
                cold_telemetries=cold_telemetries, cache_hits=cache_hits)


def pass_seconds(run: Dict, kind: str) -> float:
    """Median seconds of a ``kind`` pass, scaled to the reference speed."""
    return run_scaled(quartiles(run[kind])["median"], run[kind + "_probes"])


def instrument(spans: Spans):
    """Wrap the layer entry points a battery job calls; returns an undo.

    Trace generation and simulator construction run in the worker
    processes; the wrappers are installed before the pool forks, and the
    workers write their spans to ``spans.child_dir``.
    """
    import repro.engine
    from repro.experiments import fig3, fig6, fig8, parallel

    undo = [wrap_attr(module, "build_workload", spans, "workloads.generate")
            for module in (fig3, fig6, fig8)]
    undo.append(wrap_attr(repro.engine, "make_simulator", spans,
                          "engine.build"))
    undo.append(wrap_attr(parallel, "fan_out", spans, "experiments.fanout"))
    undo.append(wrap_attr(parallel, "merge_experiment", spans,
                          "experiments.merge"))

    def restore():
        for step in undo:
            step()
    return restore


def run_traced(seed: int, seconds: float, result) -> Spans:
    """The traced ``battery`` part; returns the spans it recorded.

    An untraced and a traced :func:`measure` of ``seconds / 2`` each (at
    least one cold pass each); per-layer metrics come from the traced
    one, ``battery.warm_s`` from the untraced one.
    """
    work = WORK_DIR / "battery" / f"s{seed}-traced"
    pinned = pinned_digests("battery", seed) or {}
    warm_up(work / "warm-up")
    untraced = measure(seconds / 2, seed, Spans(False), work)
    child_dir = work / "spans"
    shutil.rmtree(child_dir, ignore_errors=True)
    child_dir.mkdir(parents=True)
    spans = Spans(True, child_dir)
    restore = instrument(spans)
    try:
        traced = measure(seconds / 2, seed, spans, work)
    finally:
        restore()
    spans.collect_children()
    for run in (untraced, traced):
        check_digests(result, run, pinned)
    result.add("battery.warm_s", pass_seconds(untraced, "warm"), "s")

    def mean(values):
        return sum(values) / len(values)

    generate = spans.durations("workloads.generate")
    build = spans.durations("engine.build")
    result.add("workloads.generate_s.battery", mean(generate), "s", generate)
    result.add("engine.build_s.battery", mean(build), "s", build)
    cold = traced["cold_telemetries"]
    by_kind: Dict[str, List[float]] = {}
    for telemetry in cold:
        for record in telemetry.records:
            if not record.cache_hit:
                by_kind.setdefault(record.kind, []).append(record.wall_time_s)
    for kind, walls in sorted(by_kind.items()):
        stats = quartiles(walls)
        result.add(f"experiments.job_s.p50.{kind}", stats["median"], "s")
        result.add(f"experiments.job_s.p90.{kind}", percentile(walls, 90), "s")
    fanouts = spans.durations("experiments.fanout", "cold")
    busy = [sum(r.wall_time_s for r in t.records if not r.cache_hit)
            for t in cold]
    efficiency = [b / (jobs() * f) for b, f in zip(busy, fanouts)]
    result.add("experiments.fanout_efficiency", mean(efficiency), "ratio",
               efficiency)
    passes = len(traced["cold"]) + len(traced["warm"])
    result.add("experiments.merge_s",
               sum(spans.durations("experiments.merge")) / passes, "s")
    gets = spans.durations("telemetry.cache.get")
    puts = spans.durations("telemetry.cache.put")
    hits = traced["cache_hits"]
    result.add("telemetry.cache.get_ms", mean(gets) * 1e3, "ms",
               [g * 1e3 for g in gets])
    result.add("telemetry.cache.put_ms", mean(puts) * 1e3, "ms",
               [p * 1e3 for p in puts])
    result.add("telemetry.cache.hit_ratio", hits / len(gets), "ratio")
    overhead = pass_seconds(traced, "cold") / pass_seconds(untraced, "cold") - 1
    result.add("tracing.overhead_share.battery", overhead, "ratio")
    return spans


def check_digests(result, run: Dict, pinned: Dict[str, str]) -> None:
    """Every pass must give the pinned (or, unpinned, the first) digests."""
    expected = dict(run["digests"][0])
    expected.update(pinned)
    for kind, observed in zip(run["kinds"], run["digests"]):
        for name in EXPERIMENTS:
            result.check(observed[name] == expected[name],
                         f"battery:{kind}:{name}")
