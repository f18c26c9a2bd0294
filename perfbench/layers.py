"""The traced ``replay`` part: stage spans, layer-alone costs and counts.

Three views of the replay, all taken from outside the program:

* **Stage spans** around ``build_workload``, ``make_simulator``,
  ``SoaGPUSimulator.run`` and the result digest, from a traced pass of
  the ``replay`` workload (an untraced pass of the same length runs
  first; the difference is the tracing overhead).
* **Layer-alone costs.**  One ``object``-engine run per capture scenario
  (at :data:`CAPTURE_LENGTH` accesses) has the public methods of its components wrapped to record their input
  streams: ``GPUL1Cache.access``/``complete_fetch``,
  ``ReadOnlyCache.access``, the L2's ``access``, ``BankedCache.schedule``
  and ``DRAMModel.access``/``write_back``.  Each stream is then replayed
  alone on fresh components, which prices each layer without the others
  (the replay loop's own iteration cost included).
  ``replay.fusion_ratio`` is the fused ``soa`` replay's ns per trace
  access over the sum of those layer costs per trace access, both on
  the captured inputs.
* **Counts** per (benchmark, config) from the simulation results.

The capture is trusted only if it passes the fidelity check: the object
run must give the ``soa`` run's digest, and replaying the captured L2
stream through a fresh object L2 and a fresh SoA L2 must reproduce the
run's L2 hits, migrations and refresh writes exactly.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from perfbench import replay
from perfbench.common import Result, Spans, digest, pinned_digests, quartiles

#: Scenarios whose component streams are captured and replayed alone.
CAPTURE_SCENARIOS: Tuple[Tuple[str, str], ...] = (("bfs", "C1"), ("lbm", "C1"))

#: Trace accesses per capture: the object engine records every call, so
#: a capture at the replay length would take about ten seconds.
CAPTURE_LENGTH = 30_000

#: SimulationResult fields reported as counts, per (benchmark, config).
COUNT_FIELDS = (
    ("gpu.l1.hit_rate", "l1_hit_rate", "ratio"),
    ("l2.requests", "l2_requests", "count"),
    ("l2.hit_rate", "l2_hit_rate", "ratio"),
    ("l2.lr_write_share", "lr_write_share", "ratio"),
    ("l2.migrations_to_lr", "migrations_to_lr", "count"),
    ("l2.refresh_writes", "refresh_writes", "count"),
    ("gpu.dram.accesses", "dram_accesses", "count"),
    ("gpu.dram.writebacks", "dram_writebacks", "count"),
)


def count_metric_name(benchmark: str, config: str, label: str) -> str:
    """``<benchmark>.<config>.<label>``, e.g. ``lbm.C1.l2.hit_rate``."""
    return f"{benchmark}.{config}.{label}"


def capture(config, workload):
    """Run the object engine with every component seam recorded."""
    from repro.engine import make_simulator

    sim = make_simulator(config, workload, engine="object")
    streams: Dict[str, List[Any]] = {"l1": [], "ro": [], "l2": [], "banks": [],
                                     "dram": []}

    def record(stream, tag, method, *prefix):
        sink = streams[stream]

        def wrapper(*args):
            sink.append((tag, *prefix, *args))
            return method(*args)
        return wrapper

    for sm, l1 in enumerate(sim.l1s):
        l1.access = record("l1", "a", l1.access, sm)
        l1.complete_fetch = record("l1", "f", l1.complete_fetch, sm)
    for sm, cache in enumerate(sim.const_caches):
        cache.access = record("ro", "c", cache.access, sm)
    for sm, cache in enumerate(sim.texture_caches):
        cache.access = record("ro", "t", cache.access, sm)
    sim.l2.access = record("l2", "a", sim.l2.access)
    sim.banks.schedule = record("banks", "s", sim.banks.schedule)
    sim.dram.access = record("dram", "a", sim.dram.access)
    sim.dram.write_back = record("dram", "w", sim.dram.write_back)
    result = sim.run()
    return sim, result, streams


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def replay_l1(config, events) -> float:
    from repro.gpu.l1 import GPUL1Cache

    l1s = [GPUL1Cache(config.l1, name=f"l1-sm{i}", deferred_fills=True)
           for i in range(config.num_sms)]

    def run():
        for event in events:
            if event[0] == "a":
                l1s[event[1]].access(*event[2:])
            else:
                l1s[event[1]].complete_fetch(*event[2:])
    return _timed(run)


def replay_readonly(config, events) -> float:
    from repro.gpu.readonly import (
        CONST_CACHE_CONFIG,
        TEXTURE_CACHE_CONFIG,
        ReadOnlyCache,
    )

    caches = {
        "c": [ReadOnlyCache(CONST_CACHE_CONFIG) for _ in range(config.num_sms)],
        "t": [ReadOnlyCache(TEXTURE_CACHE_CONFIG) for _ in range(config.num_sms)],
    }

    def run():
        for tag, sm, address, now in events:
            caches[tag][sm].access(address, now)
    return _timed(run)


def replay_banks(config, events) -> float:
    from repro.cache.banked import BankedCache

    banks = BankedCache(config.l2.num_banks, config.l2.line_size)

    def run():
        schedule = banks.schedule
        for _, address, now, service in events:
            schedule(address, now, service)
    return _timed(run)


def replay_dram(config, events) -> float:
    from repro.gpu.dram import DRAMModel

    dram = DRAMModel(num_channels=config.num_mem_controllers,
                     line_size=config.l2.line_size,
                     base_latency_s=config.dram_latency_s)

    def run():
        for event in events:
            if event[0] == "a":
                dram.access(*event[1:])
            else:
                dram.write_back(*event[1:])
    return _timed(run)


def l2_counts(l2) -> Tuple[int, int, Any, Any]:
    """The L2 figures the fidelity check compares."""
    return (l2.stats.accesses, l2.stats.hits,
            getattr(l2, "migrations_to_lr", None),
            getattr(l2, "refresh_writes", None))


def replay_l2(config, events, engine: str, time_maintenance: bool = False):
    """Replay the L2 stream on a fresh L2; returns (seconds, l2, maint_s)."""
    from repro.core.factory import build_l2

    l2 = build_l2(config.l2, tech=config.tech, engine=engine)
    maintenance_s = [0.0]
    if time_maintenance:
        inner = l2.maintenance

        def maintenance(now):
            start = time.perf_counter()
            try:
                return inner(now)
            finally:
                maintenance_s[0] += time.perf_counter() - start
        l2.maintenance = maintenance

    def run():
        access = l2.access
        for _, address, is_write, now in events:
            access(address, is_write, now)
    return _timed(run), l2, maintenance_s[0]


def layer_costs(config, workload, soa_digest: str, result: Result,
                name: str):
    """Capture one scenario and price each layer alone.

    Returns per-layer seconds and event counts, or ``None`` when the
    capture fails its fidelity check (the failure is recorded).
    """
    from repro.io import simulation_result_to_dict

    sim, sim_result, streams = capture(config, workload)
    same_digest = digest(simulation_result_to_dict(sim_result)) == soa_digest
    result.check(same_digest, f"capture:{name}:object-vs-soa-digest")
    l2_s, object_l2, _ = replay_l2(config, streams["l2"], "object")
    soa_l2_s, soa_l2, _ = replay_l2(config, streams["l2"], "soa")
    expected = l2_counts(sim.l2)
    object_ok = result.check(l2_counts(object_l2) == expected,
                             f"capture:{name}:object-l2-counts")
    soa_ok = result.check(l2_counts(soa_l2) == expected,
                          f"capture:{name}:soa-l2-counts")
    if not (same_digest and object_ok and soa_ok):
        return None
    timed_s, _, maintenance_s = replay_l2(config, streams["l2"], "object",
                                          time_maintenance=True)
    l1_accesses = sum(1 for event in streams["l1"] if event[0] == "a")
    dram_accesses = sum(1 for event in streams["dram"] if event[0] == "a")
    return {
        "l1_s": replay_l1(config, streams["l1"]),
        "l1_n": l1_accesses,
        "ro_s": replay_readonly(config, streams["ro"]),
        "ro_n": len(streams["ro"]),
        "banks_s": replay_banks(config, streams["banks"]),
        "banks_n": len(streams["banks"]),
        "l2_s": l2_s,
        "soa_l2_s": soa_l2_s,
        "l2_n": len(streams["l2"]),
        "maintenance_share": maintenance_s / timed_s,
        "dram_s": replay_dram(config, streams["dram"]),
        "dram_n": dram_accesses,
    }


def run_traced(seed: int, seconds: float, result: Result) -> Spans:
    """The traced ``replay`` part (see the module docstring).

    An untraced and a traced pass of the ``replay`` workload of
    ``seconds / 2`` each (at least one round each), then the captures.
    Returns the spans of the traced pass.
    """
    from repro.config import all_configs
    from repro.workloads.suite import build_workload

    pinned = pinned_digests("replay", seed) or {}
    length = replay.LENGTH
    untraced = replay.measure(seconds / 2, seed, Spans(False))
    spans = Spans(True)
    traced = replay.measure(seconds / 2, seed, spans)
    for run in (untraced, traced):
        replay.check_digests(result, run, pinned)

    def per_call(name: str) -> float:
        return quartiles(spans.durations(name))["median"]

    result.add("workloads.generate_s", per_call("workloads.generate"), "s",
               spans.durations("workloads.generate"))
    result.add("engine.build_s", per_call("engine.build"), "s",
               spans.durations("engine.build"))
    result.add("io.digest_s", per_call("io.digest"), "s",
               spans.durations("io.digest"))
    run_ns = {}
    for record in spans.records:
        if record["name"] == "engine.run":
            scenario = record["op"].split(":", 1)[1]
            run_ns.setdefault(scenario, []).append(
                (record["end"] - record["start"]) / length * 1e9)
    medians = {k: quartiles(v)["median"] for k, v in run_ns.items()}
    configs = all_configs()
    twopart = [v for k, v in medians.items()
               if configs[k.split("/")[1]].l2.kind == "twopart"]
    uniform = [v for k, v in medians.items()
               if configs[k.split("/")[1]].l2.kind != "twopart"]
    result.add("engine.ns_per_access", sum(medians.values()) / len(medians),
               "ns")
    result.add("engine.ns_per_access.twopart", sum(twopart) / len(twopart), "ns")
    result.add("engine.ns_per_access.uniform", sum(uniform) / len(uniform), "ns")
    overhead = replay.op_seconds(traced) / replay.op_seconds(untraced) - 1
    result.add("tracing.overhead_share.replay", overhead, "ratio")

    for name, sim_result in traced["results"].items():
        benchmark, config = name.split("/")
        for label, field, unit in COUNT_FIELDS:
            value = getattr(sim_result, field)
            if value is not None:
                result.add(count_metric_name(benchmark, config, label), value,
                           unit)

    costs = []
    for benchmark, config_name in CAPTURE_SCENARIOS:
        name = replay.scenario_name(benchmark, config_name)
        config = configs[config_name]
        fused = Spans(True)
        _, soa_digest = replay.replay_once(benchmark, config_name,
                                           CAPTURE_LENGTH, seed, fused, name)
        workload = build_workload(benchmark, num_accesses=CAPTURE_LENGTH,
                                  num_sms=config.num_sms, seed=seed)
        cost = layer_costs(config, workload, soa_digest, result, name)
        if cost is None:
            # fidelity failed: the layer-alone numbers are rejected
            return spans
        cost["fused_s"] = fused.durations("engine.run")[0]
        costs.append(cost)
    total = {key: sum(c[key] for c in costs) for key in costs[0]}
    result.add("gpu.l1.ns_per_access", total["l1_s"] / total["l1_n"] * 1e9, "ns")
    result.add("gpu.readonly.ns_per_access",
               total["ro_s"] / max(1, total["ro_n"]) * 1e9, "ns")
    result.add("cache.banked.ns_per_call",
               total["banks_s"] / total["banks_n"] * 1e9, "ns")
    result.add("core.l2.ns_per_access", total["l2_s"] / total["l2_n"] * 1e9, "ns")
    result.add("engine.soa_l2.ns_per_access",
               total["soa_l2_s"] / total["l2_n"] * 1e9, "ns")
    result.add("core.l2.maintenance_share",
               sum(c["maintenance_share"] for c in costs) / len(costs), "ratio")
    result.add("gpu.dram.ns_per_access",
               total["dram_s"] / max(1, total["dram_n"]) * 1e9, "ns")
    layers_s = (total["l1_s"] + total["ro_s"] + total["banks_s"]
                + total["soa_l2_s"] + total["dram_s"])
    result.add("replay.fusion_ratio", total["fused_s"] / layers_s, "ratio")
    return spans
