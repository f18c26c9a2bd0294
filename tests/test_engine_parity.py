"""Cross-engine parity gates: ``soa`` must be byte-identical to ``object``.

The SoA engine (``repro.engine``, see docs/engine.md) re-implements the
replay over flat vectors, on two paths: a compiled C kernel, and a
Python fallback that runs the object replay loop and L2 protocol over
``SoaCacheArray`` arrays.  Its entire claim to correctness is that no
observable output changes on either path.  These tests enforce that
claim in these ways:

* **Pinned bench scenarios** — every scenario in the committed replay
  benchmark (``repro.benchmarks.PINNED_SCENARIOS`` + ``QUICK_SCENARIOS``)
  is run under both engines, on the default (kernel) path and on the
  forced Python path; the canonical
  :class:`~repro.gpu.metrics.SimulationResult` dicts, their SHA-256
  digests, the component counter surfaces, the L2 state snapshot, the
  queue state and ``rewrite_intervals`` must match exactly.
* **Randomized pressure profiles** — seeded workloads on the tiny
  ``oracle-small`` two-part config (capacity pressure ⇒ migrations,
  buffer traffic and refresh sweeps within tens of accesses) are replayed
  the same way on both paths, and through the oracle's lockstep runner
  with the factory-built ``soa`` L2 as the DUT.
* **Random configurations** — a seeded sweep of 48 two-part and uniform
  geometries and policies compares the kernel against ``object``.
* **Refresh-sweep decisions** — both engines' refresh engines must emit
  identical action lists (same lines refreshed/expired/dropped, in the
  same order) on a shared access-and-maintenance schedule, and a replay
  whose L2 times land exactly on the refresh-tick grid must reschedule
  its sweeps the same way on both engines.
* **Lazy cold-path views** — a kernel-path run builds no per-line block
  view; the views built afterwards read the written-back state and equal
  the object engine's blocks.
* **One Python protocol** — ``UniformL2`` over either array backing
  agrees call by call, ``build_l2(engine="soa")`` returns the object L2
  classes themselves, and no ``repro.engine`` module keeps its own copy
  of the L2 protocol.

The Python path is forced by replacing the kernel loader, the way a host
without a C compiler sees it.  Engine selection itself (fallbacks,
explicit-request errors) is covered at the bottom; the regression *speed*
gate lives in ``scripts/bench_replay.py``, not here — tier-1 only proves
equivalence.
"""

import importlib
import inspect
import math
import pkgutil
import random

import numpy as np
import pytest

import repro.engine
from repro.benchmarks import (
    PINNED_SCENARIOS,
    QUICK_SCENARIOS,
    all_configs,
    result_digest,
)
from repro.cache.array import SetAssociativeCache
from repro.config import GPUConfig, L2Config, L2PartConfig
from repro.core import refresh
from repro.core.factory import build_l2
from repro.core.interface import L2Interface
from repro.core.refresh import RefreshEngine
from repro.core.twopart import TwoPartSTTL2
from repro.core.uniform import UniformL2
from repro.engine import ENGINES, make_simulator, resolve_engine
from repro.engine import kernel as compiled
from repro.engine.soa_array import SoaBlockView, SoaCacheArray
from repro.engine.soa_sim import SoaGPUSimulator
from repro.errors import ConfigurationError
from repro.gpu.simulator import TIME_DILATION, GPUSimulator
from repro.io import simulation_result_to_dict
from repro.oracle import (
    dut_counters,
    l2_kwargs_from_config,
    make_pair,
    pressure_config,
    run_diff,
)
from repro.tracing import TraceCollector
from repro.workloads import build_workload
from repro.workloads.trace import FLAG_WRITE, Trace, Workload

ALL_SCENARIOS = tuple(PINNED_SCENARIOS) + tuple(QUICK_SCENARIOS)


def _run(scenario_workload, config, trace_length, seed, engine,
         track_intervals=False, time_dilation=TIME_DILATION):
    """One fresh simulation; returns (result, simulator)."""
    workload = build_workload(
        scenario_workload,
        num_accesses=trace_length,
        num_sms=config.num_sms,
        seed=seed,
    )
    simulator = make_simulator(
        config, workload, engine=engine, track_intervals=track_intervals,
        time_dilation=time_dilation,
    )
    return simulator.run(), simulator


def _counter_surface(simulator):
    """Every component counter the experiments or metrics layer can read."""
    surface = {
        "banks": simulator.banks.stats,
        "per_bank": simulator.banks.per_bank,
        "dram": simulator.dram.stats,
    }
    for index, l1 in enumerate(simulator.l1s):
        surface[f"l1.{index}.array"] = l1.array.stats
        surface[f"l1.{index}.gpu"] = l1.gpu_stats
        surface[f"l1.{index}.mshr"] = l1.mshr.stats
    for index, cache in enumerate(simulator.const_caches):
        surface[f"const.{index}"] = cache.array.stats
    for index, cache in enumerate(simulator.texture_caches):
        surface[f"texture.{index}"] = cache.array.stats
    l2 = simulator.l2
    if hasattr(l2, "lr_array"):
        surface["l2"] = dut_counters(l2)
    else:
        surface["l2.array"] = l2.array.stats
        surface["l2.data_writes"] = l2.data_writes
        surface["l2.energy"] = l2.energy.as_dict()
    return surface


def _state(simulator):
    """Architectural state left behind: L2 lines, buffers, sweeps, queues."""
    l2 = simulator.l2
    if hasattr(l2, "state_snapshot"):
        state = {
            "l2": l2.state_snapshot(),
            "next_scans": (l2.refresh_engine._next_lr_scan,
                           l2.refresh_engine._next_hr_scan),
        }
    else:
        state = {"l2": [
            (index, way, block.tag, block.dirty, block.write_count,
             block.insert_time, block.last_write_time)
            for index, way, block in l2.array.iter_blocks() if block.valid
        ]}
    arrays = ((l2.lr_array, l2.hr_array) if hasattr(l2, "lr_array")
              else (l2.array,))
    state["wear"] = [
        (array.per_set_eviction_counts(), array.per_set_write_counts(),
         array.per_way_write_counts(), array.per_frame_write_counts())
        for array in arrays
    ]
    state["banks"] = list(simulator.banks._busy_until)
    state["dram"] = (list(simulator.dram._busy_until),
                     list(simulator.dram._busy_s),
                     list(simulator.dram._open_row))
    state["l1"] = [
        (l1._pending, l1.mshr._entries, l1._min_ready)
        for l1 in simulator.l1s
    ]
    state["end_time_s"] = simulator.end_time_s
    return state


def _assert_engine_invariant(workload, config, trace_length, seed,
                             time_dilation=TIME_DILATION,
                             track_intervals=True):
    """``soa`` equals ``object`` on every output surface; returns the soa
    simulator so callers can check which replay path it took."""
    obj_result, obj_sim = _run(workload, config, trace_length, seed,
                               "object", track_intervals, time_dilation)
    soa_result, soa_sim = _run(workload, config, trace_length, seed,
                               "soa", track_intervals, time_dilation)
    _assert_same_outputs(obj_result, obj_sim, soa_result, soa_sim)
    return soa_sim


def _assert_same_outputs(obj_result, obj_sim, soa_result, soa_sim):
    """Two finished runs agree on every output surface."""
    assert isinstance(soa_sim, SoaGPUSimulator)
    assert simulation_result_to_dict(obj_result) == \
        simulation_result_to_dict(soa_result)
    assert result_digest(obj_result) == result_digest(soa_result)
    assert _counter_surface(obj_sim) == _counter_surface(soa_sim)
    assert _state(obj_sim) == _state(soa_sim)
    if hasattr(obj_sim.l2, "lr_array"):
        assert dut_counters(obj_sim.l2) == dut_counters(soa_sim.l2)
        assert obj_sim.l2.rewrite_intervals == soa_sim.l2.rewrite_intervals


@pytest.fixture
def python_path(monkeypatch):
    """Force the ``soa`` engine onto its pure-Python replay path."""
    monkeypatch.setattr(compiled, "load", lambda: (None, "forced by a test"))


def _assert_default_path(soa_sim):
    """Unforced runs take the kernel whenever it loads."""
    library, reason = compiled.load()
    expected = reason if library is not None else f"python: {reason}"
    assert soa_sim.replay_path == expected


@pytest.mark.parametrize(
    "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
)
def test_pinned_scenarios_are_engine_invariant(scenario):
    """Both engines produce byte-identical results on every pinned scenario
    (the ``soa`` engine on its default path: the compiled kernel)."""
    config = all_configs()[scenario.config]
    soa_sim = _assert_engine_invariant(
        scenario.workload, config, scenario.trace_length, scenario.seed
    )
    _assert_default_path(soa_sim)


@pytest.mark.parametrize(
    "scenario", ALL_SCENARIOS, ids=lambda s: s.key.replace("/", "-")
)
def test_pinned_scenarios_on_the_python_path(scenario, python_path):
    """The pure-Python fallback is byte-identical on every pinned scenario."""
    config = all_configs()[scenario.config]
    soa_sim = _assert_engine_invariant(
        scenario.workload, config, scenario.trace_length, scenario.seed
    )
    assert soa_sim.replay_path == "python: forced by a test"


@pytest.mark.parametrize("profile", ["bfs", "backprop", "stencil"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pressure_profiles_are_engine_invariant(profile, seed):
    """Randomized workloads on the tiny two-part config: heavy migration
    and refresh traffic, still byte-identical across engines."""
    soa_sim = _assert_engine_invariant(profile, pressure_config(), 4000, seed)
    _assert_default_path(soa_sim)


@pytest.mark.parametrize("profile", ["bfs", "backprop", "stencil"])
@pytest.mark.parametrize("seed", [0, 1])
def test_pressure_profiles_on_the_python_path(profile, seed, python_path):
    """The same pressure profiles through the pure-Python fallback."""
    soa_sim = _assert_engine_invariant(profile, pressure_config(), 4000, seed)
    assert soa_sim.replay_path == "python: forced by a test"


def _random_config(rng, index):
    """One random L2 geometry/policy point for the kernel parity sweep."""
    line = rng.choice([128, 256])
    ways = rng.choice([2, 3, 4, 7, 8])
    sets = rng.choice([3, 4, 6, 12, 16, 24])
    main = L2PartConfig(sets * ways * line, ways, line)
    common = {"main": main, "num_banks": rng.choice([1, 2, 4, 8, 16]),
              "early_write_termination": rng.random() < 0.3}
    if rng.random() < 0.25:
        l2 = L2Config(kind=rng.choice(["sram", "stt"]), **common)
    else:
        lr_ways = rng.choice([1, 2, 4])
        lr_sets = rng.choice([2, 3, 4, 8])
        hr_retention = rng.choice([40e-3, 4e-3, 1e-3])
        l2 = L2Config(
            kind="twopart",
            lr=L2PartConfig(lr_sets * lr_ways * line, lr_ways, line),
            write_threshold=rng.choice([1, 1, 2, 3]),
            migration_buffer_lines=rng.choice([1, 2, 4, 20]),
            hr_retention_s=hr_retention,
            lr_retention_s=rng.choice([10e-6, 40e-6, 200e-6]),
            sequential_search=rng.random() < 0.7,
            lr_technology=rng.choice(["stt", "stt", "sram"]),
            **common,
        )
    return GPUConfig(name=f"sweep-{index}", l2=l2)


@pytest.mark.parametrize("chunk", range(4))
def test_random_configs_kernel_matches_object(chunk):
    """A seeded sweep of 48 random two-part and uniform configurations:
    the compiled kernel equals the object engine on every surface."""
    if compiled.load()[0] is None:
        pytest.skip(f"compiled kernel unavailable: {compiled.load()[1]}")
    rng = random.Random(1000 + chunk)
    profiles = ["bfs", "backprop", "stencil", "lbm", "nn"]
    for index in range(12):
        config = _random_config(rng, index)
        # the dilation spreads the sweep over buffer overflows (fast
        # L2 clock) through refreshes, expiries and data losses (slow)
        soa_sim = _assert_engine_invariant(
            rng.choice(profiles), config, 2500, rng.randrange(100),
            time_dilation=rng.choice([0.05, 10.0, 300.0, 3000.0]),
            track_intervals=rng.random() < 0.7,
        )
        assert soa_sim.replay_path == "compiled kernel"


@pytest.mark.parametrize("records_per_tick", [3, 6])
def test_refresh_ticks_landing_on_the_grid(records_per_tick, monkeypatch):
    """L2 times that land exactly on the LR tick grid, where ``now / tick``
    rounds below the integer: the sweep must reschedule one tick later,
    not at ``now`` (the float guard in ``_next_on_grid``).

    Every record is a global store, so every record reaches the L2; the
    time dilation puts ``records_per_tick`` records in each LR tick, which
    makes one record of this trace hit the grid that way."""
    config = pressure_config()
    kernel = build_workload("bfs", num_accesses=10, num_sms=config.num_sms,
                            seed=0).kernel
    n = 3000
    rng = np.random.default_rng(5)
    workload = Workload(name="tick-grid", kernel=kernel, trace=Trace(
        np.arange(n) % config.num_sms, rng.integers(0, 64, n) * 128,
        np.full(n, FLAG_WRITE)))
    dt = kernel.compute_intensity * (1.0 / config.core_clock_hz) \
        / config.num_sms
    tick = make_simulator(config, workload, engine="object") \
        .l2.refresh_engine.lr_spec.tick_s
    time_dilation = tick / (dt * records_per_tick)

    guarded = []
    next_on_grid = refresh._next_on_grid

    def spy(now, tick_s):
        if (math.floor(now / tick_s) + 1.0) * tick_s <= now:
            guarded.append(now)
        return next_on_grid(now, tick_s)

    monkeypatch.setattr(refresh, "_next_on_grid", spy)
    runs = []
    for engine in ("object", "soa"):
        simulator = make_simulator(config, workload, engine=engine,
                                   track_intervals=True,
                                   time_dilation=time_dilation)
        runs += [simulator.run(), simulator]
        if engine == "object":
            assert guarded, "no sweep landed on the tick grid"
    _assert_same_outputs(*runs)
    _assert_default_path(runs[-1])


def _blocks(array):
    """Every line's bookkeeping, read through the array's block views."""
    return [
        (index, way, block.valid, block.tag, block.dirty, block.write_count,
         block.total_writes, block.total_reads, block.last_write_time,
         block.last_access_time, block.insert_time)
        for index, way, block in array.iter_blocks()
    ]


@pytest.mark.parametrize("config_name", ["C1", "baseline"])
def test_kernel_run_builds_no_block_views(config_name, monkeypatch):
    """Building a ``soa`` simulator and running the kernel creates no
    per-line view on any array; views built afterwards read the state the
    kernel wrote back, and equal the object engine's blocks."""
    if compiled.load()[0] is None:
        pytest.skip(f"compiled kernel unavailable: {compiled.load()[1]}")
    built = []
    original = SoaBlockView.__init__

    def counting_init(self, array, slot):
        built.append(slot)
        original(self, array, slot)

    monkeypatch.setattr(SoaBlockView, "__init__", counting_init)
    config = all_configs()[config_name]
    _, obj_sim = _run("bfs", config, 4000, 0, "object")
    _, soa_sim = _run("bfs", config, 4000, 0, "soa")
    assert soa_sim.replay_path == "compiled kernel"
    l2_arrays = {
        "object": ((obj_sim.l2.lr_array, obj_sim.l2.hr_array)
                   if config_name == "C1" else (obj_sim.l2.array,)),
        "soa": ((soa_sim.l2.lr_array, soa_sim.l2.hr_array)
                if config_name == "C1" else (soa_sim.l2.array,)),
    }
    soa_arrays = l2_arrays["soa"] + tuple(
        cache.array for cache in
        soa_sim.l1s + soa_sim.const_caches + soa_sim.texture_caches
    )
    assert all(isinstance(array, SoaCacheArray) for array in soa_arrays)
    assert all(type(l1.array) is SetAssociativeCache for l1 in obj_sim.l1s)
    assert built == []
    assert not any({"sets", "block_views"} & set(vars(array))
                   for array in soa_arrays)

    if config_name == "C1":
        assert soa_sim.l2.state_snapshot() == obj_sim.l2.state_snapshot()
    for obj_array, soa_array in zip(l2_arrays["object"], l2_arrays["soa"]):
        assert _blocks(soa_array) == _blocks(obj_array)
    assert len(built) == sum(array.num_lines for array in l2_arrays["soa"])


@pytest.mark.parametrize("profile", ["bfs", "stencil"])
def test_soa_l2_survives_the_lockstep_oracle(profile):
    """The factory-built ``soa`` two-part L2 (``TwoPartSTTL2`` over
    ``SoaCacheArray`` parts) as DUT against the naive reference: zero
    divergence on per-access outcomes, counters and refresh decisions."""
    report = run_diff(
        profile, pressure_config(), seed=3, accesses=1500, engine="soa"
    )
    assert report["engine"] == "soa"
    assert report["divergence"] is None


def test_refresh_sweep_decisions_match():
    """Refresh sweeps over either array backing act on the same lines in
    the same order."""
    kwargs = l2_kwargs_from_config(pressure_config().l2)
    obj = TwoPartSTTL2(**kwargs)
    soa = TwoPartSTTL2(**kwargs, array_factory=SoaCacheArray)
    rng = random.Random(11)
    now = 0.0
    sweeps = 0
    for _ in range(2500):
        now += 2e-6
        address = rng.randrange(0, 1 << 16) & ~(kwargs["line_size"] - 1)
        is_write = rng.random() < 0.6
        obj_res = obj.access(address, is_write, now)
        soa_res = soa.access(address, is_write, now)
        assert (obj_res.hit, obj_res.part, obj_res.latency_s,
                obj_res.energy_j, obj_res.dram_writebacks) == \
            (soa_res.hit, soa_res.part, soa_res.latency_s,
             soa_res.energy_j, soa_res.dram_writebacks)
        obj_actions = obj.refresh_engine.last_actions
        soa_actions = soa.refresh_engine.last_actions
        if obj_actions is not None or soa_actions is not None:
            assert obj_actions is not None and soa_actions is not None
            assert obj_actions.as_dict() == soa_actions.as_dict()
            sweeps += 1
    assert sweeps > 0, "schedule never triggered a refresh sweep"
    assert dut_counters(obj) == dut_counters(soa)


@pytest.mark.parametrize("technology", ["sram", "stt"])
def test_uniform_l2_backings_agree_call_by_call(technology):
    """``UniformL2`` over ``SetAssociativeCache`` and over
    ``SoaCacheArray``: every access and fill result, the stats, the energy
    ledger and the dirty-line count agree after every call (the lockstep
    oracle covers only the two-part L2)."""
    geometry = (16 * 1024, 4, 256)  # 16 sets: evictions within tens of calls
    obj = UniformL2(*geometry, technology=technology)
    soa = UniformL2(*geometry, technology=technology,
                    array_factory=SoaCacheArray)
    rng = random.Random(5)
    now = 0.0
    for _ in range(3000):
        now += 1e-6
        address = rng.randrange(0, 1 << 17)
        if rng.random() < 0.1:
            dirty = rng.random() < 0.5
            obj_res = obj.fill_from_dram(address, now, dirty=dirty)
            soa_res = soa.fill_from_dram(address, now, dirty=dirty)
        else:
            is_write = rng.random() < 0.5
            obj_res = obj.access(address, is_write, now)
            soa_res = soa.access(address, is_write, now)
        assert soa_res == obj_res
        assert soa.stats == obj.stats
        assert soa.energy.as_dict() == obj.energy.as_dict()
        assert soa.data_writes == obj.data_writes
        assert soa.dirty_lines() == obj.dirty_lines()
    assert obj.stats.write_hits and obj.stats.evictions_dirty
    assert soa.array.per_frame_write_counts() == \
        obj.array.per_frame_write_counts()
    assert _blocks(soa.array) == _blocks(obj.array)


@pytest.mark.parametrize("config_name", ["C1", "baseline", "stt-baseline"])
def test_soa_l2_is_the_object_protocol_over_soa_arrays(config_name):
    """``build_l2(engine="soa")`` returns the object L2 classes themselves
    (not subclasses) with ``SoaCacheArray`` parts, and rejects an enabled
    tracer."""
    l2_config = all_configs()[config_name].l2
    l2 = build_l2(l2_config, engine="soa")
    if l2_config.kind == "twopart":
        assert type(l2) is TwoPartSTTL2
        parts = (l2.lr_array, l2.hr_array)
    else:
        assert type(l2) is UniformL2
        parts = (l2.array,)
    assert all(type(part) is SoaCacheArray for part in parts)
    with pytest.raises(ConfigurationError):
        build_l2(l2_config, tracer=TraceCollector(), engine="soa")


def test_no_engine_module_carries_a_copy_of_the_l2_protocol():
    """No class under ``repro.engine`` is an L2 (so none has an L2
    ``access``) or a refresh engine, and none defines the protocol's
    maintenance, migration, sweep, DRAM-fill or dirty-line methods: the
    Python path runs the object protocol itself."""
    protocol = {"maintenance", "_migrate_and_write", "_sweep_lr",
                "_sweep_hr", "fill_from_dram", "dirty_lines"}
    offenders = []
    for info in pkgutil.iter_modules(repro.engine.__path__):
        module = importlib.import_module(f"repro.engine.{info.name}")
        for name, obj in vars(module).items():
            if not inspect.isclass(obj) or obj.__module__ != module.__name__:
                continue
            if issubclass(obj, (L2Interface, RefreshEngine)) or \
                    protocol & set(vars(obj)):
                offenders.append(f"{module.__name__}.{name}")
    assert offenders == []


def test_lockstep_pair_accepts_engine_and_rejects_soa_mutants():
    config = pressure_config()
    dut, _ref = make_pair(config, engine="soa")
    assert type(dut) is TwoPartSTTL2
    assert isinstance(dut.lr_array, SoaCacheArray)
    assert isinstance(dut.hr_array, SoaCacheArray)
    from repro.errors import OracleError

    with pytest.raises(OracleError):
        make_pair(config, mutant="probe-order", engine="soa")
    with pytest.raises(OracleError):
        make_pair(config, engine="vectorized")


def test_engine_resolution_fallbacks_and_errors():
    config = all_configs()["C1"]

    class _Tracer:
        enabled = True

    assert resolve_engine(config) == "soa"
    assert resolve_engine(config, engine="object") == "object"
    assert resolve_engine(config, tracer=_Tracer()) == "object"
    assert resolve_engine(config, deferred_l1_fills=False) == "object"
    assert resolve_engine(config, invariant_checker=object()) == "object"
    with pytest.raises(ConfigurationError):
        resolve_engine(config, engine="soa", tracer=_Tracer())
    with pytest.raises(ConfigurationError):
        resolve_engine(config, engine="no-such-engine")
    assert set(ENGINES) == {"object", "soa"}


def test_make_simulator_returns_the_resolved_engine():
    config = all_configs()["C1"]
    workload = build_workload(
        "bfs", num_accesses=200, num_sms=config.num_sms, seed=0
    )
    assert isinstance(
        make_simulator(config, workload, engine="soa"), SoaGPUSimulator
    )
    explicit = make_simulator(config, workload, engine="object")
    assert type(explicit) is GPUSimulator
