"""The compiled ``soa`` kernel's loader and its preconditions.

The loader must never raise into a simulation: a missing compiler, a
compile error, an unwritable cache directory or a corrupt cached library
each leave the engine on its Python path with a one-line reason.
Parity of the kernel itself is gated in ``test_engine_parity.py``.
"""

import shutil

import numpy as np
import pytest

from repro.benchmarks import all_configs, result_digest
from repro.engine import kernel, make_simulator, replay_path
from repro.engine.soa_sim import PART_VECTORS
from repro.errors import ConfigurationError, SimulationError
from repro.workloads import build_workload


@pytest.fixture
def cache_home(tmp_path, monkeypatch):
    """An empty kernel cache under a temporary ``XDG_CACHE_HOME``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro-sttgpu"


needs_cc = pytest.mark.skipif(
    shutil.which(kernel.CC) is None, reason="no C compiler on PATH"
)


def _simulator(config="C1", length=1500):
    config = all_configs()[config]
    workload = build_workload("bfs", num_accesses=length,
                              num_sms=config.num_sms, seed=2)
    return make_simulator(config, workload, engine="soa")


@needs_cc
def test_build_compiles_into_the_cache_and_reuses_it(cache_home):
    library, reason = kernel.build()
    assert library is not None and reason == "compiled kernel"
    cached = list(cache_home.glob("kernel-*.so"))
    assert len(cached) == 1
    assert not list(cache_home.glob("*.tmp"))
    stamp = cached[0].stat().st_mtime_ns
    assert kernel.build()[0] is not None
    assert cached[0].stat().st_mtime_ns == stamp


def test_missing_compiler_falls_back(cache_home, monkeypatch):
    monkeypatch.setattr(kernel, "CC", "no-such-cc")
    library, reason = kernel.build()
    assert library is None
    assert reason == "no-such-cc not found"


@needs_cc
def test_compile_error_falls_back(cache_home, tmp_path, monkeypatch):
    broken = tmp_path / "kernel.c"
    broken.write_text("int repro_run(void) { return }\n")
    monkeypatch.setattr(kernel, "SOURCE", broken)
    library, reason = kernel.build()
    assert library is None
    assert reason.startswith(f"{kernel.CC} failed: ")
    assert "\n" not in reason
    assert not list(cache_home.glob("*"))


@needs_cc
def test_unwritable_cache_dir_falls_back(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    library, reason = kernel.build()
    assert library is None
    assert reason.startswith("kernel cache not writable: ")
    assert "\n" not in reason


def test_hung_compiler_times_out_and_falls_back(cache_home, tmp_path,
                                               monkeypatch):
    slow_cc = tmp_path / "slow-cc"
    slow_cc.write_text("#!/bin/sh\nexec sleep 30\n")
    slow_cc.chmod(0o755)
    monkeypatch.setattr(kernel, "CC", str(slow_cc))
    monkeypatch.setattr(kernel, "COMPILE_TIMEOUT_S", 0.2)
    library, reason = kernel.build()
    assert library is None
    assert reason == f"{slow_cc} timed out after 0.2 s"
    assert not list(cache_home.glob("*"))


def _truncated_cache_entry(cache_home, tmp_path, monkeypatch):
    """A cached library cut short, at the path the loader will try."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "donor"))
    donor, _ = kernel.build()
    assert donor is not None
    donor_path = next((tmp_path / "donor" / "repro-sttgpu").glob("*.so"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home.parent))
    cache_home.mkdir(parents=True)
    target = cache_home / donor_path.name
    target.write_bytes(donor_path.read_bytes()[:512])
    return target


@needs_cc
def test_truncated_cached_library_is_rebuilt(cache_home, tmp_path,
                                             monkeypatch):
    target = _truncated_cache_entry(cache_home, tmp_path, monkeypatch)
    library, reason = kernel.build()
    assert library is not None and reason == "compiled kernel"
    assert target.stat().st_size > 512


@needs_cc
def test_truncated_cached_library_without_compiler_falls_back(
        cache_home, tmp_path, monkeypatch):
    _truncated_cache_entry(cache_home, tmp_path, monkeypatch)
    monkeypatch.setattr(kernel, "CC", "no-such-cc")
    library, reason = kernel.build()
    assert library is None
    assert reason == "no-such-cc not found"


def test_fallback_reason_reaches_the_simulator(monkeypatch):
    monkeypatch.setattr(kernel, "load", lambda: (None, "cc not found"))
    assert replay_path() == "python: cc not found"
    simulator = _simulator()
    simulator.run()
    assert simulator.replay_path == "python: cc not found"


def _soa_vectors(l2):
    """Every flat vector, LRU order and tag map of an SoA L2."""
    arrays = ((l2.lr_array, l2.hr_array) if hasattr(l2, "lr_array")
              else (l2.array,))
    return [
        [getattr(array, attr) for _, attr, _ in PART_VECTORS]
        + [array.lru, array.tag_to_way, array.stats]
        for array in arrays
    ]


@pytest.mark.parametrize("config", ["C2", "stt-baseline"])
def test_kernel_path_matches_the_python_path(config, monkeypatch):
    """Beyond the results: the kernel leaves every SoA vector (wear
    counters, LRU orders, tag maps) exactly as the Python path does."""
    if kernel.load()[0] is None:
        pytest.skip(f"compiled kernel unavailable: {kernel.load()[1]}")
    fast = _simulator(config, length=6000)
    fast_digest = result_digest(fast.run())
    assert fast.replay_path == "compiled kernel"
    monkeypatch.setattr(kernel, "load", lambda: (None, "forced by a test"))
    slow = _simulator(config, length=6000)
    assert result_digest(slow.run()) == fast_digest
    assert _soa_vectors(slow.l2) == _soa_vectors(fast.l2)


def test_dram_without_line_interleaving_is_refused():
    simulator = _simulator()
    simulator.dram._line_shift = None
    with pytest.raises(ConfigurationError, match="line-interleaved DRAM"):
        simulator.run()


def test_saturating_uniform_write_counter_is_refused():
    simulator = _simulator("baseline")
    simulator.l2.array.write_counter_saturation = 3
    with pytest.raises(ConfigurationError, match="write counter"):
        simulator.run()


def test_addresses_outside_int64_take_the_python_path():
    simulator = _simulator()
    trace = simulator.workload.trace
    trace.address = trace.address.astype(np.uint64)
    simulator.run()
    assert simulator.replay_path == (
        "python: trace addresses are not non-negative int64"
    )


@pytest.mark.parametrize("sm", [-1, 15])
def test_sm_ids_outside_the_config_are_rejected(sm):
    simulator = _simulator()
    simulator.workload.trace.sm[0] = sm
    with pytest.raises(SimulationError, match=f"SM id {sm} is outside"):
        simulator.run()


def test_negative_addresses_are_rejected_not_replayed():
    simulator = _simulator()
    simulator.workload.trace.address[0] = -256
    with pytest.raises(ConfigurationError, match="non-negative"):
        simulator.run()
