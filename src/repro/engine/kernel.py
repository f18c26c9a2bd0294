"""Build, cache and load the compiled ``soa`` replay kernel (``kernel.c``).

The kernel is compiled once per source/flags/platform with the system C
compiler and cached as a shared library under
``${XDG_CACHE_HOME:-~/.cache}/repro-sttgpu/``; it is loaded with
:mod:`ctypes`.  :func:`load` never raises: when there is no compiler, the
compile fails, the cache directory is unwritable or the library cannot be
loaded, it returns no library and a one-line reason, and the ``soa``
engine runs its Python path (the object replay loop and L2 over SoA arrays)
instead (docs/engine.md).

The ctypes structures below mirror the C structs field for field; the
loader checks their sizes against the library before using it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from ctypes import POINTER, Structure, c_double, c_int64, c_void_p
from pathlib import Path
from typing import Optional, Tuple

#: C compiler driver looked up on ``PATH``.
CC = "cc"

#: Build flags: no FP contraction and no fast-math, so every float
#: operation rounds exactly as the object engine's replay loop does.
CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99", "-ffp-contract=off")

#: Seconds a compile may take before the loader gives up on it (a normal
#: build takes well under one second).
COMPILE_TIMEOUT_S = 60.0

SOURCE = Path(__file__).with_name("kernel.c")

_I = c_int64
_D = c_double
_P = c_void_p


class Geom(Structure):
    """Set-associative geometry of one cache array."""

    _fields_ = [(name, _I) for name in (
        "num_sets", "assoc", "pow2", "set_bits", "set_mask", "offset_bits")]


class Part(Structure):
    """One SoA cache array's vectors, LRU orders and ``CacheStats``."""

    _fields_ = [
        ("g", Geom), ("saturation", _I),
        ("tag", _P), ("valid", _P), ("dirty", _P),
        ("write_count", _P), ("total_writes", _P), ("total_reads", _P),
        ("frame_writes", _P),
        ("last_write", _P), ("last_access", _P), ("insert", _P),
        ("set_writes", _P), ("set_evictions", _P), ("lru", _P), ("stats", _P),
    ]


class Buffer(Structure):
    """One migration buffer as a ring over caller-owned storage."""

    _fields_ = [
        ("capacity", _I), ("head", _I), ("count", _I),
        ("line", _P), ("dirty", _P), ("ready", _P),
        ("port_free_at", _D), ("service", _D),
        ("pushes", _I), ("drains", _I), ("overflows", _I), ("peak", _I),
    ]


class Refresh(Structure):
    """Refresh schedule, counters and the last sweep's decisions."""

    _fields_ = [
        ("has_lr", _I),
        ("lr_retention", _D), ("lr_refresh_age", _D), ("lr_tick", _D),
        ("hr_refresh_age", _D), ("hr_tick", _D),
        ("next_lr", _D), ("next_hr", _D),
        ("scans", _I), ("lr_refreshes", _I), ("lr_expiries", _I),
        ("hr_clean", _I), ("hr_dirty", _I),
        ("swept", _I), ("act", _P * 4), ("n_act", _I * 4), ("slot", _P * 4),
    ]


class TwoPart(Structure):
    """The two-part L2: both parts, both buffers, refresh, scalars."""

    _fields_ = [
        ("lr", Part), ("hr", Part), ("h2l", Buffer), ("l2h", Buffer),
        ("ref", Refresh),
        ("sequential", _I), ("threshold", _I), ("track_intervals", _I),
    ] + [(name, _D) for name in (
        "hr_ret", "lr_w_en", "lr_r_en", "lr_w_lat", "lr_r_lat",
        "hr_w_en", "hr_r_en", "hr_w_lat", "hr_r_lat", "hr_fill_en",
        "lr_refresh_en", "tag_lat1", "tag_lat2",
        "pe_r1", "pe_r2", "pe_w1", "pe_w2",
        "demand_j", "fill_j", "migration_j", "refresh_j",
    )] + [(name, _I) for name in (
        "data_losses", "lr_data_writes", "hr_data_writes", "refresh_writes",
        "migrations_to_lr", "returns_to_hr", "dram_writebacks_total",
        "sel_accesses", "sel_first", "sel_second",
        "mon_writes", "mon_migrations",
    )] + [("intervals", _P), ("n_intervals", _I), ("intervals_cap", _I)]


class Uniform(Structure):
    """The uniform L2: one array plus its energy/latency scalars."""

    _fields_ = [("arr", Part)] + [(name, _D) for name in (
        "w_hit_en", "r_hit_en", "w_lat", "r_lat", "probe_en", "fill_en",
        "demand_j", "fill_j",
    )] + [("data_writes", _I)]


class Sim(Structure):
    """One replay: trace, per-SM geometry, timing, banks, DRAM, totals."""

    _fields_ = [
        ("n", _I), ("num_sms", _I), ("sm", _P), ("addr", _P), ("flags", _P),
        ("flag_write", _I), ("flag_local", _I), ("flag_const", _I),
        ("flag_texture", _I),
        ("l1", Geom), ("cst", Geom), ("tex", Geom),
        ("mshr_entries", _I), ("mshr_max_merged", _I),
    ] + [(name, _D) for name in (
        "now", "dt", "time_dilation", "l1_hit_s", "noc_rt_s", "cycle_s",
        "wait_cap_factor",
    )] + [
        ("bank_shift", _I), ("bank_mask", _I), ("bank_busy", _P),
        ("bank_req_v", _P), ("bank_conf_v", _P), ("bank_wait_v", _P),
        ("bank_req", _I), ("bank_conf", _I), ("bank_wait_sum", _D),
        ("dram_channels", _I), ("dram_line_shift", _I), ("dram_row_size", _I),
        ("dram_service", _D), ("dram_base_lat", _D), ("dram_rowhit_lat", _D),
        ("dram_max_wait", _D), ("dram_busy", _P), ("dram_busy_s", _P),
        ("dram_open", _P),
        ("n_dram_r", _I), ("n_dram_rh", _I), ("n_dram_w", _I),
        ("dram_wait_s", _D),
        ("reads", _I), ("l2_requests", _I), ("dram_writebacks", _I),
        ("stall_sum_s", _D), ("read_latency_sum_s", _D),
        ("l2_service_sum_s", _D),
        ("sm_counters", _P),
        ("pend_line", _P), ("pend_merged", _P), ("pend_count", _P),
        ("pend_dirty", _P), ("pend_ready", _P), ("min_ready", _P),
        ("twopart", POINTER(TwoPart)), ("uniform", POINTER(Uniform)),
    ]


#: Structures in the order ``repro_sizeof`` numbers them.
_MIRRORS = (Geom, Part, Buffer, Refresh, TwoPart, Uniform, Sim)

_loaded: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def cache_dir() -> Path:
    """Where compiled kernels are cached."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-sttgpu"


def _library_path(source: bytes) -> Path:
    key = hashlib.sha256()
    for part in (source, " ".join(CFLAGS).encode(),
                 f"{sys.platform} {platform.machine()}".encode()):
        key.update(part)
        key.update(b"\0")
    return cache_dir() / f"kernel-{key.hexdigest()[:24]}.so"


def _compile(path: Path) -> None:
    """Compile ``kernel.c`` to ``path``, publishing it atomically.

    Raises :class:`RuntimeError` with a one-line reason on any failure.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
        os.close(fd)
    except OSError as exc:
        raise RuntimeError(f"kernel cache not writable: {exc}") from exc
    try:
        proc = subprocess.run(
            [CC, *CFLAGS, "-o", tmp, str(SOURCE), "-lm"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise RuntimeError(f"{CC} failed: {first}")
        os.replace(tmp, path)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(
            f"{CC} timed out after {COMPILE_TIMEOUT_S:g} s") from exc
    except OSError as exc:
        raise RuntimeError(f"{CC} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(path: Path) -> ctypes.CDLL:
    """Load the library and check its structs against the ctypes mirror."""
    lib = ctypes.CDLL(str(path))
    lib.repro_sizeof.argtypes = [c_int64]
    lib.repro_sizeof.restype = c_int64
    lib.repro_run.argtypes = [POINTER(Sim)]
    lib.repro_run.restype = c_int64
    for which, mirror in enumerate(_MIRRORS):
        if lib.repro_sizeof(which) != ctypes.sizeof(mirror):
            raise OSError(f"struct {mirror.__name__} does not match kernel.c")
    return lib


def build() -> Tuple[Optional[ctypes.CDLL], str]:
    """Compile (or reuse) and load the kernel; ``(library, reason)``.

    Never raises.  ``library`` is ``None`` when the kernel is unavailable,
    with a one-line ``reason``; a cached library that fails to load is
    rebuilt once before giving up.
    """
    try:
        path = _library_path(SOURCE.read_bytes())
    except OSError as exc:
        return None, f"kernel source unreadable: {exc}"
    if path.exists():
        try:
            return _open(path), "compiled kernel"
        except (OSError, AttributeError):
            pass  # truncated or corrupt: rebuild below
    if shutil.which(CC) is None:
        return None, f"{CC} not found"
    try:
        _compile(path)
        return _open(path), "compiled kernel"
    except RuntimeError as exc:
        return None, str(exc)
    except (OSError, AttributeError) as exc:
        return None, f"kernel library failed to load: {exc}"


def load() -> Tuple[Optional[ctypes.CDLL], str]:
    """This process's :func:`build` result, built on first use.

    Deliberately unlocked: concurrent first calls may each build, which is
    safe because a library is published atomically, and a worker forked
    mid-build cannot inherit a held lock.
    """
    global _loaded
    if _loaded is None:
        _loaded = build()
    return _loaded
