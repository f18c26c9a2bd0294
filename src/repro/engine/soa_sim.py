"""Structure-of-arrays replay (the ``soa`` engine's simulator).

:class:`SoaGPUSimulator` subclasses :class:`repro.gpu.simulator.GPUSimulator`
and overrides only :meth:`~SoaGPUSimulator.run`.  The replay has two
interchangeable paths over the same L2: the object L2 classes with
:class:`~repro.engine.soa_array.SoaCacheArray` parts, built by
:func:`repro.core.factory.build_l2` with ``engine="soa"``.

* **The compiled kernel** (``kernel.c``, loaded by
  :mod:`repro.engine.kernel`).  ``run`` copies the L2, buffer, refresh,
  bank and DRAM state into flat NumPy buffers, replays the whole trace in
  one C call, and writes every counter and all state back into the
  component objects.
* **The Python path**, used when no kernel library is available (the
  reason is in :attr:`SoaGPUSimulator.replay_path`): the object engine's
  replay loop, :meth:`GPUSimulator.run`, driving
  :meth:`TwoPartSTTL2.access <repro.core.twopart.TwoPartSTTL2.access>` or
  :meth:`UniformL2.access <repro.core.uniform.UniformL2.access>` over
  those arrays — the object protocol, the code the lockstep oracle
  checks.

Equivalence contract (docs/engine.md): every counter update, float
accumulation and state transition in the kernel happens in the object
engine's order, so the :class:`~repro.gpu.metrics.SimulationResult` is
byte-identical on either path.  Integer counters may be accumulated
locally and folded into the components after the loop, since integer
addition commutes.

The per-SM L1 and const/texture caches are
:class:`~repro.engine.soa_array.SoaCacheArray` instances too
(:attr:`SoaGPUSimulator.ARRAY_FACTORY`), so both paths build the same
components and no per-line object.  The one intentional divergence, on
the kernel path only: those caches' contents and per-line *wear*
counters (``set_writes``/``frame_writes``/``set_evictions`` and per-line
timestamps) are not written back — the kernel reads only their geometry
and stats, and nothing downstream reads their lines — while aggregate
``CacheStats``, ``L1Stats``, ``MSHRStats``, the outstanding fetches,
bank and DRAM state are.

Not supported (the registry falls back to the object engine): tracing,
invariant checkers, fault injection, immediate (non-deferred) L1 fills
and the ``stt-relaxed`` L2 kind.
"""

from __future__ import annotations

import ctypes
from math import inf, isnan
from typing import Dict, Optional

import numpy as np

from repro.config import GPUConfig
from repro.core.factory import build_l2
from repro.core.refresh import RefreshActions
from repro.core.twopart import TwoPartSTTL2
from repro.engine import kernel as compiled
from repro.engine.soa_array import SoaCacheArray
from repro.errors import ConfigurationError, SimulationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.occupancy import compute_occupancy
from repro.gpu.simulator import (
    BANK_WAIT_CAP_FACTOR,
    L1_HIT_CYCLES,
    TIME_DILATION,
    GPUSimulator,
)
from repro.workloads.trace import (
    FLAG_CONST,
    FLAG_LOCAL,
    FLAG_TEXTURE,
    FLAG_WRITE,
    Workload,
)

#: Per-SM counters in ``kernel.c``'s order: (component, stats fields).
SM_COUNTERS = (
    ("l1.array", ("reads", "writes", "read_hits", "write_hits", "fills",
                  "evictions_clean", "evictions_dirty", "invalidations")),
    ("l1.gpu", ("global_reads", "global_writes", "local_reads",
                "local_writes", "write_evictions", "local_writebacks",
                "coalesced_misses", "mshr_stalls")),
    ("l1.mshr", ("allocations", "coalesced", "stalls", "completions")),
    ("const", ("reads", "read_hits", "fills", "evictions_clean")),
    ("texture", ("reads", "read_hits", "fills", "evictions_clean")),
)

N_SM_COUNTERS = sum(len(fields) for _, fields in SM_COUNTERS)

#: ``CacheStats`` fields in ``kernel.c``'s order.
CACHE_STATS = SM_COUNTERS[0][1]

#: SoA array vectors shared with the kernel: (struct field, attribute, dtype).
PART_VECTORS = (
    ("tag", "tag_vec", np.int64),
    ("valid", "valid_vec", np.uint8),
    ("dirty", "dirty_vec", np.uint8),
    ("write_count", "write_count_vec", np.int64),
    ("total_writes", "total_writes_vec", np.int64),
    ("total_reads", "total_reads_vec", np.int64),
    ("frame_writes", "frame_writes_vec", np.int64),
    ("last_write", "last_write_time_vec", np.float64),
    ("last_access", "last_access_time_vec", np.float64),
    ("insert", "insert_time_vec", np.float64),
    ("set_writes", "set_writes_vec", np.int64),
    ("set_evictions", "set_evictions", np.int64),
)


def _geom(array) -> compiled.Geom:
    mapper = array.mapper
    return compiled.Geom(
        num_sets=array.num_sets, assoc=array.associativity,
        pow2=mapper.pow2_sets, set_bits=mapper._set_bits,
        set_mask=mapper._set_mask, offset_bits=mapper.offset_bits,
    )


class _Buffers:
    """NumPy buffers handed to the kernel, kept alive across the call."""

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}

    def put(self, key: str, values, dtype) -> int:
        """Keep a contiguous ``dtype`` copy of ``values``; its address."""
        array = np.ascontiguousarray(values, dtype=dtype)
        self.arrays[key] = array
        return array.ctypes.data

    def zeros(self, key: str, shape, dtype) -> int:
        """Keep a zeroed ``dtype`` array of ``shape``; its address."""
        return self.put(key, np.zeros(shape, dtype=dtype), dtype)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]


def _part_in(buffers: _Buffers, key: str, array) -> compiled.Part:
    """A ``Part`` struct over copies of one SoA array's state."""
    part = compiled.Part(g=_geom(array),
                         saturation=array.write_counter_saturation)
    for field, attr, dtype in PART_VECTORS:
        setattr(part, field,
                buffers.put(f"{key}.{field}", getattr(array, attr), dtype))
    part.lru = buffers.put(f"{key}.lru", array.lru, np.int32)
    stats = array.stats
    part.stats = buffers.put(
        f"{key}.stats", [getattr(stats, name) for name in CACHE_STATS],
        np.int64)
    return part


def _part_out(buffers: _Buffers, key: str, array) -> None:
    """Write a ``Part``'s buffers back into the SoA array, in place."""
    for field, attr, dtype in PART_VECTORS:
        values = buffers[f"{key}.{field}"]
        if dtype is np.uint8:
            values = values.astype(bool)
        getattr(array, attr)[:] = values.tolist()
    assoc = array.associativity
    array.lru[:] = buffers[f"{key}.lru"].reshape(-1, assoc).tolist()
    tags = array.tag_vec
    for tag_map in array.tag_to_way:
        tag_map.clear()
    for slot in np.flatnonzero(buffers[f"{key}.valid"]).tolist():
        array.tag_to_way[slot // assoc][tags[slot]] = slot % assoc
    for name, value in zip(CACHE_STATS, buffers[f"{key}.stats"].tolist()):
        setattr(array.stats, name, value)


def _buffer_in(buffers: _Buffers, key: str, buffer) -> compiled.Buffer:
    entries = list(buffer._entries)
    capacity = buffer.capacity_lines
    pad = [0] * (capacity - len(entries))
    stats = buffer.stats
    return compiled.Buffer(
        capacity=capacity, head=0, count=len(entries),
        line=buffers.put(f"{key}.line", [e[0] for e in entries] + pad,
                         np.int64),
        dirty=buffers.put(f"{key}.dirty", [e[1] for e in entries] + pad,
                          np.uint8),
        ready=buffers.put(f"{key}.ready", [e[2] for e in entries] + pad,
                          np.float64),
        port_free_at=buffer._port_free_at,
        service=buffer.drain_service_time,
        pushes=stats.pushes, drains=stats.drains, overflows=stats.overflows,
        peak=stats.peak_occupancy,
    )


def _buffer_out(buffers: _Buffers, key: str, struct, buffer) -> None:
    order = [(struct.head + k) % struct.capacity for k in range(struct.count)]
    lines = buffers[f"{key}.line"][order].tolist()
    dirty = buffers[f"{key}.dirty"][order].astype(bool).tolist()
    ready = buffers[f"{key}.ready"][order].tolist()
    buffer._entries.clear()
    buffer._entries.extend(zip(lines, dirty, ready))
    buffer._port_free_at = struct.port_free_at
    stats = buffer.stats
    stats.pushes = struct.pushes
    stats.drains = struct.drains
    stats.overflows = struct.overflows
    stats.peak_occupancy = struct.peak


class SoaGPUSimulator(GPUSimulator):
    """One (workload, configuration) simulation on the SoA replay."""

    ARRAY_FACTORY = SoaCacheArray

    def __init__(
        self,
        config: GPUConfig,
        workload: Workload,
        track_intervals: bool = False,
        time_dilation: float = TIME_DILATION,
        start_time_s: float = 0.0,
    ) -> None:
        """Build the SoA-backed L2 and the standard component set around it.

        Narrower signature than :class:`GPUSimulator` on purpose: the
        features the extra parameters enable (tracers, checkers, pre-built
        L2s, immediate fills) are object-engine-only, and
        :func:`repro.engine.make_simulator` routes them there.
        """
        l2 = build_l2(
            config.l2, track_intervals=track_intervals, tech=config.tech,
            engine="soa",
        )
        super().__init__(
            config,
            workload,
            l2=l2,
            track_intervals=track_intervals,
            time_dilation=time_dilation,
            deferred_l1_fills=True,
            start_time_s=start_time_s,
        )
        #: which replay path the last :meth:`run` took, e.g.
        #: ``"compiled kernel"`` or ``"python: cc not found"``
        self.replay_path: Optional[str] = None

    def run(self) -> SimulationResult:
        """Replay the trace and roll up IPC and L2 power."""
        config = self.config
        trace = self.workload.trace
        outside = (trace.sm < 0) | (trace.sm >= config.num_sms)
        if outside.any():
            bad = int(trace.sm[int(np.argmax(outside))])
            raise SimulationError(
                f"trace SM id {bad} is outside the configured "
                f"{config.num_sms} SMs"
            )
        library, reason = compiled.load()
        blocker = self._kernel_blocker()
        if library is None or blocker is not None:
            self.replay_path = f"python: {blocker or reason}"
            return super().run()
        self.replay_path = reason
        cycle_s = 1.0 / config.core_clock_hz
        return self._roll_up(
            occupancy=compute_occupancy(self.workload.kernel, config),
            cycle_s=cycle_s, **self._run_kernel(library, cycle_s),
        )

    def _kernel_blocker(self) -> Optional[str]:
        """Check the assumptions the kernel makes.

        Raises :class:`ConfigurationError` for a component set the
        ``soa`` engine does not model; returns why the trace must take
        the Python path, or ``None`` when the kernel can run it.
        """
        dram = self.dram
        if dram._line_shift is None or dram.tracer.enabled:
            raise ConfigurationError(
                "the soa engine needs line-interleaved DRAM channels and no "
                "DRAM tracer"
            )
        if not isinstance(self.l2, TwoPartSTTL2) and \
                self.l2.array.write_counter_saturation != 0:
            raise ConfigurationError(
                "the soa engine needs a non-saturating uniform L2 write counter"
            )
        address = self.workload.trace.address
        if address.dtype != np.int64 or int(address.min()) < 0:
            return "trace addresses are not non-negative int64"
        return None

    def _twopart_in(self, buffers: _Buffers, n: int) -> compiled.TwoPart:
        l2 = self.l2
        eng = l2.refresh_engine
        lr_spec, hr_spec = eng.lr_spec, eng.hr_spec
        probe = l2._probe_energy_table
        lr_model, hr_model = l2.lr_model, l2.hr_model
        selector, monitor = l2.selector.stats, l2.monitor.stats
        lr_lines = l2.lr_array.num_lines
        hr_lines = l2.hr_array.num_lines
        ref = compiled.Refresh(
            has_lr=lr_spec is not None,
            lr_retention=lr_spec.retention_s if lr_spec else inf,
            lr_refresh_age=lr_spec.refresh_age_s if lr_spec else inf,
            lr_tick=lr_spec.tick_s if lr_spec else inf,
            hr_refresh_age=hr_spec.refresh_age_s, hr_tick=hr_spec.tick_s,
            next_lr=eng._next_lr_scan, next_hr=eng._next_hr_scan,
            scans=eng.stats.scans, lr_refreshes=eng.stats.lr_refreshes,
            lr_expiries=eng.stats.lr_expiries,
            hr_clean=eng.stats.hr_expirations_clean,
            hr_dirty=eng.stats.hr_expirations_dirty,
        )
        for k, lines in enumerate((lr_lines, lr_lines, hr_lines, hr_lines)):
            ref.act[k] = buffers.zeros(f"act{k}", lines, np.int64)
        led = l2._energy
        track = l2.track_intervals
        return compiled.TwoPart(
            lr=_part_in(buffers, "lr", l2.lr_array),
            hr=_part_in(buffers, "hr", l2.hr_array),
            h2l=_buffer_in(buffers, "h2l", l2.hr_to_lr),
            l2h=_buffer_in(buffers, "l2h", l2.lr_to_hr),
            ref=ref,
            sequential=l2.selector.sequential,
            threshold=l2.monitor.threshold,
            track_intervals=track,
            hr_ret=hr_spec.retention_s,
            lr_w_en=lr_model.data_write_energy,
            lr_r_en=lr_model.data_read_energy,
            lr_w_lat=lr_model.data_array.write_latency,
            lr_r_lat=lr_model.data_array.read_latency,
            hr_w_en=hr_model.data_write_energy,
            hr_r_en=hr_model.data_read_energy,
            hr_w_lat=hr_model.data_array.write_latency,
            hr_r_lat=hr_model.data_array.read_latency,
            hr_fill_en=hr_model.fill_energy,
            lr_refresh_en=(lr_model.data_read_energy
                           + lr_model.data_write_energy),
            tag_lat1=l2._hr_tag_access_latency,
            tag_lat2=2 * l2._hr_tag_access_latency,
            pe_r1=probe[False][1], pe_r2=probe[False][2],
            pe_w1=probe[True][1], pe_w2=probe[True][2],
            demand_j=led.demand_j, fill_j=led.fill_j,
            migration_j=led.migration_j, refresh_j=led.refresh_j,
            data_losses=l2.data_losses, lr_data_writes=l2.lr_data_writes,
            hr_data_writes=l2.hr_data_writes,
            refresh_writes=l2.refresh_writes,
            migrations_to_lr=l2.migrations_to_lr,
            returns_to_hr=l2.returns_to_hr,
            dram_writebacks_total=l2.dram_writebacks_total,
            sel_accesses=selector.accesses,
            sel_first=selector.first_probe_hits,
            sel_second=selector.second_probes,
            mon_writes=monitor.writes_observed,
            mon_migrations=monitor.migrations_triggered,
            intervals=buffers.zeros("intervals", n if track else 0, np.float64),
            intervals_cap=n if track else 0,
        )

    def _twopart_out(self, buffers: _Buffers, t) -> None:
        l2 = self.l2
        _part_out(buffers, "lr", l2.lr_array)
        _part_out(buffers, "hr", l2.hr_array)
        _buffer_out(buffers, "h2l", t.h2l, l2.hr_to_lr)
        _buffer_out(buffers, "l2h", t.l2h, l2.lr_to_hr)
        eng = l2.refresh_engine
        ref = t.ref
        eng._next_lr_scan = ref.next_lr
        eng._next_hr_scan = ref.next_hr
        eng.stats.scans = ref.scans
        eng.stats.lr_refreshes = ref.lr_refreshes
        eng.stats.lr_expiries = ref.lr_expiries
        eng.stats.hr_expirations_clean = ref.hr_clean
        eng.stats.hr_expirations_dirty = ref.hr_dirty
        if ref.swept:
            eng.last_actions = RefreshActions(*(
                buffers[f"act{k}"][:ref.n_act[k]].tolist() for k in range(4)
            ))
        led = l2._energy
        led.demand_j, led.fill_j = t.demand_j, t.fill_j
        led.migration_j, led.refresh_j = t.migration_j, t.refresh_j
        for attr in ("data_losses", "lr_data_writes", "hr_data_writes",
                     "refresh_writes", "migrations_to_lr", "returns_to_hr",
                     "dram_writebacks_total"):
            setattr(l2, attr, getattr(t, attr))
        selector, monitor = l2.selector.stats, l2.monitor.stats
        selector.accesses = t.sel_accesses
        selector.first_probe_hits = t.sel_first
        selector.second_probes = t.sel_second
        monitor.writes_observed = t.mon_writes
        monitor.migrations_triggered = t.mon_migrations
        l2.rewrite_intervals.extend(
            buffers["intervals"][:t.n_intervals].tolist())

    def _uniform_in(self, buffers: _Buffers) -> compiled.Uniform:
        l2 = self.l2
        led = l2._energy
        return compiled.Uniform(
            arr=_part_in(buffers, "main", l2.array),
            w_hit_en=l2._write_hit_energy, r_hit_en=l2._read_hit_energy,
            w_lat=l2._write_latency, r_lat=l2._read_latency,
            probe_en=l2._tag_probe_energy, fill_en=l2._fill_energy,
            demand_j=led.demand_j, fill_j=led.fill_j,
            data_writes=l2.data_writes,
        )

    def _uniform_out(self, buffers: _Buffers, u) -> None:
        l2 = self.l2
        _part_out(buffers, "main", l2.array)
        l2._energy.demand_j, l2._energy.fill_j = u.demand_j, u.fill_j
        l2.data_writes = u.data_writes

    def _run_kernel(self, library, cycle_s: float) -> dict:
        """Copy state in, replay the trace in C, write all state back."""
        trace = self.workload.trace
        n = len(trace)
        S = self.config.num_sms
        noc_rt_cycles = self.noc.round_trip_cycles(
            request_bytes=8, response_bytes=self.config.l2.line_size
        )
        buffers = _Buffers()
        l1 = self.l1s[0]
        entries = l1.mshr.num_entries
        dram = self.dram
        n_banks = self.banks.num_banks
        sim = compiled.Sim(
            n=n, num_sms=S,
            sm=buffers.put("sm", trace.sm, np.int16),
            addr=buffers.put("addr", trace.address, np.int64),
            flags=buffers.put("flags", trace.flags, np.uint8),
            flag_write=FLAG_WRITE, flag_local=FLAG_LOCAL,
            flag_const=FLAG_CONST, flag_texture=FLAG_TEXTURE,
            l1=_geom(l1.array), cst=_geom(self.const_caches[0].array),
            tex=_geom(self.texture_caches[0].array),
            mshr_entries=entries, mshr_max_merged=l1.mshr.max_merged,
            now=self.start_time_s,
            dt=self.workload.kernel.compute_intensity * cycle_s / S,
            time_dilation=self.time_dilation,
            l1_hit_s=L1_HIT_CYCLES * cycle_s, noc_rt_s=noc_rt_cycles * cycle_s,
            cycle_s=cycle_s,
            wait_cap_factor=BANK_WAIT_CAP_FACTOR,
            bank_shift=self.banks._line_shift, bank_mask=self.banks._bank_mask,
            bank_busy=buffers.put("bank_busy", self.banks._busy_until,
                                  np.float64),
            bank_req_v=buffers.zeros("bank_req_v", n_banks, np.int64),
            bank_conf_v=buffers.zeros("bank_conf_v", n_banks, np.int64),
            bank_wait_v=buffers.zeros("bank_wait_v", n_banks, np.float64),
            dram_channels=dram.num_channels,
            dram_line_shift=dram._line_shift, dram_row_size=dram.row_size,
            dram_service=dram.service_time_s,
            dram_base_lat=dram.base_latency_s,
            dram_rowhit_lat=dram.row_hit_latency_s,
            dram_max_wait=dram.max_wait_s,
            dram_busy=buffers.put("dram_busy", dram._busy_until, np.float64),
            dram_busy_s=buffers.put("dram_busy_s", dram._busy_s, np.float64),
            dram_open=buffers.put("dram_open", dram._open_row, np.int64),
            dram_wait_s=dram.stats.total_wait_s,
            sm_counters=buffers.zeros("sm_counters", (S, N_SM_COUNTERS), np.int64),
            pend_line=buffers.zeros("pend_line", S * entries, np.int64),
            pend_merged=buffers.zeros("pend_merged", S * entries, np.int64),
            pend_count=buffers.zeros("pend_count", S, np.int64),
            pend_dirty=buffers.zeros("pend_dirty", S * entries, np.uint8),
            pend_ready=buffers.zeros("pend_ready", S * entries, np.float64),
            min_ready=buffers.zeros("min_ready", S, np.float64),
        )
        twopart = isinstance(self.l2, TwoPartSTTL2)
        if twopart:
            l2_struct = self._twopart_in(buffers, n)
            sim.twopart = ctypes.pointer(l2_struct)
        else:
            l2_struct = self._uniform_in(buffers)
            sim.uniform = ctypes.pointer(l2_struct)

        code = library.repro_run(ctypes.byref(sim))
        if code != 0:
            raise SimulationError(f"the replay kernel failed with code {code}")

        if twopart:
            self._twopart_out(buffers, l2_struct)
        else:
            self._uniform_out(buffers, l2_struct)
        self.banks._busy_until[:] = buffers["bank_busy"].tolist()
        dram._busy_until[:] = buffers["dram_busy"].tolist()
        dram._busy_s[:] = buffers["dram_busy_s"].tolist()
        dram._open_row[:] = buffers["dram_open"].tolist()
        bank_stats = self.banks.stats
        bank_stats.requests += sim.bank_req
        bank_stats.conflicts += sim.bank_conf
        bank_stats.total_wait += sim.bank_wait_sum
        for per, req, conf, wait in zip(
                self.banks.per_bank, buffers["bank_req_v"].tolist(),
                buffers["bank_conf_v"].tolist(),
                buffers["bank_wait_v"].tolist()):
            per.requests += req
            per.conflicts += conf
            per.total_wait += wait
        dram_stats = dram.stats
        dram_stats.reads += sim.n_dram_r
        dram_stats.row_hits += sim.n_dram_rh
        dram_stats.writes += sim.n_dram_w
        dram_stats.total_wait_s = sim.dram_wait_s
        counts = buffers["pend_count"].tolist()
        min_ready = buffers["min_ready"].tolist()
        for sm, counters in enumerate(buffers["sm_counters"].tolist()):
            l1 = self.l1s[sm]
            targets = {
                "l1.array": l1.array.stats, "l1.gpu": l1.gpu_stats,
                "l1.mshr": l1.mshr.stats,
                "const": self.const_caches[sm].array.stats,
                "texture": self.texture_caches[sm].array.stats,
            }
            values = iter(counters)
            for component, fields in SM_COUNTERS:
                stats = targets[component]
                for field in fields:
                    setattr(stats, field, getattr(stats, field) + next(values))
            at = slice(sm * entries, sm * entries + counts[sm])
            lines = buffers["pend_line"][at].tolist()
            l1._pending.update(
                (line, [None if isnan(ready) else ready, dirty])
                for line, ready, dirty in zip(
                    lines, buffers["pend_ready"][at].tolist(),
                    buffers["pend_dirty"][at].astype(bool).tolist())
            )
            l1.mshr._entries.update(
                zip(lines, buffers["pend_merged"][at].tolist()))
            if min_ready[sm] < l1._min_ready:
                l1._min_ready = min_ready[sm]
        self.end_time_s = sim.now
        return {
            "reads": sim.reads,
            "stall_sum_s": sim.stall_sum_s,
            "read_latency_sum_s": sim.read_latency_sum_s,
            "l2_requests": sim.l2_requests,
            "l2_service_sum_s": sim.l2_service_sum_s,
            "dram_writebacks": sim.dram_writebacks,
        }
