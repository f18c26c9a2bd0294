"""SoA-backed L2 models: monolithic hot paths over flat state vectors.

:class:`SoaTwoPartL2` and :class:`SoaUniformL2` subclass the object-model
L2 classes, swapping the behavioural array for
:class:`~repro.engine.soa_array.SoaCacheArray` through the
``ARRAY_FACTORY`` seam and overriding only the demand hot path with a
monolithic, allocation-free transcription of the object code.  Everything
rare — misses, migrations, refresh sweeps, snapshots — is *inherited
unchanged* and runs against the SoA arrays through their drop-in API and
write-through block views, which keeps the equivalence surface small
(docs/engine.md explains the proof protocol).

Each inlined path preserves the object model's exact operation order,
including float accumulation order, so results are byte-identical, not
just statistically equivalent.  These ``access`` methods are what the
``soa`` engine's pure-Python replay path calls and what the lockstep
oracle drives; ``kernel.c`` transcribes the same code for the compiled
path.

Unsupported features raise at construction instead of silently diverging:
enabled tracers (per-access trace hooks would have to be replicated in
every inlined path) and fault injectors (per-access fault hooks likewise).
The engine registry (:mod:`repro.engine`) falls back to the object engine
for those configurations.
"""

from __future__ import annotations

from repro.core.interface import L2AccessResult
from repro.core.refresh import RefreshActions, RefreshEngine
from repro.core.twopart import TwoPartSTTL2
from repro.core.uniform import UniformL2
from repro.engine.soa_array import SoaCacheArray
from repro.errors import ConfigurationError, GeometryError


class SoaRefreshEngine(RefreshEngine):
    """Retention sweeps over the flat vectors instead of per-block views.

    A sweep walks every frame of an array; on the SoA arrays the inherited
    sweeps would build one :class:`~repro.engine.soa_array.SoaBlockView`
    per frame and pay a property call per field.  These overrides read the
    vectors directly.  Scan order is identical (sets in index order, ways
    in way order), so the action lists — and therefore the refresh
    decisions the oracle diffs — match the object engine exactly.
    """

    def _sweep_lr(self, now: float, actions: RefreshActions) -> None:
        self.stats.scans += 1
        spec = self.lr_spec
        assert spec is not None  # caller guards
        retention = spec.retention_s
        refresh_age = spec.refresh_age_s
        array = self.lr_array
        rebuild = array.mapper.rebuild
        valid = array.valid_vec
        tags = array.tag_vec
        ins = array.insert_time_vec
        lwt = array.last_write_time_vec
        assoc = array.associativity
        lost = actions.lr_lost
        refresh = actions.lr_refresh
        expiries = refreshes = 0
        slot = 0
        for index in range(array.num_sets):
            for _ in range(assoc):
                if valid[slot]:
                    last = ins[slot]
                    written = lwt[slot]
                    if written > last:
                        last = written
                    age = now - last
                    if age >= retention:
                        lost.append(rebuild(tags[slot], index))
                        expiries += 1
                    elif age >= refresh_age:
                        refresh.append(rebuild(tags[slot], index))
                        refreshes += 1
                slot += 1
        self.stats.lr_expiries += expiries
        self.stats.lr_refreshes += refreshes

    def _sweep_hr(self, now: float, actions: RefreshActions) -> None:
        spec = self.hr_spec
        refresh_age = spec.refresh_age_s
        array = self.hr_array
        rebuild = array.mapper.rebuild
        valid = array.valid_vec
        tags = array.tag_vec
        dirty = array.dirty_vec
        ins = array.insert_time_vec
        lwt = array.last_write_time_vec
        assoc = array.associativity
        drop_dirty = actions.hr_drop_dirty
        drop_clean = actions.hr_drop_clean
        dirty_drops = clean_drops = 0
        slot = 0
        for index in range(array.num_sets):
            for _ in range(assoc):
                if valid[slot]:
                    last = ins[slot]
                    written = lwt[slot]
                    if written > last:
                        last = written
                    if now - last >= refresh_age:
                        address = rebuild(tags[slot], index)
                        if dirty[slot]:
                            drop_dirty.append(address)
                            dirty_drops += 1
                        else:
                            drop_clean.append(address)
                            clean_drops += 1
                slot += 1
        self.stats.hr_expirations_dirty += dirty_drops
        self.stats.hr_expirations_clean += clean_drops


class SoaUniformL2(UniformL2):
    """Uniform (SRAM / naive STT) L2 with a monolithic SoA demand path."""

    ARRAY_FACTORY = SoaCacheArray

    def __init__(self, *args, **kwargs) -> None:
        """Same signature as :class:`UniformL2`; rejects enabled tracers."""
        tracer = kwargs.get("tracer")
        if tracer is not None and tracer.enabled:
            raise ConfigurationError(
                "the soa engine does not support per-access tracing; "
                "use the object engine"
            )
        super().__init__(*args, **kwargs)
        array = self.array
        self._soa_offset_bits = array.mapper.offset_bits
        self._soa_pow2 = array.mapper.pow2_sets
        self._soa_set_bits = array.mapper._set_bits
        self._soa_set_mask = array.mapper._set_mask
        self._soa_num_sets = array.num_sets
        self._soa_assoc = array.associativity

    def dirty_lines(self) -> int:
        """:meth:`UniformL2.dirty_lines`, counted from the flat vectors."""
        return self.array.dirty_count()

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        """Inlined transcription of :meth:`UniformL2.access` over vectors."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        line = address >> self._soa_offset_bits
        if self._soa_pow2:
            tag = line >> self._soa_set_bits
            index = line & self._soa_set_mask
        else:
            tag, index = divmod(line, self._soa_num_sets)
        array = self.array
        way = array.tag_to_way[index].get(tag)
        stats = array.stats
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        if way is not None:
            slot = index * self._soa_assoc + way
            if is_write:
                stats.write_hits += 1
                array.dirty_vec[slot] = True
                array.total_writes_vec[slot] += 1
                array.write_count_vec[slot] += 1  # saturation is 0 here
                array.last_write_time_vec[slot] = now
                array.last_access_time_vec[slot] = now
                array.set_writes_vec[index] += 1
                array.frame_writes_vec[slot] += 1
                energy = self._write_hit_energy
                latency = self._write_latency
                self.data_writes += 1
            else:
                stats.read_hits += 1
                array.total_reads_vec[slot] += 1
                array.last_access_time_vec[slot] = now
                energy = self._read_hit_energy
                latency = self._read_latency
            order = array.lru[index]
            order.remove(way)
            order.append(way)
            self._energy.demand_j += energy
            return L2AccessResult(
                hit=True,
                part="uniform",
                latency_s=latency,
                energy_j=energy,
                dram_writebacks=0,
            )
        # miss: the uniform L2 always allocates (write-allocate array)
        outcome = array._fill(index, tag, now, dirty=is_write)
        writebacks = 1 if outcome.evicted_dirty else 0
        probe = self._tag_probe_energy
        fill = self._fill_energy
        self.data_writes += 1
        self._energy.demand_j += probe
        self._energy.fill_j += fill
        return L2AccessResult(
            hit=False,
            part="miss",
            latency_s=self._read_latency,
            energy_j=probe + fill,
            dram_fetch=True,
            dram_writebacks=writebacks,
        )


class SoaTwoPartL2(TwoPartSTTL2):
    """The paper's two-part L2 with a monolithic SoA demand path.

    ``access`` fuses maintenance gating, the HR/LR locate (with retention
    expiry), the search-selector accounting and the three hit serve paths
    into one function over the flat vectors.  Misses, migrations and due
    refresh sweeps delegate to the inherited object-model methods, which
    operate on the SoA arrays through their compatible API.
    """

    ARRAY_FACTORY = SoaCacheArray

    def __init__(self, *args, **kwargs) -> None:
        """Same signature as :class:`TwoPartSTTL2`; rejects tracers/faults."""
        tracer = kwargs.get("tracer")
        if tracer is not None and tracer.enabled:
            raise ConfigurationError(
                "the soa engine does not support per-access tracing; "
                "use the object engine"
            )
        if kwargs.get("faults") is not None:
            raise ConfigurationError(
                "the soa engine does not support fault injection; "
                "use the object engine"
            )
        super().__init__(*args, **kwargs)

        lr, hr = self.lr_array, self.hr_array
        # geometry scalars (both parts share the line size / offset bits)
        self._soa_offset_bits = hr.mapper.offset_bits
        self._lr_pow2 = lr.mapper.pow2_sets
        self._lr_bits = lr.mapper._set_bits
        self._lr_mask = lr.mapper._set_mask
        self._lr_nsets = lr.num_sets
        self._lr_assoc = lr.associativity
        self._hr_pow2 = hr.mapper.pow2_sets
        self._hr_bits = hr.mapper._set_bits
        self._hr_mask = hr.mapper._set_mask
        self._hr_nsets = hr.num_sets
        self._hr_assoc = hr.associativity
        self._line_low_mask = ~(self.line_size - 1)
        # physics scalars (fixed at construction, hoisted from the models)
        self._lr_w_en = self.lr_model.data_write_energy
        self._lr_r_en = self.lr_model.data_read_energy
        self._lr_w_lat = self.lr_model.data_array.write_latency
        self._lr_r_lat = self.lr_model.data_array.read_latency
        self._hr_w_en = self.hr_model.data_write_energy
        self._hr_r_en = self.hr_model.data_read_energy
        self._hr_w_lat = self.hr_model.data_array.write_latency
        self._hr_r_lat = self.hr_model.data_array.read_latency
        # retention thresholds (None disables LR expiry: SRAM LR part)
        self._lr_ret = None if self.lr_spec is None else self.lr_spec.retention_s
        self._hr_ret = self.hr_spec.retention_s
        # selector / monitor state
        self._sel_stats = self.selector.stats
        self._sequential = self.selector.sequential
        self._mon_stats = self.monitor.stats
        self._threshold = self.monitor.threshold
        self._hr_sat = hr.write_counter_saturation
        # re-home the refresh engine on the flat vectors; freshly built, so
        # its counters and schedule match the one super().__init__ made
        previous = self.refresh_engine
        self.refresh_engine = SoaRefreshEngine(
            lr, hr, self.lr_spec, self.hr_spec,
            tracer=previous.tracer, faults=previous.faults,
        )

    def _migrate_and_write(
        self, line: int, now: float, energy: float, tag_latency: float
    ) -> L2AccessResult:
        """HR write hit above threshold: move the line to LR, write there.

        :meth:`TwoPartSTTL2._migrate_and_write` with the HR demand
        write-hit accounting and the extract inlined over the vectors (the
        caller already located the line in HR); the buffer push, LR fill
        and any LR-eviction return ride the shared methods.
        """
        writebacks = 0
        migration_energy = self._hr_r_en  # read out of HR
        hr = self.hr_array
        lineno = line >> self._soa_offset_bits
        if self._hr_pow2:
            tag = lineno >> self._hr_bits
            index = lineno & self._hr_mask
        else:
            tag, index = divmod(lineno, self._hr_nsets)
        way = hr.tag_to_way[index][tag]
        slot = index * self._hr_assoc + way
        # the HR demand write-hit is accounted before the line leaves
        # (keeps the merged hit/miss statistics exact)
        stats = hr.stats
        stats.writes += 1
        stats.write_hits += 1
        hr.dirty_vec[slot] = True
        hr.total_writes_vec[slot] += 1
        saturate_at = self._hr_sat
        if saturate_at <= 0 or hr.write_count_vec[slot] < saturate_at:
            hr.write_count_vec[slot] += 1
        hr.last_write_time_vec[slot] = now
        hr.last_access_time_vec[slot] = now
        hr.set_writes_vec[index] += 1
        hr.frame_writes_vec[slot] += 1
        order = hr.lru[index]
        order.remove(way)
        order.append(way)
        hr._reset_slot(index, way)  # extract: no eviction/invalidation stats
        writebacks += self._buffer_push(self.hr_to_lr, line, True, now)
        self.migrations_to_lr += 1
        fill = self.lr_array.fill(line, now, dirty=True)
        migration_energy += self._lr_w_en
        self.lr_data_writes += 1
        if fill.evicted_address is not None:
            writebacks += self._return_to_hr(
                fill.evicted_address, fill.evicted_dirty, now
            )
        self._energy.demand_j += energy
        self._energy.migration_j += migration_energy
        return L2AccessResult(
            hit=True, part="lr",
            latency_s=tag_latency + self._lr_w_lat,
            energy_j=energy + migration_energy,
            dram_writebacks=writebacks,
            migrated=True,
        )

    def dirty_lines(self) -> int:
        """:meth:`TwoPartSTTL2.dirty_lines`, counted from the flat vectors."""
        return self.lr_array.dirty_count() + self.hr_array.dirty_count()

    def maintenance(self, now: float) -> int:
        """Drain buffers and run due retention sweeps; returns write-backs.

        Hot path: both buffer drains are inlined deque pops and the
        due-check is two float compares.  When a sweep *is* due (rare —
        once per retention tick), the inherited object-model maintenance
        runs unchanged over the SoA arrays' block views.
        """
        engine = self.refresh_engine
        if now >= engine._next_lr_scan or now >= engine._next_hr_scan:
            return TwoPartSTTL2.maintenance(self, now)
        buffer = self.hr_to_lr
        entries = buffer._entries
        if entries:
            stats = buffer.stats
            while entries and entries[0][2] <= now:
                entries.popleft()
                stats.drains += 1
        buffer = self.lr_to_hr
        entries = buffer._entries
        if entries:
            stats = buffer.stats
            while entries and entries[0][2] <= now:
                entries.popleft()
                stats.drains += 1
        return 0

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        """Monolithic transcription of :meth:`TwoPartSTTL2.access`."""
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        line = address & self._line_low_mask
        writebacks = self.maintenance(now)
        lineno = line >> self._soa_offset_bits

        # --- locate (with access-path retention expiry) -------------------
        part = None
        lr = self.lr_array
        if self._lr_pow2:
            tag = lineno >> self._lr_bits
            index = lineno & self._lr_mask
        else:
            tag, index = divmod(lineno, self._lr_nsets)
        way = lr.tag_to_way[index].get(tag)
        if way is not None:
            slot = index * self._lr_assoc + way
            retention = self._lr_ret
            if retention is not None:
                last = lr.insert_time_vec[slot]
                written = lr.last_write_time_vec[slot]
                if written > last:
                    last = written
                if now - last >= retention:
                    if lr.dirty_vec[slot]:
                        self.data_losses += 1
                    lr.invalidate(line)
                    way = None
            if way is not None:
                part = "lr"
        if part is None:
            hr = self.hr_array
            if self._hr_pow2:
                hr_tag = lineno >> self._hr_bits
                hr_index = lineno & self._hr_mask
            else:
                hr_tag, hr_index = divmod(lineno, self._hr_nsets)
            hr_way = hr.tag_to_way[hr_index].get(hr_tag)
            if hr_way is not None:
                hr_slot = hr_index * self._hr_assoc + hr_way
                last = hr.insert_time_vec[hr_slot]
                written = hr.last_write_time_vec[hr_slot]
                if written > last:
                    last = written
                if now - last >= self._hr_ret:
                    if hr.dirty_vec[hr_slot]:
                        self.data_losses += 1
                    hr.invalidate(line)
                else:
                    part = "hr"

        # --- search-selector accounting (sequential or parallel) ----------
        selector = self._sel_stats
        selector.accesses += 1
        first_hit = part == ("lr" if is_write else "hr")
        if not self._sequential:
            if first_hit:
                selector.first_probe_hits += 1
            selector.second_probes += 1
            probes = 2
            tag_latency = self._hr_tag_access_latency
        elif first_hit:
            selector.first_probe_hits += 1
            probes = 1
            tag_latency = self._hr_tag_access_latency
        else:
            selector.second_probes += 1
            probes = 2
            tag_latency = 2 * self._hr_tag_access_latency
        energy = self._probe_energy_table[is_write][1 if probes < 2 else 2]

        # --- serve --------------------------------------------------------
        if part == "lr":
            stats = lr.stats
            if is_write:
                if self.track_intervals:
                    written = lr.last_write_time_vec[slot]
                    if written > 0:
                        self.rewrite_intervals.append(now - written)
                stats.writes += 1
                stats.write_hits += 1
                lr.dirty_vec[slot] = True
                lr.total_writes_vec[slot] += 1
                lr.write_count_vec[slot] += 1  # LR array never saturates
                lr.last_write_time_vec[slot] = now
                lr.last_access_time_vec[slot] = now
                lr.set_writes_vec[index] += 1
                lr.frame_writes_vec[slot] += 1
                order = lr.lru[index]
                order.remove(way)
                order.append(way)
                energy += self._lr_w_en
                latency = tag_latency + self._lr_w_lat
                self.lr_data_writes += 1
            else:
                stats.reads += 1
                stats.read_hits += 1
                lr.total_reads_vec[slot] += 1
                lr.last_access_time_vec[slot] = now
                order = lr.lru[index]
                order.remove(way)
                order.append(way)
                energy += self._lr_r_en
                latency = tag_latency + self._lr_r_lat
            self._energy.demand_j += energy
            result = L2AccessResult(
                hit=True, part="lr", latency_s=latency, energy_j=energy
            )
        elif part == "hr":
            stats = hr.stats
            if not is_write:
                stats.reads += 1
                stats.read_hits += 1
                hr.total_reads_vec[hr_slot] += 1
                hr.last_access_time_vec[hr_slot] = now
                order = hr.lru[hr_index]
                order.remove(hr_way)
                order.append(hr_way)
                energy += self._hr_r_en
                self._energy.demand_j += energy
                result = L2AccessResult(
                    hit=True, part="hr",
                    latency_s=tag_latency + self._hr_r_lat,
                    energy_j=energy,
                )
            else:
                monitor = self._mon_stats
                monitor.writes_observed += 1
                if hr.write_count_vec[hr_slot] >= self._threshold:
                    monitor.migrations_triggered += 1
                    result = self._migrate_and_write(line, now, energy, tag_latency)
                else:
                    stats.writes += 1
                    stats.write_hits += 1
                    hr.dirty_vec[hr_slot] = True
                    hr.total_writes_vec[hr_slot] += 1
                    saturate_at = self._hr_sat
                    if saturate_at <= 0 or hr.write_count_vec[hr_slot] < saturate_at:
                        hr.write_count_vec[hr_slot] += 1
                    hr.last_write_time_vec[hr_slot] = now
                    hr.last_access_time_vec[hr_slot] = now
                    hr.set_writes_vec[hr_index] += 1
                    hr.frame_writes_vec[hr_slot] += 1
                    order = hr.lru[hr_index]
                    order.remove(hr_way)
                    order.append(hr_way)
                    energy += self._hr_w_en
                    latency = tag_latency + self._hr_w_lat
                    self.hr_data_writes += 1
                    self._energy.demand_j += energy
                    result = L2AccessResult(
                        hit=True, part="hr", latency_s=latency, energy_j=energy
                    )
        else:
            result = self._serve_miss(line, is_write, now, energy, tag_latency)
        result.dram_writebacks += writebacks
        result.probes = probes
        return result
