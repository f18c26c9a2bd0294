"""Synthetic trace generator.

Turns a :class:`~repro.workloads.profiles.BenchmarkProfile` into a
:class:`~repro.workloads.trace.Trace`: a time-ordered stream of (SM,
address, read/write, global/local) records at L1-line (128 B) granularity.

Structure of a generated trace:

* every access draws a *kind* from the profile's mix (streaming read/write,
  hot-data read, WWS write/read, local read/write);
* the trace is divided into *phases* (the paper's grids); the WWS hot set
  re-randomizes each phase, and the tail of each phase is an optional burst
  of sequential output writes ("grids have a small amount of writes
  happening usually at the end of their execution");
* address regions are disjoint per segment, local data is additionally
  partitioned per SM.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.patterns import (
    HotSegment,
    LocalSegment,
    PhasedWriteSegment,
    StreamingSegment,
)
from repro.workloads.trace import (
    FLAG_CONST,
    FLAG_LOCAL,
    FLAG_TEXTURE,
    FLAG_WRITE,
    Trace,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.workloads.profiles import BenchmarkProfile

#: L1-line granularity of generated addresses.
ACCESS_GRANULARITY = 128

#: Disjoint address regions (1 GB apart).
REGION_STRIDE = 1 << 30
STREAM_BASE = 0 * REGION_STRIDE
HOT_BASE = 1 * REGION_STRIDE
WWS_BASE = 2 * REGION_STRIDE
LOCAL_BASE = 3 * REGION_STRIDE
OUTPUT_BASE = 4 * REGION_STRIDE
CONST_BASE = 5 * REGION_STRIDE
TEXTURE_BASE = 6 * REGION_STRIDE

# access-kind indices for the categorical draw
_KINDS = (
    "stream_read",
    "stream_write",
    "hot_read",
    "wws_write",
    "wws_read",
    "local_read",
    "local_write",
    "const_read",
    "texture_read",
)


class TraceGenerator:
    """Generates traces for one profile (reusable across lengths/seeds)."""

    def __init__(self, profile: "BenchmarkProfile") -> None:
        self.profile = profile
        mix = profile.mix_vector()
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{profile.name}: access mix sums to {sum(mix)}, expected 1"
            )
        self._mix = np.asarray(mix, dtype=np.float64)

    def generate(self, num_accesses: int, num_sms: int = 15, seed: int = 0) -> Trace:
        """Generate a trace of ``num_accesses`` records."""
        if num_accesses <= 0:
            raise ConfigurationError("trace length must be positive")
        if num_sms <= 0:
            raise ConfigurationError("need at least one SM")
        p = self.profile
        rng = np.random.default_rng(seed)

        kinds = rng.choice(len(_KINDS), size=num_accesses, p=self._mix)
        sms = rng.integers(0, num_sms, size=num_accesses, dtype=np.int16)
        addresses = np.zeros(num_accesses, dtype=np.int64)
        flags = np.zeros(num_accesses, dtype=np.uint8)

        # fresh segment state per generate() call => reproducible traces
        stream = StreamingSegment(p.stream_lines)
        hot = HotSegment(
            p.hot_lines, alpha=p.hot_alpha, scatter=p.hot_scatter,
            permutation_seed=seed + 1,
        )
        wws = PhasedWriteSegment(p.wws_lines, alpha=p.wws_alpha,
                                 permutation_seed=seed + 2)
        local = LocalSegment(p.local_lines, window_lines=p.local_window_lines)
        const = HotSegment(p.const_lines, alpha=1.0, permutation_seed=seed + 3)
        texture = HotSegment(
            p.texture_lines, alpha=p.texture_alpha, permutation_seed=seed + 4
        )

        phase_len = max(1, int(num_accesses * p.phase_fraction))
        burst_len = int(phase_len * p.burst_fraction)
        # the burst tail of one phase, repeated over the whole trace
        in_burst = np.resize(
            np.arange(phase_len) >= phase_len - burst_len, num_accesses
        )

        # Positions of each kind outside the bursts, found in one pass: a
        # stable sort keeps every kind's positions in trace order, so each
        # segment fills the same records, in the same order, as a boolean
        # mask per kind would select.  Burst records sort last, as kind
        # len(_KINDS).
        drawn = np.where(in_burst, len(_KINDS), kinds).astype(np.int8)
        order = np.argsort(drawn, kind="stable")
        edges = np.searchsorted(drawn[order], np.arange(len(_KINDS) + 1))
        positions = {
            kind: order[edges[k]:edges[k + 1]] for k, kind in enumerate(_KINDS)
        }

        # --- streaming ------------------------------------------------
        for kind, is_write in (("stream_read", False), ("stream_write", True)):
            at = positions[kind]
            if len(at):
                lines = stream.draw(rng, len(at))
                addresses[at] = STREAM_BASE + lines * ACCESS_GRANULARITY
                if is_write:
                    flags[at] |= FLAG_WRITE

        # --- hot read-mostly data ------------------------------------------
        at = positions["hot_read"]
        if len(at):
            lines = hot.draw(rng, len(at))
            addresses[at] = HOT_BASE + lines * ACCESS_GRANULARITY

        # --- write working set (phase-aware) --------------------------------
        for kind, is_write in (("wws_write", True), ("wws_read", False)):
            kind_at = positions[kind]
            # positions ascend, so each phase is one contiguous run
            phase_of = kind_at // phase_len
            phases, starts = np.unique(phase_of, return_index=True)
            for phase, at in zip(phases.tolist(), np.split(kind_at, starts[1:])):
                wws.start_phase(phase)
                lines = wws.draw(rng, len(at))
                base = WWS_BASE
                if p.wws_private:
                    base = WWS_BASE + sms[at].astype(np.int64) * (
                        p.wws_lines * ACCESS_GRANULARITY
                    )
                addresses[at] = base + lines * ACCESS_GRANULARITY
                if is_write:
                    flags[at] |= FLAG_WRITE

        # --- local (per-thread) data ---------------------------------------
        for kind, is_write in (("local_read", False), ("local_write", True)):
            at = positions[kind]
            if len(at):
                lines = local.draw(rng, len(at))
                base = LOCAL_BASE + sms[at].astype(np.int64) * (
                    p.local_lines * ACCESS_GRANULARITY
                )
                addresses[at] = base + lines * ACCESS_GRANULARITY
                flags[at] |= FLAG_LOCAL
                if is_write:
                    flags[at] |= FLAG_WRITE

        # --- constant / texture reads (served by dedicated RO caches) -------
        for kind, segment, base, flag in (
            ("const_read", const, CONST_BASE, FLAG_CONST),
            ("texture_read", texture, TEXTURE_BASE, FLAG_TEXTURE),
        ):
            at = positions[kind]
            if len(at):
                lines = segment.draw(rng, len(at))
                addresses[at] = base + lines * ACCESS_GRANULARITY
                flags[at] |= flag

        # --- end-of-phase output bursts -------------------------------------
        at = np.flatnonzero(in_burst)
        if len(at):
            out_lines = np.arange(len(at)) % max(1, p.output_lines)
            addresses[at] = OUTPUT_BASE + out_lines * ACCESS_GRANULARITY
            flags[at] |= FLAG_WRITE

        return Trace(sms, addresses, flags)
