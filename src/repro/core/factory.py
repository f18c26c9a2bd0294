"""Build any of the Table 2 L2 organizations from an :class:`L2Config`."""

from __future__ import annotations

from typing import Optional

from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.cache.array import SetAssociativeCache
from repro.config import L2Config
from repro.core.interface import L2Interface
from repro.core.relaxed import RelaxedUniformL2
from repro.core.twopart import TwoPartSTTL2
from repro.core.uniform import UniformL2
from repro.errors import ConfigurationError
from repro.tracing import TraceCollector


def build_l2(
    config: L2Config,
    track_intervals: bool = False,
    tech: TechnologyNode = TECH_40NM,
    tracer: Optional[TraceCollector] = None,
    engine: str = "object",
) -> L2Interface:
    """Instantiate the L2 described by ``config`` at technology ``tech``.

    ``track_intervals`` enables LR rewrite-interval recording (Fig. 6); it
    costs memory proportional to the write count, so it is off by default.
    ``tracer`` (a :class:`~repro.tracing.TraceCollector`) threads the
    observability layer through the built cache and its subcomponents;
    ``None`` keeps every instrumentation site on the shared no-op
    collector.  ``engine`` picks the cache arrays behind the same L2
    classes: ``"object"`` (one object per block) or ``"soa"`` (the flat
    :class:`~repro.engine.soa_array.SoaCacheArray`, see docs/engine.md);
    both produce byte-identical results.  ``"soa"`` rejects an enabled
    tracer and the ``stt-relaxed`` kind (fault injectors never reach this
    factory: :mod:`repro.faults` builds its own object-engine L2).
    """
    if engine == "object":
        array_factory = SetAssociativeCache
    elif engine == "soa":
        # imported lazily: repro.engine depends on this module
        from repro.engine.soa_array import SoaCacheArray

        if config.kind == "stt-relaxed":
            raise ConfigurationError(
                "the soa engine does not support the stt-relaxed L2; "
                "use engine='object'"
            )
        if tracer is not None and tracer.enabled:
            raise ConfigurationError(
                "the soa engine does not support per-access tracing; "
                "use the object engine"
            )
        array_factory = SoaCacheArray
    else:
        raise ConfigurationError(f"unknown engine {engine!r}")
    if config.kind == "sram":
        return UniformL2(
            config.main.capacity_bytes,
            config.main.associativity,
            config.main.line_size,
            technology="sram",
            tech=tech,
            tracer=tracer,
            array_factory=array_factory,
        )
    if config.kind == "stt":
        return UniformL2(
            config.main.capacity_bytes,
            config.main.associativity,
            config.main.line_size,
            technology="stt",
            tech=tech,
            early_write_termination=config.early_write_termination,
            tracer=tracer,
            array_factory=array_factory,
        )
    if config.kind == "stt-relaxed":
        return RelaxedUniformL2(
            config.main.capacity_bytes,
            config.main.associativity,
            config.main.line_size,
            retention_s=config.hr_retention_s,
            tech=tech,
            early_write_termination=config.early_write_termination,
            tracer=tracer,
        )
    if config.kind == "twopart":
        assert config.lr is not None  # validated by L2Config
        return TwoPartSTTL2(
            hr_capacity_bytes=config.main.capacity_bytes,
            hr_associativity=config.main.associativity,
            lr_capacity_bytes=config.lr.capacity_bytes,
            lr_associativity=config.lr.associativity,
            line_size=config.main.line_size,
            write_threshold=config.write_threshold,
            hr_retention_s=config.hr_retention_s,
            lr_retention_s=config.lr_retention_s,
            buffer_lines=config.migration_buffer_lines,
            sequential_search=config.sequential_search,
            tech=tech,
            track_intervals=track_intervals,
            early_write_termination=config.early_write_termination,
            lr_technology=config.lr_technology,
            tracer=tracer,
            array_factory=array_factory,
        )
    raise ConfigurationError(f"unknown L2 kind {config.kind!r}")
