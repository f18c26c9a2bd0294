"""Replay engine registry: the ``object`` and ``soa`` backends.

The repository ships two interchangeable simulation engines (selected
with ``--engine`` on the CLI, see docs/engine.md):

``object``
    The reference model — one Python object per cache block/set, plain
    method dispatch everywhere.  Supports every feature: tracing, fault
    injection, invariant checkers, immediate L1 fills, the ``stt-relaxed``
    L2 and externally-built L2 instances.

``soa``
    The batched structure-of-arrays model — flat vectors for tags,
    valid/dirty bits, write counters and retention timestamps — replayed
    by a compiled C kernel (``kernel.c``), or, when no kernel library can
    be built, by the object engine itself (its replay loop and the object
    L2 classes) over the same ``SoaCacheArray`` arrays.
    Byte-identical results to ``object`` on every supported configuration
    on either path.  Unsupported features fall back (see
    :func:`resolve_engine`); :func:`replay_path` says which path runs.

:func:`make_simulator` is the one entry point callers need: it resolves
the requested engine against the feature set actually in use and returns
a ready-to-run simulator.
"""

from __future__ import annotations

from typing import Optional

from repro.config import GPUConfig
from repro.errors import ConfigurationError
from repro.workloads.trace import Workload

#: Engine used when the caller does not ask for one explicitly.
DEFAULT_ENGINE = "soa"

#: Every selectable engine name, reference model first.
ENGINES = ("object", "soa")


def replay_path() -> str:
    """How ``soa`` replays run in this process, and why.

    ``"compiled kernel"``, or ``"python: <reason>"`` when the kernel
    library cannot be built or loaded (e.g. ``"python: cc not found"``).
    """
    from repro.engine import kernel

    library, reason = kernel.load()
    return reason if library is not None else f"python: {reason}"


def _soa_blockers(
    config: GPUConfig,
    l2: Optional[object],
    deferred_l1_fills: bool,
    tracer: Optional[object],
    invariant_checker: Optional[object],
) -> list:
    """Feature names in play that the ``soa`` engine does not implement."""
    blockers = []
    if config.l2.kind == "stt-relaxed":
        blockers.append("stt-relaxed L2")
    if l2 is not None:
        blockers.append("externally-built L2")
    if not deferred_l1_fills:
        blockers.append("immediate L1 fills")
    if tracer is not None and getattr(tracer, "enabled", True):
        blockers.append("tracing")
    if invariant_checker is not None:
        blockers.append("invariant checker")
    return blockers


def resolve_engine(
    config: GPUConfig,
    engine: Optional[str] = None,
    l2: Optional[object] = None,
    deferred_l1_fills: bool = True,
    tracer: Optional[object] = None,
    invariant_checker: Optional[object] = None,
) -> str:
    """Pick the engine to run: the caller's choice, validated, or the default.

    ``engine=None`` means "no preference": the default (``soa``) is used
    when the run's feature set supports it, with a silent fallback to
    ``object`` otherwise — so tracing or fault-injection callers keep
    working unchanged.  An explicit ``engine="soa"`` on an unsupported
    feature set raises :class:`~repro.errors.ConfigurationError` instead
    of silently degrading, and an unknown name always raises.
    """
    if engine is not None and engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    blockers = _soa_blockers(
        config, l2, deferred_l1_fills, tracer, invariant_checker
    )
    if engine == "soa" and blockers:
        raise ConfigurationError(
            "the soa engine does not support: " + ", ".join(blockers)
            + "; use engine='object'"
        )
    if engine is None:
        return "object" if blockers else DEFAULT_ENGINE
    return engine


def build_engine_l2(engine, config, track_intervals=False, tech=None,
                    tracer=None):
    """Build the L2 model for ``engine`` from an :class:`L2Config`.

    Thin indirection over :func:`repro.core.factory.build_l2` so callers
    holding only an engine name need not know the class mapping.
    """
    from repro.areapower.technology import TECH_40NM
    from repro.core.factory import build_l2

    return build_l2(
        config,
        track_intervals=track_intervals,
        tech=tech if tech is not None else TECH_40NM,
        tracer=tracer,
        engine=engine,
    )


def make_simulator(
    config: GPUConfig,
    workload: Workload,
    engine: Optional[str] = None,
    **kwargs,
):
    """Construct the simulator for ``engine`` (resolved per the run's features).

    Accepts the same keyword arguments as
    :class:`repro.gpu.simulator.GPUSimulator`; the ones the ``soa`` engine
    cannot honour (a pre-built ``l2``, ``deferred_l1_fills=False``, an
    enabled ``tracer``, an ``invariant_checker``) force or validate the
    engine choice via :func:`resolve_engine`.
    """
    resolved = resolve_engine(
        config,
        engine=engine,
        l2=kwargs.get("l2"),
        deferred_l1_fills=kwargs.get("deferred_l1_fills", True),
        tracer=kwargs.get("tracer"),
        invariant_checker=kwargs.get("invariant_checker"),
    )
    if resolved == "soa":
        from repro.engine.soa_sim import SoaGPUSimulator

        soa_kwargs = {
            key: value for key, value in kwargs.items()
            if key in ("track_intervals", "time_dilation", "start_time_s")
        }
        return SoaGPUSimulator(config, workload, **soa_kwargs)
    from repro.gpu.simulator import GPUSimulator

    return GPUSimulator(config, workload, **kwargs)
