"""Replay micro-benchmark harness: throughput on pinned scenarios.

The repo's north star is a simulator that replays traces "as fast as the
hardware allows", so replay throughput is a first-class, *recorded* metric:
this module times the trace-replay hot path (``GPUSimulator.run``) on a
pinned set of (workload, config, trace length, seed) scenarios, emits a
schema-validated JSON document (``BENCH_replay.json`` at the repo root is
the committed baseline), and compares a fresh run against a baseline with a
configurable regression threshold.  ``scripts/bench_replay.py`` is the CLI.

Three properties make the numbers trustworthy:

* **Pinned inputs** — scenarios fix workload, configuration, trace length
  and seed, so two runs replay byte-identical request streams.
* **Correctness digest** — every scenario records the SHA-256 of its
  canonical :class:`~repro.gpu.metrics.SimulationResult`, and repeats must
  agree; a performance change that alters *results* is a failure, not a
  speedup (see ``docs/performance.md`` for the policy).
* **Host metadata** — platform/python/cpu info rides along so cross-host
  comparisons can be discounted appropriately.

Document schema (``BENCH_SCHEMA_VERSION = 1``)::

    {
      "schema_version": 1,
      "kind": "replay-bench",
      "quick": false,
      "host": {"platform": ..., "python": ..., "machine": ..., "cpus": N},
      "scenarios": [
        {"workload", "config", "trace_length", "seed", "engine", "repeats",
         "best_wall_s", "mean_wall_s", "requests_per_s", "result_sha256"},
        ...
      ],
      "experiments": [{"experiment", "trace_length", "wall_s"}, ...],  # optional
      "reference": {...}   # optional: the before/after record the repo commits
    }
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.config import all_configs
from repro.errors import ReproError
from repro.io import canonical_json, simulation_result_to_dict, write_json_atomic
from repro.workloads import build_workload

#: Schema version stamped into every bench document this module writes.
BENCH_SCHEMA_VERSION = 1

#: Document ``kind`` marker (guards against validating the wrong JSON file).
BENCH_KIND = "replay-bench"

#: Default throughput-regression threshold (fraction of baseline, 0.2 = 20%).
DEFAULT_REGRESSION_THRESHOLD = 0.2


class BenchmarkError(ReproError):
    """A benchmark document failed validation or a comparison failed."""


@dataclass(frozen=True)
class BenchScenario:
    """One pinned replay scenario: fixed workload, config, length and seed."""

    workload: str
    config: str
    trace_length: int
    seed: int = 0

    @property
    def key(self) -> str:
        """Stable identifier used to match scenarios across documents."""
        return f"{self.workload}/{self.config}/{self.trace_length}/s{self.seed}"


#: The pinned full benchmark set: the headline two-part config on the most
#: write-skewed benchmark, plus both uniform baselines so every L2 access
#: path (two-part, SRAM, naive STT) is covered.
PINNED_SCENARIOS: Sequence[BenchScenario] = (
    BenchScenario("bfs", "C1", 30000, 0),
    BenchScenario("backprop", "stt-baseline", 30000, 0),
    BenchScenario("stencil", "baseline", 30000, 0),
)

#: Short variants for CI smoke runs (same access paths, ~4x less work).
QUICK_SCENARIOS: Sequence[BenchScenario] = (
    BenchScenario("bfs", "C1", 8000, 0),
    BenchScenario("stencil", "baseline", 8000, 0),
)

#: Million-access scale scenarios: pin result digests at a trace length far
#: beyond the experiment battery's.  Timed with fewer repeats (see
#: :func:`run_bench`).
SCALE_SCENARIOS: Sequence[BenchScenario] = (
    BenchScenario("bfs", "C1", 1200000, 0),
)


def host_metadata() -> Dict[str, Any]:
    """Machine context recorded alongside the numbers."""
    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def result_digest(result: Any) -> str:
    """SHA-256 of a simulation result's canonical JSON rendering."""
    payload = simulation_result_to_dict(result)
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def run_scenario(
    scenario: BenchScenario,
    repeats: int = 3,
    engine: str = "object",
) -> Dict[str, Any]:
    """Time one pinned scenario on one engine; returns its JSON-safe record.

    The workload is generated once (trace generation is not the replay hot
    path); each repeat builds a fresh simulator — replay mutates cache
    state, so reuse would measure a warm, different simulation.  The best
    wall time is reported (least scheduler noise); all repeats must produce
    the same result digest or :class:`BenchmarkError` is raised.
    ``engine`` selects the replay backend (``"object"`` or ``"soa"``, see
    docs/engine.md); both must produce identical digests on the pinned
    scenarios, which is exactly what comparing their records proves.
    """
    from repro.engine import make_simulator

    if repeats < 1:
        raise BenchmarkError(f"repeats must be >= 1, got {repeats}")
    configs = all_configs()
    if scenario.config not in configs:
        raise BenchmarkError(f"unknown config {scenario.config!r}")
    config = configs[scenario.config]
    workload = build_workload(
        scenario.workload,
        num_accesses=scenario.trace_length,
        num_sms=config.num_sms,
        seed=scenario.seed,
    )
    walls: List[float] = []
    digests: List[str] = []
    for _ in range(repeats):
        simulator = make_simulator(config, workload, engine=engine)
        start = time.perf_counter()
        result = simulator.run()
        walls.append(time.perf_counter() - start)
        digests.append(result_digest(result))
    if len(set(digests)) != 1:
        raise BenchmarkError(
            f"{scenario.key}: repeats disagree on results ({sorted(set(digests))})"
        )
    best = min(walls)
    return {
        "workload": scenario.workload,
        "config": scenario.config,
        "trace_length": scenario.trace_length,
        "seed": scenario.seed,
        "engine": engine,
        "repeats": repeats,
        "best_wall_s": best,
        "mean_wall_s": sum(walls) / len(walls),
        "requests_per_s": scenario.trace_length / best,
        "result_sha256": digests[0],
    }


def time_experiments(
    names: Iterable[str], trace_length: int = 15000
) -> List[Dict[str, Any]]:
    """Wall-time each named experiment serially (no cache) at ``trace_length``.

    Backs the EXPERIMENTS.md wall-time table; not part of ``--quick`` runs.
    """
    from repro.experiments.runner import run_experiment

    records = []
    for name in names:
        start = time.perf_counter()
        run_experiment(name, trace_length=trace_length, use_cache=False)
        records.append({
            "experiment": name,
            "trace_length": trace_length,
            "wall_s": time.perf_counter() - start,
        })
    return records


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    scenarios: Optional[Sequence[BenchScenario]] = None,
    experiments: Optional[Iterable[str]] = None,
    engines: Sequence[str] = ("object",),
) -> Dict[str, Any]:
    """Run the full (or quick) pinned benchmark; returns the bench document.

    ``engines`` lists the replay backends to time; every scenario is run
    once per engine, in engine order.  The default times only the
    reference ``object`` engine, matching pre-engine bench documents;
    pass ``("object", "soa")`` to record the committed per-engine
    comparison (see docs/performance.md).
    """
    if scenarios is None:
        scenarios = QUICK_SCENARIOS if quick else PINNED_SCENARIOS
    if repeats is None:
        repeats = 2 if quick else 3
    document: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "quick": quick,
        "host": host_metadata(),
        "scenarios": [
            run_scenario(s, repeats=repeats, engine=engine)
            for engine in engines
            for s in scenarios
        ],
    }
    if experiments is not None:
        document["experiments"] = time_experiments(experiments)
    return document


#: Required keys (and types) of one scenario record.
_SCENARIO_FIELDS = {
    "workload": str,
    "config": str,
    "trace_length": int,
    "seed": int,
    "repeats": int,
    "best_wall_s": (int, float),
    "mean_wall_s": (int, float),
    "requests_per_s": (int, float),
    "result_sha256": str,
}


def validate_bench(document: Mapping[str, Any]) -> None:
    """Validate a bench document; raises :class:`BenchmarkError` on problems."""
    if not isinstance(document, Mapping):
        raise BenchmarkError(f"bench document must be an object, got {type(document)}")
    if document.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise BenchmarkError(
            f"unsupported bench schema {document.get('schema_version')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    if document.get("kind") != BENCH_KIND:
        raise BenchmarkError(f"not a replay bench document: kind={document.get('kind')!r}")
    host = document.get("host")
    if not isinstance(host, Mapping) or not {"platform", "python", "cpus"} <= set(host):
        raise BenchmarkError(f"malformed host metadata: {host!r}")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise BenchmarkError("bench document needs a non-empty scenarios list")
    for record in scenarios:
        for name, types in _SCENARIO_FIELDS.items():
            if name not in record:
                raise BenchmarkError(f"scenario missing field {name!r}: {record!r}")
            if not isinstance(record[name], types) or isinstance(record[name], bool):
                raise BenchmarkError(
                    f"scenario field {name!r} has wrong type: {record[name]!r}"
                )
        if record["requests_per_s"] <= 0 or record["best_wall_s"] <= 0:
            raise BenchmarkError(f"non-positive timing in scenario: {record!r}")
        # optional: absent in pre-engine documents, meaning "object"
        if not isinstance(record.get("engine", "object"), str):
            raise BenchmarkError(
                f"scenario field 'engine' has wrong type: {record['engine']!r}"
            )


def _scenario_key(record: Mapping[str, Any]) -> str:
    key = (
        f"{record['workload']}/{record['config']}/"
        f"{record['trace_length']}/s{record['seed']}"
    )
    # pre-engine documents carry no engine field; suffix only non-default
    # engines so old and new object-engine records match each other
    engine = record.get("engine", "object")
    if engine != "object":
        key += f"/{engine}"
    return key


def compare_bench(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> Dict[str, Any]:
    """Compare a fresh bench run against a baseline document.

    Scenarios are matched on (workload, config, trace_length, seed); a
    matched scenario *regresses* when its throughput falls below
    ``(1 - threshold)`` of the baseline, and *changes results* when its
    result digest differs (pinned inputs must give identical outputs).
    Returns a JSON-safe report with per-scenario ratios and the two
    verdict flags; raising is left to the caller (the CLI exits non-zero).
    """
    if not 0 <= threshold < 1:
        raise BenchmarkError(f"threshold must be in [0, 1), got {threshold}")
    validate_bench(current)
    validate_bench(baseline)
    base_by_key = {_scenario_key(r): r for r in baseline["scenarios"]}
    matched: Dict[str, Any] = {}
    regressed: List[str] = []
    changed: List[str] = []
    for record in current["scenarios"]:
        key = _scenario_key(record)
        base = base_by_key.get(key)
        if base is None:
            continue
        ratio = record["requests_per_s"] / base["requests_per_s"]
        entry = {
            "baseline_rps": base["requests_per_s"],
            "current_rps": record["requests_per_s"],
            "ratio": ratio,
            "digest_match": record["result_sha256"] == base["result_sha256"],
        }
        matched[key] = entry
        if ratio < 1.0 - threshold:
            regressed.append(key)
        if not entry["digest_match"]:
            changed.append(key)
    return {
        "threshold": threshold,
        "matched": matched,
        "unmatched_current": sorted(
            _scenario_key(r) for r in current["scenarios"]
            if _scenario_key(r) not in base_by_key
        ),
        "regressed": sorted(regressed),
        "results_changed": sorted(changed),
        "ok": not regressed and not changed,
    }


def write_bench(document: Mapping[str, Any], path) -> None:
    """Validate and atomically write a bench document as JSON."""
    validate_bench(document)
    write_json_atomic(dict(document), path)
