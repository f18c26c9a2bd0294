"""The ``replay`` workload: long single-simulation replays, one process.

Each operation is what ``repro.simulate`` does for one (benchmark,
config) pair, plus the digest a caller takes of the result: generate the
trace, build the ``soa`` simulator, run it, digest the result.  Every
operation starts cold (fresh trace, fresh simulator).  The scenario set
covers every L2 access path and both write extremes:

* lbm/C1 and lbm/stt-baseline -- write fraction 0.45, the LR and
  migration heavy two-part path and the naive STT-RAM path;
* nn/C2 and nn/baseline -- write fraction 0.05, the HR read path and
  the SRAM path;
* bfs/C1 and stencil/C3 -- the paper's headline region-4 case and a
  region-1 case.

At this length the replay loop (``engine``/``core``) is about 95% of the
wall time, so this workload is where a faster replay shows.  ``op_s`` is
the mean over the scenarios of their median time, scaled to the
reference host speed.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Dict, List, Tuple

from perfbench.common import Result, Spans, digest, run_scaled, timed_probed

#: (benchmark, config) pairs replayed each round, in order.
SCENARIOS: Tuple[Tuple[str, str], ...] = (
    ("lbm", "C1"),
    ("lbm", "stt-baseline"),
    ("nn", "C2"),
    ("nn", "baseline"),
    ("bfs", "C1"),
    ("stencil", "C3"),
)

#: Trace accesses per replay.
LENGTH = 100_000


def scenario_name(benchmark: str, config: str) -> str:
    """The scenario label used in digests and failure reports."""
    return f"{benchmark}/{config}"


def replay_once(benchmark: str, config_name: str, length: int, seed: int,
                spans: Spans, op: str):
    """One cold generate -> build -> run -> digest; returns (result, digest)."""
    from repro.config import all_configs
    from repro.engine import make_simulator
    from repro.io import simulation_result_to_dict
    from repro.workloads.suite import build_workload

    config = all_configs()[config_name]
    with spans.span("replay.op", op):
        with spans.span("workloads.generate"):
            workload = build_workload(benchmark, num_accesses=length,
                                      num_sms=config.num_sms, seed=seed)
        with spans.span("engine.build"):
            simulator = make_simulator(config, workload, engine="soa")
        with spans.span("engine.run"):
            result = simulator.run()
        with spans.span("io.digest"):
            result_digest = digest(simulation_result_to_dict(result))
    return result, result_digest


def warm_up() -> None:
    """Import every module a replay touches and run each L2 path once."""
    spans = Spans(False)
    for benchmark, config in (("nn", "C1"), ("nn", "baseline"),
                              ("nn", "stt-baseline")):
        replay_once(benchmark, config, 2000, 0, spans, "warm-up")


def measure(seconds: float, seed: int, spans: Spans, length: int = LENGTH,
            scenarios=SCENARIOS) -> Dict:
    """Replay the scenario set in rounds until ``seconds`` have passed.

    Always completes at least one round, and never starts a round after
    the deadline.  Returns per-scenario raw wall times, the host speed
    reading before each replay (see :func:`perfbench.common.run_scaled`),
    digests, the last result of each scenario and each round's mean raw
    seconds per operation.
    """
    raw_times: Dict[str, List[float]] = {scenario_name(*s): [] for s in scenarios}
    digests: Dict[str, List[str]] = {name: [] for name in raw_times}
    results = {}
    round_ops: List[float] = []
    probes: List[float] = []
    deadline = time.perf_counter() + seconds
    while not round_ops or time.perf_counter() < deadline:
        round_time = 0.0
        for benchmark, config in scenarios:
            name = scenario_name(benchmark, config)
            (result, result_digest), raw, probe = timed_probed(
                replay_once, benchmark, config, length, seed, spans,
                f"r{len(round_ops)}:{name}")
            round_time += raw
            raw_times[name].append(raw)
            probes.append(probe)
            digests[name].append(result_digest)
            results[name] = result
        round_ops.append(round_time / len(scenarios))
    return {"raw_times": raw_times, "digests": digests, "results": results,
            "round_ops": round_ops, "probes": probes}


def raw_op_seconds(run: Dict) -> float:
    """Raw seconds per operation: the mean over scenarios of their median."""
    medians = [median(t) for t in run["raw_times"].values()]
    return sum(medians) / len(medians)


def op_seconds(run: Dict) -> float:
    """:func:`raw_op_seconds` scaled to the reference host speed."""
    return run_scaled(raw_op_seconds(run), run["probes"])


def check_digests(result: Result, run: Dict, pinned: Dict[str, str]) -> None:
    """Every replay must give its pinned digest (or agree with its repeats)."""
    for name, observed in run["digests"].items():
        expected = pinned.get(name, observed[0])
        for value in observed:
            result.check(value == expected, f"replay:{name}")
