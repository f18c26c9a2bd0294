"""Tests of the benchmark itself: smoke runs, names, seeds, checks, gate.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The smoke runs are short (``--seconds 2``), so they check plumbing,
output shape and the pinned digests, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import battery, replay, service
from perfbench.common import (
    METRIC_NAME,
    ROOT,
    Result,
    Spans,
    load_program,
    quartiles,
)

load_program()

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, *extra, cwd=ROOT, check=True):
    """Run the benchmark command; returns (completed process, last line)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               *extra]
    completed = subprocess.run(command, cwd=cwd, capture_output=True,
                               text=True, timeout=600)
    if check:
        assert completed.returncode == 0, completed.stderr
        return completed, json.loads(completed.stdout.strip().splitlines()[-1])
    return completed, None


def result_document(workload, seed, trace):
    path = ROOT / ".perfbench" / "results" / f"{workload}-s{seed}-t{trace}.json"
    return json.loads(path.read_text())


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Short runs of the full-size inputs (one round, one cold pass, ...).
SMOKE = ["--seconds", "2"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_untraced(workload):
    _, line = run_bench(workload, "--seed", "5", "--trace", "0", *SMOKE)
    document = result_document(workload, 5, 0)
    assert set(line) == RESULT_KEYS
    assert line["correct"] is True and line["failed"] == 0, document["failures"]
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(END_TO_END)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"]
        assert metric["value"] > 0, (name, document.get("phases"))
    assert {"nproc", "cpu", "python"} <= set(document["host"])
    assert document["quartiles"], "in-run quartiles are recorded"


def test_smoke_traced():
    """A traced run reports every per-layer metric, whatever the workload
    (it runs the traced parts of all three)."""
    workload = WORKLOADS[0]
    _, line = run_bench(workload, "--seed", "5", "--trace", "1", *SMOKE)
    document = result_document(workload, 5, 1)
    assert set(line) == RESULT_KEYS
    assert line["correct"] is True and line["failed"] == 0, document["failures"]
    assert set(line["metrics"]) == set(PER_LAYER)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == PER_LAYER[name]["unit"], name
    spans = ROOT / ".perfbench" / "spans" / f"{workload}-s5.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "name", "start", "end", "parent", "op"} <= set(first)


def test_metric_names_follow_the_grammar():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name
    assert END_TO_END["setup_s"]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


def test_result_rejects_a_bad_metric_name():
    with pytest.raises(ValueError):
        Result().add("bad name!", 1.0, "s")


def test_seed_reaches_the_inputs():
    spans = Spans(False)
    _, first = replay.replay_once("nn", "C1", 2000, 3, spans, "a")
    _, again = replay.replay_once("nn", "C1", 2000, 3, spans, "b")
    _, other = replay.replay_once("nn", "C1", 2000, 4, spans, "c")
    assert first == again != other
    plan, same, different = (service.Plan(s, 2) for s in (3, 3, 4))
    assert plan.hits == same.hits and plan.phases == same.phases
    assert plan.cycle(1) == same.cycle(1)
    assert plan.hits != different.hits
    assert plan.cycle(1) != different.cycle(1)
    # the open loop's held-out grid is the same for every seed
    assert plan.miss_points == different.miss_points
    cold = service.cycle_misses(0) + service.cycle_misses(1)
    assert len({service.point_key(p) for p in cold}) == len(cold)
    assert not {service.point_key(p) for p in cold} & {
        service.point_key(p) for p in plan.miss_points + plan.hits}
    for point in plan.miss_points + cold:
        assert point["seed"] != 0
        assert point["trace_length"] not in (4000, 12000)


def test_seed_flag_is_plumbed_through_the_command():
    digests = []
    for seed in ("7", "7", "8"):
        run_bench("replay", "--seed", seed, "--trace", "0", *SMOKE)
        digests.append(result_document("replay", int(seed), 0)["digests"])
    assert digests[0] == digests[1] != digests[2]


def test_altered_pinned_digest_fails_the_run(tmp_path):
    run = replay.measure(0.01, 0, Spans(False), length=2000,
                         scenarios=replay.SCENARIOS[:2])
    clean = Result()
    pinned = {name: d[0] for name, d in run["digests"].items()}
    replay.check_digests(clean, run, pinned)
    assert not clean.failures
    altered = dict(pinned)
    name = next(iter(altered))
    altered[name] = "0" * 64
    broken = Result()
    replay.check_digests(broken, run, altered)
    assert broken.failures == [f"replay:{name}"]
    assert broken.summary()["correct"] is False


def test_shipped_pins_hold_for_seed_zero():
    """The pinned replay digests match the program at full length."""
    from perfbench.common import pinned_digests

    pinned = pinned_digests("replay", 0)
    assert pinned, "seed 0 is pinned"
    benchmark, config = replay.SCENARIOS[3]
    name = replay.scenario_name(benchmark, config)
    _, observed = replay.replay_once(benchmark, config, replay.LENGTH, 0,
                                     Spans(False), "pin")
    assert observed == pinned[name]


def test_battery_digest_check_reports_the_experiment():
    run = {"kinds": ["cold", "warm"],
           "digests": [{n: "a" for n in battery.EXPERIMENTS},
                       {n: "a" for n in battery.EXPERIMENTS}]}
    result = Result()
    battery.check_digests(result, run, {"fig6": "b"})
    assert result.failures == ["battery:cold:fig6", "battery:warm:fig6"]


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    start = time.perf_counter()
    completed, _ = run_bench("replay", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp_path, check=False)
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert time.perf_counter() - start < 60


def _records(dues, dones):
    return [{"due": d, "done": e, "sent": d, "late": 0.0, "reply": b'{"ok":true}'}
            for d, e in zip(dues, dones)]


def test_backlog_growth_tells_steady_from_growing():
    dues = [i * 0.01 for i in range(400)]
    steady = _records(dues, [d + 0.005 for d in dues])
    growing = _records(dues, [d + 0.005 + i * 0.002 for i, d in enumerate(dues)])
    # a 0.3 s stall near the end (a cold miss) that drains again
    stalled = _records(dues, [max(d, 3.6) + 0.005 if 3.3 <= d < 3.6 else
                              d + 0.005 for d in dues])
    assert abs(service.backlog_growth(steady)) < 1
    assert abs(service.backlog_growth(stalled)) < 1
    assert service.backlog_growth(growing) > service.BACKLOG_LIMIT


def test_late_generator_or_growing_backlog_is_invalid():
    summary = {"name": "low", "rate": 100, "late_p99_ms": 0.1,
               "growing": False}
    ok = Result()
    service._check_valid(ok, summary, low=True)
    assert not ok.failures
    late = Result()
    service._check_valid(late, dict(summary, late_p99_ms=50.0), low=True)
    assert late.failures == ["service:open-loop:100rps:late"]
    backlog = Result()
    service._check_valid(backlog, dict(summary, growing=True), low=True)
    assert backlog.failures == ["service:open-loop:100rps:backlog"]


def test_sustained_is_the_highest_step_whose_steps_all_hold():
    def step(rate, p99=10.0, growing=False):
        return {"achieved_rps": rate * 0.99, "p99_ms": p99,
                "growing": growing, "errors": 0}
    assert service.sustained([step(100), step(200), step(400, growing=True)]) \
        == pytest.approx(198)
    assert service.sustained([step(100), step(200, p99=1e4), step(400)]) \
        == pytest.approx(99)


def test_self_time_subtracts_child_spans():
    spans = Spans(True)
    with spans.span("replay.op", "op1"):
        with spans.span("engine.run"):
            time.sleep(0.02)
        time.sleep(0.01)
    self_times = spans.self_times()
    assert self_times["engine"] >= 0.02
    assert 0.01 <= self_times["replay"] < 0.02
    child = [r for r in spans.records if r["name"] == "engine.run"][0]
    assert child["op"] == "op1" and child["parent"] is not None


def test_quartiles_of_one_and_many():
    assert quartiles([2.0]) == {"n": 1, "q1": 2.0, "median": 2.0, "q3": 2.0}
    assert quartiles([1.0, 2.0, 3.0, 4.0])["median"] == 2.5


def test_injected_replay_slowdown_is_caught(monkeypatch):
    """A delay on ``SoaGPUSimulator.run`` moves the replay ``op_s`` out of
    bound.

    The delay is proportional to each run's own duration, so the injected
    slowdown has the same size on a fast or slow host: it adds 1.5x the
    bound to the replay's seconds per operation.  Clean and delayed rounds
    alternate, so host drift hits both alike; a clean rerun must stay
    inside the bound.
    """
    from repro.engine.soa_sim import SoaGPUSimulator

    bound = END_TO_END["op_s"]["bound"]
    factor = 1.5 * bound
    original = SoaGPUSimulator.run

    def slowed(self):
        start = time.perf_counter()
        result = original(self)
        time.sleep((time.perf_counter() - start) * factor)
        return result

    seconds = {"clean": [], "slowed": [], "rerun": []}
    for _ in range(5):
        for variant in seconds:
            if variant == "slowed":
                monkeypatch.setattr(SoaGPUSimulator, "run", slowed)
            run = replay.measure(0.01, 1, Spans(False), length=20000)
            monkeypatch.setattr(SoaGPUSimulator, "run", original)
            seconds[variant].append(replay.op_seconds(run))
    clean, slow, rerun = (quartiles(seconds[v])["median"] for v in seconds)
    assert slow > clean * (1 + bound), (clean, slow)
    assert rerun <= clean * (1 + bound), (clean, rerun)
