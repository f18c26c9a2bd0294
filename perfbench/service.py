"""The ``service`` workload: requests against ``repro-sttgpu serve``.

The server runs in its own process, so the load generator never shares
its interpreter lock.  Set-up starts it on an empty store, waits for its
first pong, fills its hit set and fits the surrogate pairs the misses
use; a fit stalls the GIL-bound server for about half a second, so it
belongs to set-up, not to a timed request.

The untraced run is a **closed loop**: one client sends cycles of
:data:`CYCLE_REQUESTS` serial requests on one connection, each waiting
for the previous reply, as a caller of ``submit`` does.  A cycle is
mostly ``simulate`` cache hits, with one cold ``simulate`` miss (4%)
per held-out (config, benchmark) pair and miss length, each followed by
a ``predict`` of the same point.  ``op_s`` is the median cycle time:
hits price the protocol and the store read, misses the pool, the replay
and the store write.  Miss points use trace lengths off the surrogate's
anchor lengths and nonzero seeds, so pairing each predict with its
simulate measures the surrogate's error at no extra simulation cost.

The traced run is an **open loop** (independent users, who do not wait
for each other): one connection per core sends on a fixed schedule, at
``low`` and ``high`` fixed rates and then up a rate ladder for
``sustained_rps``.  Requests on one connection are serial, so a request
due while its connection waits on a slow reply waits too, and its
latency -- timed from when it was due -- counts that wait.  The mix is
mostly hits, 1% cold misses (every fourth one sent twice at once, so the
copies should coalesce) and one predict per miss point.  A phase whose
generator ran late is invalid, and so is a ``low`` phase whose backlog
grew; either counts as a failed operation.  Open-loop latencies are
per-layer metrics: on a shared 2-core host they moved 40-60% between
two sets of runs half an hour apart, more than any bound allows.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.common import (
    ROOT,
    WORK_DIR,
    Result,
    Spans,
    digest,
    host_speed,
    peak_rss_mb,
    percentile,
    pinned_digests,
    pinned_section,
    program_env,
    quartiles,
    run_scaled,
)

#: Serial requests per closed-loop cycle.  Each cycle holds one cold
#: simulate miss per held-out pair and miss length (8, so 4%), each
#: followed by a predict of the same point; the rest are cache hits.
#: With 1% misses the hits set 60% of a cycle's time, and hit latency,
#: bound by waking the two processes in turn, drifted with the shared
#: host more than any speed reading tracked.
CYCLE_REQUESTS = 200

#: Requests per second of the two fixed-rate open-loop phases.
LOW_RPS = 100
HIGH_RPS = 200

#: Requests per fixed-rate phase at full length.
PHASE_REQUESTS = 1200

#: The rate ladder for ``service.sustained_rps`` and its step length.
#: Capacity on a 2-core host measured 440 to over 1150 requests/s across
#: runs.  Neighbouring steps are 1.25x apart over that range, so a change
#: in capacity of more than 25% always moves the step reported.
LADDER_RPS = (300, 375, 470, 590, 740, 920, 1150, 1440)
LADDER_STEP_S = 1.6

#: Seconds the full open-loop plan takes; a shorter budget shrinks it.
FULL_SECONDS = 30.0

#: p99 latency a ladder step must meet to count as sustained.
P99_LIMIT_MS = 500.0

#: Generator lateness (p99, ms) beyond which a phase is invalid.
LATE_LIMIT_MS = 10.0

#: Share of open-loop requests that are cold simulate misses.
MISS_SHARE = 0.01

#: Trace length of the hit set, and the number of hit points.
HIT_LENGTH = 2000
HIT_POINTS = 12

#: Held-out (config, benchmark) pairs the misses and predicts cover.
MISS_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("C1", "lbm"), ("C1", "bfs"), ("C2", "nn"), ("stt-baseline", "backprop"),
)

#: Miss trace lengths: neither is a surrogate anchor length (4000, 12000).
MISS_LENGTHS = (3000, 6000)

#: Server set-ups per run (``setup_s`` is their median).
SETUPS = 5

#: Seconds to wait for the server to announce its port.
START_TIMEOUT_S = 60.0


def sim_request(config: str, benchmark: str, length: int, seed: int,
                kind: str = "simulate") -> Dict[str, Any]:
    """A request object for one point."""
    return {"kind": kind, "benchmark": benchmark, "config": config,
            "trace_length": length, "seed": seed}


def point_key(request: Dict[str, Any]) -> str:
    """Label of a request's (config, benchmark, length, seed) point."""
    return (f"{request['benchmark']}/{request['config']}/"
            f"{request['trace_length']}/s{request['seed']}")


#: Trace seed of the first closed-loop cycle's misses (above the open
#: loop's held-out seeds, so the two never share a point).
CYCLE_SEED_BASE = 10_000

#: Closed-loop cycles whose miss digests are pinned; a run that gets
#: further checks the later misses against a direct simulation.
PINNED_CYCLES = 60


def cycle_misses(index: int) -> List[Dict[str, Any]]:
    """Closed-loop cycle ``index``'s cold points: new to every earlier cycle."""
    return [sim_request(c, b, length, CYCLE_SEED_BASE + index)
            for length in MISS_LENGTHS for c, b in MISS_PAIRS]


class Plan:
    """Every request of one run.

    The seed picks the trace seeds of the hit points (their (config,
    benchmark) pairs are fixed, so every seed asks for the same kind of
    payload), the order of the hits and where the open-loop misses fall.
    The cold points are fixed grids, the same for every seed (see
    :func:`cycle_misses` and :meth:`_held_out`): each run starts its
    server on an empty store, so they are cold in every run, and their
    digests are pinned once for all seeds.
    ``seconds`` is the open loop's budget: :data:`FULL_SECONDS` gives
    the full phases, less shrinks them.
    """

    def __init__(self, seed: int, seconds: float):
        from repro.config import all_configs
        from repro.workloads.suite import suite_names

        rng = random.Random(seed)
        self.seed = seed
        pairs = [(c, b) for c in sorted(all_configs()) for b in suite_names()]
        self.hits = [
            sim_request(c, b, HIT_LENGTH, rng.randrange(1, 2**31 - 1))
            for c, b in random.Random(0).sample(pairs, HIT_POINTS)
        ]
        #: one predict per held-out pair, sent at set-up so the surrogate
        #: has fitted every pair before the timed phases
        self.fits = [sim_request(c, b, 4000, 0, kind="predict")
                     for c, b in MISS_PAIRS]
        share = min(1.0, seconds / FULL_SECONDS)
        count = max(60, int(PHASE_REQUESTS * share))
        specs = [("low", LOW_RPS, count), ("high", HIGH_RPS, count)] + [
            (f"ladder{rate}", rate, max(30, int(rate * LADDER_STEP_S * share)))
            for rate in LADDER_RPS
        ]
        misses = [max(1, round(n * MISS_SHARE)) for _, _, n in specs]
        self.miss_points = [self._held_out(i) for i in range(sum(misses))]
        self.phases: List[Dict[str, Any]] = []
        first = 0
        for (name, rate, n), m in zip(specs, misses):
            points = self.miss_points[first:first + m]
            first += m
            self.phases.append(self._phase(name, rate, n, points, rng))

    def cycle(self, index: int) -> List[Dict[str, Any]]:
        """The requests of closed-loop cycle ``index``, in sending order."""
        rng = random.Random(self.seed * 1_000_003 + index)
        misses = cycle_misses(index)
        stride = CYCLE_REQUESTS // len(misses)
        requests: List[Dict[str, Any]] = []
        for point in misses:
            requests += [point, dict(point, kind="predict")]
            requests += [rng.choice(self.hits) for _ in range(stride - 2)]
        return requests

    @staticmethod
    def _held_out(index: int) -> Dict[str, Any]:
        config, benchmark = MISS_PAIRS[index % len(MISS_PAIRS)]
        length = MISS_LENGTHS[index // len(MISS_PAIRS) % len(MISS_LENGTHS)]
        seed = 1 + index // (len(MISS_PAIRS) * len(MISS_LENGTHS))
        return sim_request(config, benchmark, length, seed)

    def _phase(self, name: str, rate: float, count: int, points,
               rng: random.Random) -> Dict[str, Any]:
        """``count`` requests at ``rate``: hits, spaced misses, predicts."""
        slots: List[Optional[Dict[str, Any]]] = [None] * count
        times = [i / rate for i in range(count)]
        offset = rng.random()
        stride = count / len(points)
        for j, request in enumerate(points):
            slot = min(count - 3, int((j + offset) * stride))
            slots[slot] = request
            if j % 4 == 0:
                # a simultaneous duplicate on the other connection
                slots[slot + 1] = request
                times[slot + 1] = times[slot]
            slots[slot + 2] = dict(request, kind="predict")
        for i, request in enumerate(slots):
            if request is None:
                slots[i] = rng.choice(self.hits)
        return {"name": name, "rate": rate,
                "requests": list(zip(times, slots))}


class Server:
    """A ``repro-sttgpu serve`` subprocess on an ephemeral port."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start, wait for the first pong; returns the seconds it took."""
        start = time.perf_counter()
        store = self.work / "store"
        shutil.rmtree(store, ignore_errors=True)
        log = self.work / "serve.log"
        self.work.mkdir(parents=True, exist_ok=True)
        log.write_text("")
        with open(log, "a", encoding="utf-8") as handle:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--store-dir", str(store),
                 "--pool-shards", str(os.cpu_count() or 1)],
                stdout=handle, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=program_env(), cwd=ROOT,
            )
        deadline = start + START_TIMEOUT_S
        while not self.port:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start: {log.read_text()}")
            for line in log.read_text().splitlines():
                if "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.005)
        with Connection(self.port) as conn:
            if not conn.call({"kind": "ping"}).get("ok"):
                raise RuntimeError("server did not answer ping")
        return time.perf_counter() - start

    def stop(self) -> None:
        """Ask the server to drain and exit; kill it if it does not."""
        if self.proc is None:
            return
        if self.port and self.proc.poll() is None:
            try:
                with Connection(self.port) as conn:
                    conn.call({"kind": "shutdown"})
            except OSError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc = None
        self.port = 0


class Connection:
    """One blocking newline-delimited JSON connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def send(self, line: bytes) -> bytes:
        self.file.write(line)
        self.file.flush()
        reply = self.file.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(self.send(encode(request)))

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def encode(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def run_phase(port: int, phase: Dict[str, Any], connections: int,
              spans: Spans) -> List[Dict[str, Any]]:
    """Send one phase open-loop; one record per request, in schedule order."""
    requests = phase["requests"]
    lines = [encode(request) for _, request in requests]
    records: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    conns = [Connection(port) for _ in range(connections)]
    errors: List[BaseException] = []
    begin = time.perf_counter() + 0.05

    def worker(index: int) -> None:
        conn = conns[index]
        free_at = begin
        try:
            for i in range(index, len(requests), connections):
                due = begin + requests[i][0]
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                sent = time.perf_counter()
                with spans.span("service.request", f"{phase['name']}:{i}"):
                    reply = conn.send(lines[i])
                done = time.perf_counter()
                records[i] = {"due": due, "sent": sent, "done": done,
                              "late": sent - max(due, free_at), "reply": reply}
                free_at = done
        except (OSError, ConnectionError) as error:
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(k,))
               for k in range(connections)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for conn in conns:
            conn.close()
    if errors:
        raise errors[0]
    return records  # type: ignore[return-value]


def backlog_growth(records: Sequence[Dict[str, Any]]) -> float:
    """Lowest backlog of the last quarter minus that of the first, in requests.

    The backlog at a request's due time is the number of requests due by
    then minus the number answered by then.  A cold miss stalls one
    connection and lifts the backlog for a few hundred milliseconds; a
    server that keeps up drains it again, so the lowest backlog of a
    quarter stays near zero.  Only a server that falls behind for good
    lifts the lowest backlog of the last quarter.
    """
    due = sorted(r["due"] for r in records)
    done = sorted(r["done"] for r in records)
    backlog = []
    answered = 0
    for index, moment in enumerate(due):
        while answered < len(done) and done[answered] <= moment:
            answered += 1
        backlog.append(index + 1 - answered)
    quarter = max(1, len(backlog) // 4)
    return min(backlog[-quarter:]) - min(backlog[:quarter])


def phase_summary(phase: Dict[str, Any], records) -> Dict[str, Any]:
    """Latency percentiles, lateness, backlog trend and achieved rate.

    Latencies are raw host milliseconds.  Scaling them by a host probe
    (as the replay and battery times are) was tried and dropped: probes
    taken around each part of a phase did not track the server's speed,
    and the scaled percentiles spread no less from run to run.
    """
    latencies = [(r["done"] - r["due"]) * 1e3 for r in records]
    late = [r["late"] * 1e3 for r in records]
    failures = sum(1 for r in records if not json.loads(r["reply"]).get("ok"))
    growth = backlog_growth(records)
    return {
        "name": phase["name"],
        "rate": phase["rate"],
        "requests": len(records),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "late_p99_ms": percentile(late, 99),
        "backlog_growth": growth,
        "growing": growth > max(BACKLOG_LIMIT, BACKLOG_SHARE * len(records)),
        "achieved_rps": achieved_rate(records),
        "errors": failures,
    }


#: Backlog growth (requests, last quarter minus first) counted as
#: growing: the larger of a floor and a share of the phase's requests.
BACKLOG_LIMIT = 8.0
BACKLOG_SHARE = 0.05


def achieved_rate(records: Sequence[Dict[str, Any]]) -> float:
    """Requests answered per second while the phase was sending.

    Counts the answers that arrived by the time the last request was due,
    over the time from the first due time to the last: a phase that keeps
    up scores about its rate, an overloaded one its capacity.
    """
    first = min(r["due"] for r in records)
    last = max(r["due"] for r in records)
    answered = sum(1 for r in records if r["done"] <= last)
    return answered / (last - first)


def sustained(summaries: Sequence[Dict[str, Any]]) -> float:
    """Achieved rate of the highest ladder step whose steps all held.

    A step holds when its p99 meets :data:`P99_LIMIT_MS`, its backlog does
    not grow and no request failed.  Zero when even the first step fails.
    """
    best = 0.0
    for summary in summaries:
        if (summary["p99_ms"] > P99_LIMIT_MS or summary["growing"]
                or summary["errors"]):
            break
        best = summary["achieved_rps"]
    return best


def direct_payloads(points: Sequence[Dict[str, Any]]) -> Dict[str, Dict]:
    """``repro.simulate`` of each point, as the service would serialize it."""
    from repro import simulate
    from repro.config import all_configs
    from repro.io import simulation_result_to_dict
    from repro.workloads.suite import build_workload

    payloads = {}
    for point in points:
        key = point_key(point)
        if key in payloads:
            continue
        config = all_configs()[point["config"]]
        workload = build_workload(point["benchmark"],
                                  num_accesses=point["trace_length"],
                                  num_sms=config.num_sms, seed=point["seed"])
        payloads[key] = simulation_result_to_dict(simulate(config, workload))
    return payloads


def relative_errors(predicts: Dict[str, Dict], truths: Dict[str, Dict]):
    """|predicted - simulated| / simulated per metric, over paired points."""
    fields = {"ipc": "ipc", "hit_rate": "l2_hit_rate",
              "energy": "l2_dynamic_energy_j"}
    errors: Dict[str, List[float]] = {name: [] for name in fields}
    for key in sorted(predicts.keys() & truths.keys()):
        predicted, truth = predicts[key], truths[key]
        for name, field in fields.items():
            errors[name].append(abs(predicted[field] - truth[field])
                                / abs(truth[field]))
    return errors


def check_payloads(result: Result, phases, all_records, truths) -> None:
    """Every simulate reply must equal the direct payload byte for byte."""
    for phase, records in zip(phases, all_records):
        for (_, request), record in zip(phase["requests"], records):
            reply = json.loads(record["reply"])
            name = f"service:{phase['name']}:{request['kind']}:{point_key(request)}"
            if request["kind"] == "predict":
                result.check(bool(reply.get("ok")), name)
                continue
            result.check(
                bool(reply.get("ok"))
                and digest(reply["payload"]) == digest(truths[point_key(request)]),
                name)


def run_phases(server: Server, plan: Plan, spans: Spans):
    """Every phase of the plan, one connection per core."""
    connections = os.cpu_count() or 1
    return [run_phase(server.port, phase, connections, spans)
            for phase in plan.phases]


def set_up(server: Server, plan: Plan) -> float:
    """Start the server on an empty store, wait for its first pong, fill
    its hit set and fit the surrogate pairs; returns the raw seconds."""
    started = server.start()
    warm_start = time.perf_counter()
    with Connection(server.port) as conn:
        for point in plan.hits + plan.fits:
            if not conn.call(point).get("ok"):
                raise RuntimeError(f"warm-up failed for {point_key(point)}")
    return started + time.perf_counter() - warm_start


def measure_cycles(port: int, plan: Plan, seconds: float) -> Dict[str, Any]:
    """Send closed-loop cycles until ``seconds`` have passed.

    At least one cycle runs, and none starts after the deadline.  Every
    request's round trip is timed (raw host seconds), after a host speed
    reading per cycle.  Per request it keeps the reply's status and its
    payload; a hit's payload is kept as its digest only.
    """
    latencies: Dict[str, List[float]] = {}
    replies: List[Tuple[Dict[str, Any], bool, Any]] = []
    probes: List[float] = []
    hits = {point_key(point) for point in plan.hits}
    with Connection(port) as conn:
        deadline = time.perf_counter() + seconds
        while not probes or time.perf_counter() < deadline:
            requests = plan.cycle(len(probes))
            probes.append(host_speed())
            answers = []
            for line in [encode(request) for request in requests]:
                start = time.perf_counter()
                answers.append((conn.send(line), time.perf_counter() - start))
            for request, (answer, taken) in zip(requests, answers):
                kind = request_class(request, hits)
                latencies.setdefault(kind, []).append(taken)
                reply = json.loads(answer)
                payload = reply.get("payload")
                if kind == "hit" and payload is not None:
                    payload = digest(payload)
                replies.append((request, bool(reply.get("ok")), payload))
    return {"latencies": latencies, "replies": replies, "probes": probes}


def request_class(request: Dict[str, Any], hits) -> str:
    """``hit``, or the kind, pair and length of a cold point."""
    if request["kind"] == "simulate" and point_key(request) in hits:
        return "hit"
    return (f"{request['kind']}:{request['config']}/{request['benchmark']}/"
            f"{request['trace_length']}")


def cycle_seconds(plan: Plan, latencies: Dict[str, List[float]]) -> float:
    """Seconds of a typical cycle: each request's class median, summed.

    A cycle's hit count times the median hit, plus the median of each
    cold point's class (one miss and one predict per class per cycle).
    Medians per class keep a single stalled request -- a collection
    pause, a host hiccup -- out of the figure.
    """
    hits = {point_key(point) for point in plan.hits}
    return sum(quartiles(latencies[request_class(request, hits)])["median"]
               for request in plan.cycle(0))


def run(args, result: Result, process_start: float) -> None:
    """One untraced ``service`` run: closed-loop cycles (``op_s``)."""
    work = WORK_DIR / "service" / f"s{args.seed}"
    imported = time.perf_counter() - process_start
    plan = Plan(args.seed, FULL_SECONDS)
    server = Server(work)
    setup = []
    try:
        # repeated so its median is steady; the last server stays up
        for attempt in range(SETUPS):
            setup.append(imported + set_up(server, plan))
            if attempt < SETUPS - 1:
                server.stop()
        cycles = measure_cycles(server.port, plan, args.seconds)
    finally:
        server.stop()

    hits = direct_payloads(plan.hits)
    hits_digest = combined_digest(hits)
    pinned = pinned_digests("service", args.seed)
    if pinned is not None:
        result.check(pinned == hits_digest, "service:pinned-digests")
    pinned_misses = pinned_section("service-misses")
    served: Dict[str, Dict] = {}
    predicts: Dict[str, Dict] = {}
    checks = []
    for index, (request, ok, payload) in enumerate(cycles["replies"]):
        key = point_key(request)
        name = (f"service:cycle{index // CYCLE_REQUESTS}:{request['kind']}:"
                f"{key}")
        if request["kind"] == "predict":
            if result.check(ok, name):
                predicts[key] = payload
        elif key in hits:
            result.check(ok and payload == digest(hits[key]), name)
        elif ok:
            served[key] = payload
            checks.append((name, key))
        else:
            result.check(False, name)
    unpinned = [point for index in range(len(cycles["probes"]))
                for point in cycle_misses(index)
                if point_key(point) not in pinned_misses]
    direct = {key: digest(payload)
              for key, payload in direct_payloads(unpinned).items()}
    for name, key in checks:
        expected = pinned_misses.get(key) or direct.get(key)
        result.check(digest(served[key]) == expected, name)
    errors = relative_errors(predicts, served)
    result.extra["predict_points"] = len(predicts)
    result.extra["unbounded"] = predict_metrics(errors)
    result.extra["digests"] = {"service": hits_digest}
    result.extra["cycles"] = len(cycles["probes"])
    result.extra["probes"] = cycles["probes"]
    result.extra["latency_ms"] = {
        name: quartiles([t * 1e3 for t in times])
        for name, times in sorted(cycles["latencies"].items())}
    raw_setup = quartiles(setup)["median"]
    result.extra["raw_setup_s"] = setup
    result.add("setup_s", run_scaled(raw_setup, cycles["probes"]), "s",
               [run_scaled(t, cycles["probes"]) for t in setup])
    result.add("peak_rss_mb", peak_rss_mb(), "MB")
    raw_op = cycle_seconds(plan, cycles["latencies"])
    result.extra["raw_op_s"] = raw_op
    result.add("op_s", run_scaled(raw_op, cycles["probes"]), "s")


def predict_metrics(errors: Dict[str, List[float]]) -> Dict[str, Dict]:
    """The ``predict.*`` error metrics (absolute relative error)."""
    return {
        "predict.ipc_err_median": {
            "value": quartiles(errors["ipc"])["median"], "unit": "ratio"},
        "predict.ipc_err_p90": {
            "value": percentile(errors["ipc"], 90), "unit": "ratio"},
        "predict.hit_rate_err_p90": {
            "value": percentile(errors["hit_rate"], 90), "unit": "ratio"},
        "predict.energy_err_p90": {
            "value": percentile(errors["energy"], 90), "unit": "ratio"},
    }


def run_traced(seed: int, seconds: float, result: Result) -> Spans:
    """The traced ``service`` part: protocol probes, then the open loop.

    ``seconds`` is the open loop's budget (see :class:`Plan`).  Returns
    the spans it recorded.
    """
    work = WORK_DIR / "service" / f"s{seed}-traced"
    plan = Plan(seed, seconds)
    server = Server(work)
    spans = Spans(True)
    try:
        set_up(server, plan)
        probes = _probes(server, plan, spans)
        all_records = run_phases(server, plan, spans)
        with Connection(server.port) as conn:
            stats = conn.call({"kind": "stats"})["stats"]
    finally:
        server.stop()

    summaries = [phase_summary(p, r) for p, r in zip(plan.phases, all_records)]
    truths = direct_payloads(plan.hits + plan.miss_points)
    check_payloads(result, plan.phases, all_records, truths)
    for summary in summaries[:2]:
        _check_valid(result, summary, summary is summaries[0])
    result.extra["phases"] = {p["name"]: s for p, s in zip(plan.phases, summaries)}
    predicts = _predict_payloads(plan.phases, all_records)
    errors = relative_errors(predicts, truths)
    result.extra["predict_points"] = len(predicts)
    for name, metric in {**open_loop_metrics(summaries),
                         **predict_metrics(errors)}.items():
        result.add(name, metric["value"], metric["unit"])
    _report_traced(result, probes, stats, spans, work)
    return spans


def open_loop_metrics(summaries) -> Dict[str, Dict[str, Any]]:
    """Latencies of ``low`` and ``high`` and the sustained rate."""
    metrics = {}
    for summary in summaries[:2]:
        for pct in ("p50", "p99"):
            metrics[f"service.{summary['name']}.{pct}_ms"] = {
                "value": summary[f"{pct}_ms"], "unit": "ms"}
    metrics["service.sustained_rps"] = {"value": sustained(summaries[2:]),
                                        "unit": "1/s"}
    return metrics


#: Serial requests per protocol probe in the traced run.
PROBE_REQUESTS = 200


def serial(conn: Connection, requests, spans: Spans, name: str) -> List[float]:
    """Send ``requests`` one after another; milliseconds per round trip."""
    times = []
    for index, request in enumerate(requests):
        line = encode(request)
        start = time.perf_counter()
        with spans.span(f"service.{name}", f"{name}:{index}"):
            reply = json.loads(conn.send(line))
        times.append((time.perf_counter() - start) * 1e3)
        if not reply.get("ok"):
            raise RuntimeError(f"probe {name} failed: {reply.get('error')}")
    return times


def _probes(server: Server, plan: Plan, spans: Spans) -> Dict[str, List[float]]:
    """Serial protocol probes: ping, hits (untraced and traced), misses."""
    hits = [plan.hits[i % len(plan.hits)] for i in range(PROBE_REQUESTS)]
    # fresh points (seeds outside the held-out grid's), one per pair
    misses = [sim_request(c, b, MISS_LENGTHS[0], 1000 + i)
              for i, (c, b) in enumerate(MISS_PAIRS)]
    off = Spans(False)
    probes: Dict[str, List[float]] = {"hit": [], "hit_untraced": []}
    with Connection(server.port) as conn:
        probes["ping"] = serial(conn, [{"kind": "ping"}] * PROBE_REQUESTS,
                                spans, "ping")
        # untraced and traced hit probes alternate in chunks, so host
        # drift cancels out of the tracing overhead
        for chunk in range(0, PROBE_REQUESTS, 20):
            batch = hits[chunk:chunk + 20]
            order = [(off, "hit_untraced"), (spans, "hit")]
            for recorder, key in order[::1 if chunk % 40 else -1]:
                probes[key] += serial(conn, batch, recorder, "hit")
        probes["miss"] = serial(conn, misses, spans, "miss")
    return probes


def _report_traced(result: Result, probes, stats, spans: Spans,
                   work: Path) -> None:
    """Per-layer metrics of the protocol probes and the server's stats."""
    def median(values):
        return quartiles(values)["median"]

    result.add("service.ping_ms", median(probes["ping"]), "ms", probes["ping"])
    result.add("service.hit_ms", median(probes["hit"]), "ms", probes["hit"])
    result.add("service.miss_ms", median(probes["miss"]), "ms", probes["miss"])
    latency = stats.get("latency", {})
    result.add("service.server_p50_ms", latency.get("p50_ms", 0.0), "ms")
    result.add("service.server_p99_ms", latency.get("p99_ms", 0.0), "ms")
    result.add("service.coalesced", stats["cache"]["coalesced"], "count")
    result.add("service.simulations_run", stats["simulations_run"], "count")
    store = stats["store"]
    result.add("service.store.hit_ratio",
               store["hits"] / max(1, store["hits"] + store["misses"]), "ratio")
    result.add("surrogate.fitted_pairs", stats["predict"]["fitted_pairs"],
               "count")
    fits, predicts = _surrogate_costs(work, spans)
    result.add("surrogate.fit_s", median(fits), "s", fits)
    result.add("surrogate.predict_us", median(predicts), "us", predicts)
    result.add("tracing.overhead_share.service",
               median(probes["hit"]) / median(probes["hit_untraced"]) - 1,
               "ratio")


def _surrogate_costs(work: Path, spans: Spans):
    """Fit seconds per held-out pair and warm predict microseconds.

    Measured in this process (the server is stopped by now), on an
    oracle with an empty store, as the server's oracle starts.
    """
    from repro.surrogate.model import SurrogateOracle
    from repro.telemetry import ResultCache

    store = work / "surrogate"
    shutil.rmtree(store, ignore_errors=True)
    oracle = SurrogateOracle(cache=ResultCache(store))
    fits = []
    for config, benchmark in MISS_PAIRS:
        start = time.perf_counter()
        with spans.span("surrogate.fit", f"fit:{config}/{benchmark}"):
            oracle.predict(config, benchmark, MISS_LENGTHS[0], 1)
        fits.append(time.perf_counter() - start)
    predicts = []
    for index in range(PROBE_REQUESTS):
        config, benchmark = MISS_PAIRS[index % len(MISS_PAIRS)]
        start = time.perf_counter()
        with spans.span("surrogate.predict", f"predict:{index}"):
            oracle.predict(config, benchmark, MISS_LENGTHS[1], 1 + index)
        predicts.append((time.perf_counter() - start) * 1e6)
    shutil.rmtree(store, ignore_errors=True)
    return fits, predicts


def _predict_payloads(phases, all_records) -> Dict[str, Dict]:
    predicts = {}
    for phase, records in zip(phases, all_records):
        for (_, request), record in zip(phase["requests"], records):
            if request["kind"] == "predict":
                reply = json.loads(record["reply"])
                if reply.get("ok"):
                    predicts[point_key(request)] = reply["payload"]
    return predicts


def _check_valid(result: Result, summary: Dict[str, Any], low: bool) -> None:
    """An open-loop phase is invalid if the generator ran late, or (at the
    low rate) the backlog grew."""
    name = f"service:open-loop:{summary['rate']}rps"
    result.check(summary["late_p99_ms"] <= LATE_LIMIT_MS, name + ":late")
    if low:
        result.check(not summary["growing"], name + ":backlog")


def combined_digest(truths: Dict[str, Dict]) -> str:
    return digest({key: digest(payload) for key, payload in truths.items()})
