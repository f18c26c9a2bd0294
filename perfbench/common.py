"""Shared plumbing of the benchmark: program discovery, statistics, spans.

Everything here is workload-independent: locating the program under
``src/``, the scratch directory the runs write into, summary statistics,
content digests, peak memory, host metadata and the in-memory span
recorder used by traced runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import re
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: The checkout the benchmark measures (the directory above this package).
ROOT = Path(__file__).resolve().parent.parent

#: Where runs keep stores, spans and result documents (git-ignored).
WORK_DIR = ROOT / ".perfbench"

#: Metric names the benchmark may print.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


#: Pinned result digests, per workload and seed.
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def pinned_section(name: str) -> Dict[str, Any]:
    """One section of the pinned digests (empty when there is none)."""
    return json.loads(DIGESTS_FILE.read_text()).get(name, {})


def pinned_digests(workload: str, seed: int):
    """The digests pinned for ``seed`` (``None`` when the seed is unpinned)."""
    return pinned_section(workload).get(str(seed))


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def load_program() -> None:
    """Make the package under ``src/`` of the checkout importable, or raise."""
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def program_env() -> Dict[str, str]:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def digest(payload: Any) -> str:
    """SHA-256 of a JSON payload's canonical rendering."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, first quartile, median and third quartile."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    if len(values) == 1:
        return {"n": 1, "q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


#: Seconds :func:`host_probe` takes on the reference host.  Scaled times
#: read as seconds on a host that fast (see :func:`run_scaled`).
PROBE_REF_S = 0.010

#: Probes averaged per speed reading, and the spin before them.
PROBES = 3
SPIN_S = 0.04


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's current speed.

    The loop does the kind of work the replay does (dict lookups, list
    indexing, integer arithmetic) and touches none of the program, so a
    change to the program never moves it.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    ring = [0] * 1024
    total = 0
    for i in range(30_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        ring[i & 1023] = total & 0xFFFF
        total += ring[key] ^ i
    return time.perf_counter() - start


def timed_probed(fn, *args, **kwargs):
    """Run ``fn`` after a host speed reading.

    Returns (its result, raw seconds, the :func:`host_speed` reading
    taken just before the call).
    """
    probe = host_speed()
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start, probe


def run_scaled(seconds: float, probes: Sequence[float]) -> float:
    """Host ``seconds`` taken over a run, scaled to the reference speed.

    The host this benchmark runs on is shared: the same code ran up to
    1.6x slower in some windows than in others.  The run's speed is the
    mean of the :func:`host_speed` readings taken before each of its
    timed operations, and the scaled time is ``seconds * PROBE_REF_S /
    speed``: host seconds on a host of the reference speed.  A reading
    tracks the host poorly on its own (op to op, operation and probe
    times correlated at 0 to 0.4), but the mean over a run follows the
    host's slower drift.  Over five 20 s runs in a noisy hour, scaling
    cut the spread (IQR/median) of the replay's ``op_s`` from 0.28 to
    0.06; over ten 30 s runs in a quieter one it left the replay's at
    0.10 and cut the service's from 0.11 to 0.05.  Raw seconds are kept
    beside the scaled ones.
    """
    return seconds * PROBE_REF_S / (sum(probes) / len(probes))


def host_speed() -> float:
    """Mean :func:`host_probe` seconds, taken on a busy core.

    A core that has just been idle runs the probe up to 1.5x slower for
    tens of milliseconds, which would make time a program spends waiting
    look like a slow host and scale it away; a short spin first keeps
    the probe to the core's busy speed.  (Reading every core in turn,
    for work that fans out over them, was tried for the battery: those
    readings spread more than the passes they were to scale.)
    """
    end = time.perf_counter() + SPIN_S
    while time.perf_counter() < end:
        pass
    return sum(host_probe() for _ in range(PROBES)) / PROBES


def host_metadata() -> Dict[str, Any]:
    """The machine the numbers were taken on."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


_IDS = itertools.count(1)
_ID_LOCK = threading.Lock()


class Spans:
    """In-memory spans: name, start, end, parent and operation id.

    A disabled recorder costs one attribute test per span.  Spans opened
    in a forked child process (the battery's workers) cannot reach the
    parent's memory, so a child appends each finished span to
    ``child_dir/child-<pid>.jsonl``; :meth:`collect_children` reads them
    back.
    """

    def __init__(self, enabled: bool, child_dir: Optional[Path] = None) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self.child_dir = child_dir
        self._owner = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _new_id(self) -> int:
        # one counter for every recorder, so spans of several recorders
        # in one process can be merged
        with _ID_LOCK:
            return next(_IDS)

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """Record one span around the ``with`` body (if enabled)."""
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        op = op if op is not None else (parent["op"] if parent else None)
        if parent is not None and parent["pid"] != os.getpid():
            # a forked worker inherits the open span stack; its spans run
            # beside the parent's, not inside them
            parent = None
        record = {
            "pid": os.getpid(),
            "id": f"{os.getpid()}:{self._new_id()}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": op,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            self._finish(record)

    def _finish(self, record: Dict[str, Any]) -> None:
        if os.getpid() == self._owner or self.child_dir is None:
            with self._lock:
                self.records.append(record)
            return
        path = self.child_dir / f"child-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def collect_children(self) -> None:
        """Move spans written by child processes into this recorder."""
        if self.child_dir is None:
            return
        for path in sorted(self.child_dir.glob("child-*.jsonl")):
            for line in path.read_text().splitlines():
                self.records.append(json.loads(line))
            path.unlink()

    def durations(self, name: str, op_prefix: str = "") -> List[float]:
        """Durations of the spans called ``name`` (of matching operations)."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name and (r["op"] or "").startswith(op_prefix)]

    def self_times(self) -> Dict[str, float]:
        """Seconds each layer spent outside its child spans.

        The layer is the span name up to its first dot.  Child spans are
        the ones whose ``parent`` is the span (same process).
        """
        covered: Dict[str, float] = defaultdict(float)
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        totals: Dict[str, float] = defaultdict(float)
        for record in self.records:
            own = record["end"] - record["start"] - covered.get(record["id"], 0.0)
            totals[record["name"].split(".", 1)[0]] += own
        return dict(totals)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def wrap_attr(owner: Any, attr: str, spans: Spans, name: str):
    """Replace ``owner.attr`` by a span-recording wrapper; returns an undo."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        with spans.span(name):
            return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


class Result:
    """One run's outcome: metrics, operation counts and failures by name."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.samples: Dict[str, Dict[str, float]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.extra: Dict[str, Any] = {}
        self.declared: Optional[set] = None

    def add(self, name: str, value: float, unit: str,
            samples: Optional[Iterable[float]] = None) -> None:
        """Record one metric (and the in-run samples it summarizes)."""
        if not METRIC_NAME.match(name):
            raise ValueError(f"bad metric name {name!r}")
        self.metrics[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = quartiles(list(samples))

    def check(self, ok: bool, scenario: str) -> bool:
        """Count one checked operation; remember the scenario if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(scenario)
        return ok

    def declare(self, names: Iterable[str]) -> None:
        """Report only ``names``; a missing one is a failed operation.

        Metrics outside ``names`` stay in the result document.
        """
        self.declared = set(names)
        for name in sorted(self.declared - set(self.metrics)):
            self.check(False, f"metric-missing:{name}")

    def summary(self) -> Dict[str, Any]:
        """The result line: exactly correct, attempted, failed, metrics."""
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {name: metric for name, metric in self.metrics.items()
                        if self.declared is None or name in self.declared},
        }
