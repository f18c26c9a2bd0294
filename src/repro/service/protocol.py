"""The simulation-service wire protocol: framing, validation, digests.

The service speaks **newline-delimited JSON over TCP**: each request is
one JSON object on one line, each response is one JSON object on one
line, in request order per connection.  No HTTP, no third-party runtime
dependency — the framing is trivial enough that a client fits in a dozen
lines of any language.

Request kinds (``"kind"`` selects the handler)::

    {"kind": "ping"}
    {"kind": "stats"}
    {"kind": "shutdown"}
    {"kind": "simulate", "benchmark": "bfs", "config": "C1",
     "trace_length": 30000, "seed": 0, "engine": "soa"}
    {"kind": "experiment", "experiment": "fig3",
     "trace_length": 15000, "seed": 0, "benchmarks": ["nn", "bfs"]}
    {"kind": "predict", "benchmark": "bfs", "config": "C1",
     "trace_length": 30000, "seed": 0}

Responses carry ``"ok"`` (boolean); successes add ``"kind"`` plus
handler-specific fields (``"payload"``, ``"digest"``, ``"cache"``),
failures add a one-line ``"error"``.

:func:`validate_request` normalizes a raw request against the actual
registries (:func:`repro.config.all_configs`, the benchmark suite, the
engine registry, the experiment registry) and fills every default, so two
requests that mean the same work normalize to the same dict —
:func:`request_digest` over that dict is the **coalescing key**: identical
digests submitted concurrently run one underlying simulation
(docs/service.md).  The digest folds in the config fingerprint and cache
schema exactly like :func:`repro.experiments.parallel.job_key`, so editing
any Table 2 parameter invalidates cached service results too.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

from repro.errors import ServiceError
from repro.io import canonical_json
from repro.telemetry import CACHE_SCHEMA_VERSION, config_fingerprint, content_key

#: Protocol version stamped into ping/stats responses; bump on breaking
#: changes to the request or response schema.
PROTOCOL_VERSION = 1

#: Default TCP port of ``repro-sttgpu serve``.
DEFAULT_PORT = 8642

#: Every request kind the server dispatches.
REQUEST_KINDS = ("ping", "stats", "simulate", "experiment", "predict", "shutdown")

#: Upper bound on a single request's trace length (keeps one request from
#: monopolizing a worker for hours).
MAX_TRACE_LENGTH = 10_000_000

#: Hard cap on one request line's size in bytes (far above any valid
#: request; guards the reader against garbage streams).
MAX_LINE_BYTES = 1 << 20


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Frame one request/response as a canonical-JSON line."""
    return canonical_json(dict(message)).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a request/response object.

    Raises :class:`~repro.errors.ServiceError` (with a one-line message
    safe to echo back to the client) on malformed input.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ServiceError(f"message exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed JSON: {error}") from error
    if not isinstance(message, dict):
        raise ServiceError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(kind: str, **fields: Any) -> Dict[str, Any]:
    """A success response for ``kind`` with handler-specific fields."""
    return {"ok": True, "kind": kind, **fields}


def error_response(message: str) -> Dict[str, Any]:
    """A failure response carrying a one-line diagnostic."""
    return {"ok": False, "error": str(message)}


def _require_int(
    request: Mapping[str, Any], name: str, default: int, low: int, high: int
) -> int:
    value = request.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ServiceError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def _validate_simulate(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.config import all_configs
    from repro.engine import ENGINES, resolve_engine
    from repro.errors import ConfigurationError
    from repro.experiments.common import DEFAULT_TRACE_LENGTH
    from repro.workloads.suite import suite_names

    benchmark = request.get("benchmark")
    if benchmark not in suite_names():
        raise ServiceError(
            f"unknown benchmark {benchmark!r}; choose from {suite_names()}"
        )
    configs = all_configs()
    config = request.get("config")
    if config not in configs:
        raise ServiceError(
            f"unknown config {config!r}; choose from {sorted(configs)}"
        )
    if "shards" in request:
        # rejected, not ignored: an old client must not mistake an exact
        # run for the sharded one it asked for
        raise ServiceError(
            "field 'shards' was removed with the sharded engine; "
            "drop it (every engine is exact)"
        )
    engine = request.get("engine")
    if engine is not None and engine not in ENGINES:
        raise ServiceError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    try:
        # normalize engine=None to the engine that would actually run, so
        # "no preference" and an explicit default coalesce to one digest
        engine = resolve_engine(configs[config], engine)
    except ConfigurationError as error:
        raise ServiceError(str(error)) from error
    normalized = {
        "kind": "simulate",
        "benchmark": benchmark,
        "config": config,
        "trace_length": _require_int(
            request, "trace_length", DEFAULT_TRACE_LENGTH, 1, MAX_TRACE_LENGTH
        ),
        "seed": _require_int(request, "seed", 0, 0, 2**31 - 1),
        "engine": engine,
    }
    return normalized


def _validate_experiment(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.experiments.common import DEFAULT_TRACE_LENGTH
    from repro.experiments.runner import EXPERIMENTS
    from repro.workloads.suite import suite_names

    experiment = request.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ServiceError(
            f"unknown experiment {experiment!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    benchmarks = request.get("benchmarks")
    if benchmarks is not None:
        if not isinstance(benchmarks, list) or not benchmarks:
            raise ServiceError(
                f"benchmarks must be a non-empty list, got {benchmarks!r}"
            )
        unknown = sorted(set(benchmarks) - set(suite_names()))
        if unknown:
            raise ServiceError(f"unknown benchmark(s): {unknown}")
        benchmarks = list(benchmarks)
    return {
        "kind": "experiment",
        "experiment": experiment,
        "trace_length": _require_int(
            request, "trace_length", DEFAULT_TRACE_LENGTH, 1, MAX_TRACE_LENGTH
        ),
        "seed": _require_int(request, "seed", 0, 0, 2**31 - 1),
        "benchmarks": benchmarks,
    }


def _validate_predict(request: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.config import all_configs
    from repro.experiments.common import DEFAULT_TRACE_LENGTH
    from repro.workloads.suite import suite_names

    benchmark = request.get("benchmark")
    if benchmark not in suite_names():
        raise ServiceError(
            f"unknown benchmark {benchmark!r}; choose from {suite_names()}"
        )
    config = request.get("config")
    if config not in all_configs():
        raise ServiceError(
            f"unknown config {config!r}; choose from {sorted(all_configs())}"
        )
    if request.get("engine") is not None:
        raise ServiceError(
            "predict is engine-independent (the surrogate answers); "
            "drop the engine field or use kind=simulate"
        )
    return {
        "kind": "predict",
        "benchmark": benchmark,
        "config": config,
        "trace_length": _require_int(
            request, "trace_length", DEFAULT_TRACE_LENGTH, 1, MAX_TRACE_LENGTH
        ),
        "seed": _require_int(request, "seed", 0, 0, 2**31 - 1),
    }


def validate_request(request: Mapping[str, Any]) -> Dict[str, Any]:
    """Normalize one request against the config/suite/engine registries.

    Returns the normalized request dict (every default filled, engine
    resolved) or raises :class:`~repro.errors.ServiceError` with a
    one-line diagnostic.  Two requests for the same work always normalize
    to the same dict, which is what makes :func:`request_digest` a sound
    coalescing key.
    """
    if not isinstance(request, Mapping):
        raise ServiceError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    kind = request.get("kind")
    if kind not in REQUEST_KINDS:
        raise ServiceError(
            f"unknown request kind {kind!r}; choose from {REQUEST_KINDS}"
        )
    if kind == "simulate":
        return _validate_simulate(request)
    if kind == "experiment":
        return _validate_experiment(request)
    if kind == "predict":
        return _validate_predict(request)
    return {"kind": kind}


def request_digest(normalized: Mapping[str, Any]) -> str:
    """The content digest identifying one unit of service work.

    Only defined for normalized ``simulate``/``experiment``/``predict``
    requests (run them through :func:`validate_request` first).  The
    digest is the SHA-256 of the canonical JSON of the normalized request
    plus the config fingerprint and cache schema version — the same
    construction as :func:`repro.experiments.parallel.job_key`, so a
    parameter edit invalidates both cache populations at once.
    """
    kind = normalized.get("kind")
    if kind not in ("simulate", "experiment", "predict"):
        raise ServiceError(f"request kind {kind!r} has no work digest")
    descriptor = dict(normalized)
    descriptor["cache_schema"] = CACHE_SCHEMA_VERSION
    descriptor["config_fingerprint"] = config_fingerprint()
    return content_key(descriptor)


def read_response(raw: Optional[bytes]) -> Dict[str, Any]:
    """Decode one server response line; raises on transport-level garbage.

    ``None`` or an empty read means the server closed the connection —
    reported as :class:`~repro.errors.ServiceConnectionError` so callers
    can distinguish "server went away" from "server said no".
    """
    from repro.errors import ServiceConnectionError

    if not raw:
        raise ServiceConnectionError("server closed the connection")
    response = decode_line(raw)
    if "ok" not in response:
        raise ServiceError(f"malformed response (no 'ok' field): {response!r}")
    return response
