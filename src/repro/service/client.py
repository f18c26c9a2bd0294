"""A blocking client for the simulation service (CLI, bench, tests).

:class:`ServiceClient` wraps one TCP connection speaking the
newline-delimited JSON protocol of :mod:`repro.service.protocol`.  It is
deliberately synchronous — the CLI, the load-test harness (which wants
one thread per connection measuring real end-to-end latency) and test
code all prefer plain blocking calls; concurrency lives server-side.

Transport failures (refused connection, timeout, server gone away) raise
:class:`~repro.errors.ServiceConnectionError` with a one-line message —
which the CLI maps to exit 2, matching the unknown-experiment
convention.  Application failures (the server answered ``ok: false``)
raise plain :class:`~repro.errors.ServiceError` from the convenience
methods, or can be inspected via :meth:`ServiceClient.request`.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Mapping, Optional

from repro.errors import ServiceConnectionError, ServiceError
from repro.service import protocol

#: Default per-operation socket timeout, generous enough for an uncached
#: million-access simulation.
DEFAULT_TIMEOUT_S = 600.0


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.SimulationServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = protocol.DEFAULT_PORT,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        """Connect immediately; raises ``ServiceConnectionError`` on failure."""
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as error:
            raise ServiceConnectionError(
                f"cannot connect to {host}:{port}: {error}"
            ) from error
        self._file = self._sock.makefile("rwb")

    def request(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one request object; returns the raw response object.

        Raises :class:`~repro.errors.ServiceConnectionError` on transport
        failure; an ``ok: false`` response is returned, not raised.
        """
        try:
            self._file.write(protocol.encode_message(message))
            self._file.flush()
            raw = self._file.readline()
        except (OSError, ValueError) as error:
            raise ServiceConnectionError(
                f"lost connection to {self.host}:{self.port}: {error}"
            ) from error
        return protocol.read_response(raw)

    def _checked(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        response = self.request(message)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown server error"))
        return response

    def ping(self) -> Dict[str, Any]:
        """Round-trip a ping; returns the pong response."""
        return self._checked({"kind": "ping"})

    def stats(self) -> Dict[str, Any]:
        """The server's stats document (counters, cache, latency, pool)."""
        return self._checked({"kind": "stats"})["stats"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit; returns its acknowledgement."""
        return self._checked({"kind": "shutdown"})

    def simulate(
        self,
        benchmark: str,
        config: str,
        trace_length: Optional[int] = None,
        seed: int = 0,
        engine: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit one simulation; returns the full ok-response.

        The response's ``payload`` is byte-identical (as canonical JSON)
        to ``repro.simulate()`` for the same normalized parameters;
        ``cache`` reports provenance (``hit`` / ``miss`` / ``coalesced``)
        and ``digest`` the coalescing key.
        """
        request: Dict[str, Any] = {
            "kind": "simulate",
            "benchmark": benchmark,
            "config": config,
            "seed": seed,
        }
        if trace_length is not None:
            request["trace_length"] = trace_length
        if engine is not None:
            request["engine"] = engine
        return self._checked(request)

    def predict(
        self,
        benchmark: str,
        config: str,
        trace_length: Optional[int] = None,
        seed: int = 0,
    ) -> Dict[str, Any]:
        """Ask the server's analytical surrogate for an instant estimate.

        The response's ``payload`` carries the predicted IPC, hit rates
        and L2 energy (see :mod:`repro.surrogate`); the worker pool is
        never involved, so a warm prediction answers in microseconds.
        """
        request: Dict[str, Any] = {
            "kind": "predict",
            "benchmark": benchmark,
            "config": config,
            "seed": seed,
        }
        if trace_length is not None:
            request["trace_length"] = trace_length
        return self._checked(request)

    def experiment(
        self,
        experiment: str,
        trace_length: Optional[int] = None,
        seed: int = 0,
        benchmarks: Optional[list] = None,
    ) -> Dict[str, Any]:
        """Submit one experiment; returns the full ok-response."""
        request: Dict[str, Any] = {
            "kind": "experiment",
            "experiment": experiment,
            "seed": seed,
        }
        if trace_length is not None:
            request["trace_length"] = trace_length
        if benchmarks is not None:
            request["benchmarks"] = list(benchmarks)
        return self._checked(request)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the already-open client."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()
