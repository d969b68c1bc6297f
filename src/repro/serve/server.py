"""Asyncio TCP front end of the query service (``repro serve``).

One connection carries any number of newline-delimited JSON requests;
responses come back in request order per connection. Query execution is
CPU-bound python, so each request is dispatched to the default thread
pool (`run_in_executor`) — the event loop stays free to accept and read
other connections, and the engine's per-request pin/context design makes
concurrent execution safe.

Lifecycle guarantees:

* **per-query timeout** (``query_timeout``): a query past budget is
  answered with a ``timeout`` error envelope (its worker finishes in the
  background; the connection stays usable);
* **error envelopes**: malformed input and engine errors answer
  ``bad_request``, unexpected exceptions answer ``internal`` — a bad
  request never kills the connection, let alone the server;
* **graceful shutdown** (the ``shutdown`` op, or :meth:`TrussServer.stop`):
  the listener closes first, in-flight requests drain and answer, then
  connections close and :meth:`serve_forever` returns.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, Optional

from ..errors import ServeError
from ..observability.metrics import global_metrics
from .engine import QueryEngine
from .protocol import (
    decode_line,
    encode_envelope,
    error_envelope,
    request_id_of,
)

#: Default bind address of :class:`TrussServer` and ``repro serve``.
DEFAULT_HOST = "127.0.0.1"
#: Default port; ``0`` asks the OS for an ephemeral one (announced on startup).
DEFAULT_PORT = 0
#: Default per-query wall-clock budget in seconds.
DEFAULT_QUERY_TIMEOUT = 30.0


class TrussServer:
    """The asyncio TCP server wrapping a :class:`QueryEngine`-compatible
    executor (:class:`~repro.serve.router.ShardedRouter` fits too).

    *host* must be non-empty, *port* in ``[0, 65535]`` (``0``: ephemeral)
    and *query_timeout* positive or ``None`` (no limit); anything else
    raises :class:`~repro.errors.ServeError`.

    Example
    -------
    ::

        server = TrussServer(engine, host="127.0.0.1", port=0)
        asyncio.run(server.serve_forever())   # until a shutdown request
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        query_timeout: Optional[float] = DEFAULT_QUERY_TIMEOUT,
    ) -> None:
        if not host:
            raise ServeError("host must be a non-empty address")
        if not 0 <= port <= 65535:
            raise ServeError(f"port must be in [0, 65535], got {port}")
        if query_timeout is not None and query_timeout <= 0:
            raise ServeError(
                f"query timeout must be positive or None, got {query_timeout}"
            )
        self.engine = engine
        self.host = host
        self.port = port
        self.query_timeout = query_timeout
        self.address: Optional[tuple] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._inflight = 0
        self._drained: Optional[asyncio.Event] = None
        self.requests_served = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> tuple:
        """Bind and listen; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServeError("server already started")
        self._shutdown = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) drains us."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
            # Stop accepting, then let in-flight work answer before the
            # connections go away.
            self._server.close()
            await self._server.wait_closed()
            await self._drained.wait()
        self._server = None

    def stop(self) -> None:
        """Trigger the graceful-shutdown sequence from outside."""
        if self._shutdown is not None:
            self._shutdown.set()

    @property
    def stopping(self) -> bool:
        return self._shutdown is not None and self._shutdown.is_set()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    def _track(self, delta: int) -> None:
        self._inflight += delta
        if self._inflight == 0:
            self._drained.set()
        else:
            self._drained.clear()
        global_metrics().gauge("serve.inflight").set(self._inflight)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.stopping:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._track(+1)
                try:
                    envelope = await self._answer(line)
                finally:
                    self._track(-1)
                writer.write(encode_envelope(envelope))
                try:
                    await writer.drain()
                except ConnectionResetError:
                    break
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _answer(self, line: bytes) -> Dict[str, Any]:
        request: Optional[Dict[str, Any]] = None
        try:
            request = decode_line(line)
            if request.get("op") == "shutdown":
                self.stop()
                return {
                    "id": request_id_of(request),
                    "ok": True,
                    "op": "shutdown",
                    "result": {"draining": True},
                }
            loop = asyncio.get_running_loop()
            future = loop.run_in_executor(None, self.engine.execute, request)
            envelope = await asyncio.wait_for(future, self.query_timeout)
            self.requests_served += 1
            return envelope
        except asyncio.TimeoutError:
            global_metrics().counter("serve.errors", type="timeout").inc()
            return error_envelope(
                request_id_of(request), "timeout",
                f"query exceeded {self.query_timeout}s",
            )
        except ServeError as exc:
            global_metrics().counter("serve.errors", type="bad_request").inc()
            return error_envelope(request_id_of(request), "bad_request", str(exc))
        except Exception as exc:  # noqa: BLE001 - a query must never kill the server
            global_metrics().counter("serve.errors", type="internal").inc()
            return error_envelope(
                request_id_of(request), "internal",
                f"{type(exc).__name__}: {exc}",
            )


def run_server(
    engine: QueryEngine,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    query_timeout: Optional[float] = DEFAULT_QUERY_TIMEOUT,
    on_started=None,
) -> TrussServer:
    """Blocking convenience: start, announce, serve until shutdown.

    *on_started* is called with the bound ``(host, port)`` once the
    listener is up (the CLI prints it; tests grab the ephemeral port).
    """
    server = TrussServer(
        engine, host=host, port=port, query_timeout=query_timeout
    )

    async def _main() -> None:
        address = await server.start()
        if on_started is not None:
            on_started(address)
        await server.serve_forever()

    asyncio.run(_main())
    return server
