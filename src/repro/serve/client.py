"""A small blocking client for ``repro serve``, plus a test harness.

:class:`ServeClient` is the reference client: one socket, newline-
delimited JSON both ways, synchronous ``request`` plus a pipelined
``request_many`` that matches responses back to requests by ``id``.
It exists so the functional tests, the conformance fuzzer's served
arms and the doctested walkthrough in ``docs/SERVICE.md`` all talk to
the server through one audited code path -- but the protocol is plain
enough that ``nc`` works too (see the manual).

:func:`start_background_server` runs a :class:`ReproServer` on a daemon
thread with its own event loop and returns once the socket is
accepting; it is how the doctests and the pytest fixtures get a live
server inside one process.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any, Dict, List, Sequence, Tuple

from .server import ReproServer

__all__ = ["ServeClient", "start_background_server"]


class ServeClient:
    """A blocking NDJSON client for one server connection.

    >>> client = ServeClient(("127.0.0.1", 7357))   # doctest: +SKIP
    >>> client.request({"op": "ping"})["ok"]        # doctest: +SKIP
    True
    """

    def __init__(
        self, address: Any, *, timeout: float = 60.0, unix: bool = False
    ) -> None:
        if unix or isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.connect(address)
        else:
            self._sock = socket.create_connection(tuple(address), timeout=timeout)
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rwb")
        self._auto_id = 0

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def send(self, request: Dict[str, Any]) -> Any:
        """Write one request line (auto-assigning ``id`` when absent);
        returns the ``id`` the response will carry."""
        if "id" not in request:
            self._auto_id += 1
            request = dict(request, id=self._auto_id)
        self._file.write((json.dumps(request) + "\n").encode("utf-8"))
        self._file.flush()
        return request["id"]

    def recv(self) -> Dict[str, Any]:
        """Read one response line (raises ``ConnectionError`` on EOF)."""
        raw = self._file.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return json.loads(raw.decode("utf-8"))

    # -- the convenient forms ---------------------------------------------

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request, one response."""
        self.send(request)
        return self.recv()

    def result(self, request: Dict[str, Any]) -> Any:
        """One request's ``result``; raises ``RuntimeError`` on an error
        envelope (message includes the error code)."""
        response = self.request(request)
        if not response.get("ok"):
            error = response.get("error", {})
            raise RuntimeError(
                "%s: %s" % (error.get("code"), error.get("message"))
            )
        return response["result"]

    def request_many(
        self, requests: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Pipeline *requests* on this connection; responses returned in
        request order (matched by ``id``, however they arrive)."""
        ids = [self.send(request) for request in requests]
        by_id: Dict[Any, Dict[str, Any]] = {}
        for _ in ids:
            response = self.recv()
            by_id[response.get("id")] = response
        return [by_id[i] for i in ids]


def start_background_server(
    **kwargs: Any,
) -> Tuple[ReproServer, Tuple[str, int], threading.Thread]:
    """Run a :class:`ReproServer` on a daemon thread; returns
    ``(server, address, thread)`` once the socket accepts connections.

    Keyword arguments go to :class:`ReproServer` (``port`` defaults to
    0 = ephemeral).  Stop it by sending ``{"op": "shutdown"}`` -- the
    loop drains, the thread exits, and ``thread.join()`` returns.
    """
    started = threading.Event()
    box: Dict[str, Any] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ReproServer(**kwargs)
        box["server"] = server
        try:
            loop.run_until_complete(server.start())
            started.set()
            loop.run_until_complete(server.wait_closed())
        except BaseException as exc:  # surface init failures to the caller
            box["error"] = exc
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in box:
        raise box["error"]
    if "server" not in box or box["server"].address is None:
        raise RuntimeError("server failed to start within 30s")
    return box["server"], box["server"].address, thread
