"""``repro.serve`` -- the persistent verification service.

The CLI answers one question per process: parse, compile, extract,
answer, exit.  This package keeps all of that resident and answers a
stream of questions over a socket instead:

* :mod:`.protocol` -- the NDJSON wire protocol: request/response
  envelopes, error codes, field helpers.
* :mod:`.server` -- the asyncio front end, the resident
  :class:`~repro.serve.server.CircuitRegistry`, the per-operation
  handlers, the budget and shutdown discipline.
* :mod:`.report` -- the rolling service report (request counts, sweep
  counts, cache hit rates, latency quantiles).
* :mod:`.client` -- the reference blocking client and the in-process
  background-server harness used by tests and the doctested manual.

Start one with ``repro serve --port 7357``; the full protocol reference
and a worked live example are in ``docs/SERVICE.md``.
"""

from .client import ServeClient, start_background_server
from .protocol import ERROR_CODES, OPS, PROTOCOL_VERSION, RequestError
from .report import SERVICE_SCHEMA_VERSION, ServiceStats
from .server import CircuitRegistry, ReproServer

__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "SERVICE_SCHEMA_VERSION",
    "CircuitRegistry",
    "ReproServer",
    "RequestError",
    "ServeClient",
    "ServiceStats",
    "start_background_server",
]
