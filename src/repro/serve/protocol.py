"""The wire protocol of ``repro serve``: newline-delimited JSON.

One request is one line of JSON; one response is one line of JSON.  The
full schema per request type, the error envelope and a worked live
example are in ``docs/SERVICE.md`` (doctested); this module is the
single place the envelope shapes are built and requests are parsed, so
the documentation and the server cannot drift apart.

Request envelope (fields beyond these are per-operation)::

    {"op": "<operation>", "id": <any JSON value, echoed back>, ...}

Response envelope::

    {"v": 1, "id": ..., "op": ..., "ok": true,  "result": {...}, "elapsed_ms": ...}
    {"v": 1, "id": ..., "op": ..., "ok": false, "error": {"code": ..., "message": ...}}

``id`` is chosen by the client and echoed verbatim; responses to
pipelined requests may arrive in completion order, so clients that
pipeline must match on ``id``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ERROR_CODES",
    "OPS",
    "PROTOCOL_VERSION",
    "RequestError",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_binary_tests",
    "parse_request_line",
    "require_str",
    "take_int",
]

PROTOCOL_VERSION = 1

#: The operations the server dispatches on.
OPS = (
    "ping",
    "load",
    "check-validity",
    "safe-replacement",
    "fault-grade",
    "report",
    "shutdown",
)

#: Error envelope codes.
#:
#: ``parse-error``      the request line is not a JSON object
#: ``bad-request``      a field is missing, ill-typed or inconsistent
#: ``unknown-op``       the ``op`` is not one of :data:`OPS`
#: ``unknown-circuit``  a named circuit was never loaded
#: ``budget-exceeded``  the analysis ran out of its search budget
#:                      (the request is *undecided*, the server is fine)
#: ``shutting-down``    the server is draining and takes no new work
#: ``internal-error``   an unexpected exception (reported, never fatal)
ERROR_CODES = (
    "parse-error",
    "bad-request",
    "unknown-op",
    "unknown-circuit",
    "budget-exceeded",
    "shutting-down",
    "internal-error",
)


class RequestError(Exception):
    """A request that cannot be served, carrying its envelope code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError("unknown error code %r" % code)
        super().__init__(message)
        self.code = code
        self.message = message


def parse_request_line(line: str) -> Dict[str, Any]:
    """Parse one request line into a dict (raises :class:`RequestError`).

    >>> parse_request_line('{"op": "ping"}')
    {'op': 'ping'}
    >>> parse_request_line("not json")
    Traceback (most recent call last):
    ...
    repro.serve.protocol.RequestError: request line is not valid JSON
    """
    try:
        obj = json.loads(line)
    except ValueError:
        raise RequestError("parse-error", "request line is not valid JSON") from None
    if not isinstance(obj, dict):
        raise RequestError("parse-error", "request must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Response envelopes.
# ---------------------------------------------------------------------------


def ok_response(
    request: Dict[str, Any],
    result: Any,
    *,
    elapsed_ms: Optional[float] = None,
    report: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The success envelope for *request* carrying *result*."""
    response: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request.get("id"),
        "op": request.get("op"),
        "ok": True,
        "result": result,
    }
    if elapsed_ms is not None:
        response["elapsed_ms"] = round(elapsed_ms, 3)
    if report is not None:
        response["report"] = report
    return response


def error_response(
    request: Optional[Dict[str, Any]], code: str, message: str
) -> Dict[str, Any]:
    """The error envelope (*request* is ``None`` for unparseable lines)."""
    if code not in ERROR_CODES:
        raise ValueError("unknown error code %r" % code)
    request = request or {}
    return {
        "v": PROTOCOL_VERSION,
        "id": request.get("id"),
        "op": request.get("op"),
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_response(response: Dict[str, Any]) -> bytes:
    """One response as one newline-terminated JSON line."""
    return (json.dumps(response, sort_keys=False) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Field helpers shared by the handlers.
# ---------------------------------------------------------------------------


def require_str(obj: Dict[str, Any], key: str) -> str:
    """A required string field, or a ``bad-request`` error."""
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise RequestError("bad-request", "field %r must be a non-empty string" % key)
    return value


def take_int(
    obj: Dict[str, Any], key: str, default: int, *, minimum: int = 0
) -> int:
    """An optional integer field with a default and a lower bound."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("bad-request", "field %r must be an integer" % key)
    if value < minimum:
        raise RequestError("bad-request", "field %r must be >= %d" % (key, minimum))
    return value


def parse_binary_tests(
    tests: Any, width: int
) -> Tuple[Tuple[Tuple[bool, ...], ...], ...]:
    """Parse the wire form of a binary test set.

    Tests arrive as the CLI prints them: a list of strings, one test
    per string, comma-separated cycles of ``0``/``1`` vectors::

        ["010,110", "001"]

    >>> parse_binary_tests(["01,10"], 2)
    (((False, True), (True, False)),)
    """
    if not isinstance(tests, (list, tuple)) or not tests:
        raise RequestError(
            "bad-request", "field 'tests' must be a non-empty list of strings"
        )
    parsed = []
    for index, text in enumerate(tests):
        if not isinstance(text, str) or not text:
            raise RequestError(
                "bad-request", "test %d must be a non-empty string" % index
            )
        vectors = []
        for cycle, chunk in enumerate(text.split(",")):
            if len(chunk) != width or any(ch not in "01" for ch in chunk):
                raise RequestError(
                    "bad-request",
                    "test %d cycle %d: expected %d characters of 0/1, got %r"
                    % (index, cycle, width, chunk),
                )
            vectors.append(tuple(ch == "1" for ch in chunk))
        parsed.append(tuple(vectors))
    return tuple(parsed)
