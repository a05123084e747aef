"""``repro serve`` -- the persistent verification service.

One CLI invocation pays parse + compile + STG extraction from scratch
and throws the result away; the server keeps all of it resident and
answers verdict requests over a socket instead:

* **resident state** -- a :class:`CircuitRegistry` of named circuits
  (the compiled flat op program is cached *on* each circuit object, so
  it survives with the circuit) plus a content-hash parse cache for
  inline ``.bench``/BLIF text.
* **one path per operation** -- every request runs its operation's
  handler on the worker pool; ``check-validity`` answers its sampled
  check with :func:`repro.retime.validity.first_cls_difference`, the
  call behind the CLI's ``check``.
* **budget discipline** -- containment questions go through
  :func:`repro.decide.decide`, as the CLI's do; an undecided verdict
  (a blown budget, or an STG too large to enumerate) and an exhausted
  CLS-equivalence search both turn into a structured
  ``budget-exceeded`` error envelope (the request is *undecided*),
  never a crash and never a wedged server.
* **observability** -- a rolling :class:`~repro.serve.report.ServiceStats`
  (request counts, sweep counts, cache hit rates, p50/p99 latency)
  any client can fetch with ``{"op": "report"}``, plus an optional
  per-request :class:`repro.obs.RunReport` for requests sent with
  ``"trace": true`` (traced requests run the same handler, serialised
  so the report covers exactly that request's work).

The wire protocol (newline-delimited JSON over TCP or a unix socket) is
specified in :mod:`repro.serve.protocol` and documented with a live
worked example in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from .. import obs
from ..decide import ENGINES, decide, get_default_engine
from ..netlist.circuit import Circuit
from ..netlist.io_bench import parse_bench
from ..netlist.transform import normalize_fanout
from ..netlist.validate import check_interfaces, validate
from ..retime.validity import first_cls_difference, random_ternary_sequences
from ..sim.exact import SweepTooLarge
from ..sim.fault import FaultSimulator
from ..stg.replaceability import SearchBudgetExceeded
from ..stg.symbolic_replaceability import REORDER_MODES, get_default_reorder
from ..stg.ternary_equiv import decide_cls_equivalence
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    RequestError,
    encode_response,
    error_response,
    ok_response,
    parse_binary_tests,
    parse_request_line,
    require_str,
    take_int,
)
from .report import ServiceStats

__all__ = ["CircuitRegistry", "ReproServer"]

#: Worker threads executing request bodies.
WORKER_THREADS = 4

#: Longest request line, in bytes before its newline (asyncio's default
#: ``StreamReader`` limit).  A longer line answers one ``parse-error``
#: envelope and closes its connection.
LINE_LIMIT = 2 ** 16


# ---------------------------------------------------------------------------
# Resident circuit state.
# ---------------------------------------------------------------------------


class CircuitRegistry:
    """Named circuits plus a content-hash parse cache, both resident.

    ``load`` registers a circuit under a client-chosen name; later
    requests reference it as ``"circuit": "name"`` and hit the same
    *object* every time -- which is exactly what keeps the compiled op
    program (cached on the circuit) effective across requests.  Inline
    ``{"bench": "..."}`` references go through the parse cache instead:
    identical text is parsed once, ever.
    """

    def __init__(self, stats: ServiceStats) -> None:
        self.stats = stats
        self._lock = threading.Lock()
        self._named: Dict[str, Tuple[str, Circuit]] = {}
        self._parsed: Dict[str, Circuit] = {}

    @staticmethod
    def _content_key(text: str, fmt: str) -> str:
        return hashlib.sha256((fmt + "\0" + text).encode("utf-8")).hexdigest()

    def _parse(self, text: str, fmt: str, name: str) -> Tuple[str, Circuit]:
        key = self._content_key(text, fmt)
        with self._lock:
            cached = self._parsed.get(key)
        if cached is not None:
            self.stats.record_cache("parsed", hit=True)
            return key, cached
        try:
            if fmt == "blif":
                from ..netlist.io_blif import parse_blif

                circuit = parse_blif(text, name=name).circuit
            else:
                circuit = parse_bench(text, name=name)
            circuit = normalize_fanout(circuit)
            validate(circuit)
        except RequestError:
            raise
        except Exception as exc:
            raise RequestError(
                "bad-request", "cannot parse circuit %r: %s" % (name, exc)
            ) from None
        self.stats.record_cache("parsed", hit=False)
        with self._lock:
            # Under a race the first parse wins, so the program compiled
            # for this text stays cached on one circuit object.
            circuit = self._parsed.setdefault(key, circuit)
        return key, circuit

    def load(self, name: str, text: str, fmt: str = "bench") -> Tuple[Circuit, bool]:
        """Register *text* under *name*; returns ``(circuit, cached)``
        where *cached* says the exact content was already resident."""
        if fmt not in ("bench", "blif"):
            raise RequestError("bad-request", "format must be 'bench' or 'blif'")
        key, circuit = self._parse(text, fmt, name)
        with self._lock:
            previous = self._named.get(name)
            self._named[name] = (key, circuit)
        return circuit, previous is not None and previous[0] == key

    def get(self, name: str) -> Circuit:
        """A named circuit (``unknown-circuit`` error when absent)."""
        with self._lock:
            entry = self._named.get(name)
        if entry is None:
            self.stats.record_cache("circuits", hit=False)
            raise RequestError(
                "unknown-circuit",
                "no circuit named %r is loaded (use {\"op\": \"load\"} first)" % name,
            )
        self.stats.record_cache("circuits", hit=True)
        return entry[1]

    def resolve(self, request: Dict[str, Any], field: str) -> Circuit:
        """A circuit reference: a registry name or inline circuit text.

        ``"field": "name"`` looks the name up; ``"field": {"bench":
        "..."}`` (or ``{"blif": "..."}``) parses inline through the
        content cache.
        """
        ref = request.get(field)
        if isinstance(ref, str):
            return self.get(ref)
        if isinstance(ref, dict):
            for fmt in ("bench", "blif"):
                text = ref.get(fmt)
                if isinstance(text, str) and text:
                    return self._parse(text, fmt, ref.get("name", field))[1]
        raise RequestError(
            "bad-request",
            "field %r must be a loaded circuit name or an inline "
            '{"bench": "..."} / {"blif": "..."} object' % field,
        )

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._named))


def _check_interfaces(a: Circuit, b: Circuit) -> None:
    try:
        check_interfaces(a, b)
    except ValueError as exc:
        raise RequestError("bad-request", str(exc)) from None


# ---------------------------------------------------------------------------
# The server.
# ---------------------------------------------------------------------------


class ReproServer:
    """The asyncio front end; see the module docstring for the design.

    Parameters
    ----------
    host, port:
        TCP endpoint (``port=0`` picks an ephemeral port, exposed as
        ``self.address`` after :meth:`start`).
    unix_socket:
        Path for a unix-domain socket; overrides host/port when given.
    budget:
        Default search budget for containment/equivalence analyses
        (``None`` -> the library defaults); individual requests may
        override with their own ``"budget"`` field.
    service_report_path:
        Where to write the final rolling service report on shutdown.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_socket: Optional[str] = None,
        budget: Optional[int] = None,
        service_report_path: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.budget = budget
        self.service_report_path = service_report_path
        self.stats = ServiceStats()
        self.registry = CircuitRegistry(self.stats)
        self.address: Optional[Any] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inflight: set = set()
        self._writers: set = set()
        self._draining = False
        self._shutdown_started = False
        self._closed: Optional[asyncio.Event] = None
        self._trace_lock = threading.Lock()
        self._handlers: Dict[str, Callable] = {
            "ping": self._sync_ping,
            "load": self._sync_load,
            "check-validity": self._sync_check_validity,
            "safe-replacement": self._sync_safe_replacement,
            "fault-grade": self._sync_fault_grade,
            "report": self._sync_report,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the resident state; returns once
        the server is accepting (``self.address`` is then set)."""
        self._closed = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=WORKER_THREADS, thread_name_prefix="repro-serve"
        )
        if self.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.unix_socket, limit=LINE_LIMIT
            )
            self.address = self.unix_socket
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port, limit=LINE_LIMIT
            )
            self.address = self._server.sockets[0].getsockname()[:2]

    async def wait_closed(self) -> None:
        """Block until a graceful shutdown has fully completed."""
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight requests,
        and write the final service report."""
        if self._shutdown_started:
            await self.wait_closed()
            return
        self._shutdown_started = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        current = asyncio.current_task()
        pending = [t for t in self._inflight if t is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.service_report_path:
            self.stats.write(self.service_report_path)
        self._closed.set()

    # -- plumbing ----------------------------------------------------------

    def _run_blocking(self, fn: Callable[[], Any]):
        """Run *fn* on the worker thread pool, awaitably."""
        return asyncio.get_running_loop().run_in_executor(self._executor, fn)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        tasks: set = set()
        try:
            while True:
                try:
                    raw = await reader.readline()
                except ValueError:
                    # An overrun: asyncio dropped the line, and the rest of
                    # the stream cannot be framed, so answer and hang up.
                    self.stats.record_error("invalid", "parse-error")
                    await self._send(
                        error_response(
                            None,
                            "parse-error",
                            "request line longer than the %d-byte limit; "
                            "closing the connection" % LINE_LIMIT,
                        ),
                        writer,
                        write_lock,
                    )
                    break
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, write_lock)
                )
                tasks.add(task)
                self._inflight.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_line(
        self, line: str, writer: asyncio.StreamWriter, write_lock: asyncio.Lock
    ) -> None:
        await self._send(await self._handle_line(line), writer, write_lock)

    @staticmethod
    async def _send(
        response: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        async with write_lock:
            try:
                writer.write(encode_response(response))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass  # client went away mid-answer

    async def _handle_line(self, line: str) -> Dict[str, Any]:
        try:
            request = parse_request_line(line)
        except RequestError as err:
            self.stats.record_error("invalid", err.code)
            return error_response(None, err.code, err.message)
        op = request.get("op")
        if op not in OPS:
            self.stats.record_error(str(op), "unknown-op")
            return error_response(
                request, "unknown-op", "unknown op %r (choose from %s)" % (op, OPS)
            )
        if self._draining and op != "report":
            self.stats.record_error(op, "shutting-down")
            return error_response(
                request, "shutting-down", "server is draining, not accepting work"
            )
        started = perf_counter()
        try:
            if op == "shutdown":
                result: Any = {"draining": len(self._inflight)}
                run_report = None
                # The response goes out first; the drain happens on a
                # separate task that waits for every in-flight request
                # (including this one) to finish.
                self._draining = True
                asyncio.ensure_future(self.shutdown())
            elif request.get("trace"):
                result, run_report = await self._run_blocking(
                    lambda: self._run_traced(op, request)
                )
            else:
                handler = self._handlers[op]
                result = await self._run_blocking(lambda: handler(request))
                run_report = None
        except RequestError as err:
            self.stats.record_error(op, err.code)
            return error_response(request, err.code, err.message)
        except MemoryError as exc:
            # SearchBudgetExceeded subclasses MemoryError; either way the
            # verdict is "undecided within budget", not a server failure.
            self.stats.record_error(op, "budget-exceeded")
            return error_response(
                request,
                "budget-exceeded",
                "undecided: %s (retry with a bigger \"budget\" or the "
                "symbolic engine)" % exc,
            )
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.stats.record_error(op, "internal-error")
            return error_response(
                request, "internal-error", "%s: %s" % (type(exc).__name__, exc)
            )
        elapsed = perf_counter() - started
        self.stats.record_request(op, elapsed)
        return ok_response(
            request, result, elapsed_ms=elapsed * 1e3, report=run_report
        )

    def _run_traced(self, op: str, request: Dict[str, Any]):
        """Run *op* exclusively with per-request observability.

        The tracer is process-global, so traced requests serialise on a
        lock -- the attached RunReport then covers exactly this
        request's work and nobody else's.
        """
        handler = self._handlers[op]
        with self._trace_lock:
            with obs.timed("serve.%s" % op, op=op) as run:
                result = handler(request)
        return result, run.report.to_dict()

    # -- the operations ----------------------------------------------------

    def _budget(self, request: Dict[str, Any]) -> Optional[int]:
        value = request.get("budget")
        if value is None:
            return self.budget
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise RequestError("bad-request", "field 'budget' must be an integer >= 1")
        return value

    def _sync_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol": PROTOCOL_VERSION,
            "engine": get_default_engine(),
            "reorder": get_default_reorder(),
            "uptime_s": round(self.stats.uptime_s, 6),
            "circuits": list(self.registry.names()),
        }

    def _sync_load(self, request: Dict[str, Any]) -> Dict[str, Any]:
        name = require_str(request, "name")
        fmt = "blif" if "blif" in request else "bench"
        text = require_str(request, fmt)
        circuit, cached = self.registry.load(name, text, fmt)
        return {
            "name": name,
            "cached": cached,
            "inputs": len(circuit.inputs),
            "outputs": len(circuit.outputs),
            "latches": circuit.num_latches,
            "cells": circuit.num_cells,
        }

    # .. check-validity ....................................................

    def _sync_check_validity(self, request: Dict[str, Any]) -> Dict[str, Any]:
        original = self.registry.resolve(request, "original")
        retimed = self.registry.resolve(request, "retimed")
        _check_interfaces(original, retimed)
        samples = take_int(request, "samples", 20, minimum=1)
        length = take_int(request, "length", 12, minimum=1)
        seed = take_int(request, "seed", 0)
        sequences = random_ternary_sequences(
            len(original.inputs), count=samples, length=length, seed=seed
        )
        # The report's batch section: one lane pass per circuit, each
        # carrying this request's sequences alone.
        for _ in (original, retimed):
            self.stats.record_batch(1, samples)
        first = first_cls_difference(original, retimed, sequences)
        result: Dict[str, Any] = {
            "equivalent": first is None,
            "samples": samples,
            "length": length,
            "first_difference": (
                None if first is None else {"sequence": first[0], "cycle": first[1]}
            ),
            "exhaustive": None,
        }
        if request.get("exhaustive"):
            budget = self._budget(request)
            engine = request.get("engine")
            if engine is not None and engine not in ENGINES:
                raise RequestError(
                    "bad-request", "engine must be one of %s" % (ENGINES,)
                )
            if engine == "sat":
                # Bounded CNF hunt for a distinguishing ternary word; a
                # blown conflict budget raises SearchBudgetExceeded
                # (a MemoryError), which the dispatcher maps to the
                # structured budget-exceeded envelope.
                from ..sat import check_cls_equivalence

                kwargs = {"max_conflicts": budget} if budget is not None else {}
                verdict = check_cls_equivalence(original, retimed, **kwargs)
                described = None
                if verdict.witness is not None:
                    from ..logic.ternary import format_ternary

                    word = ",".join(
                        "".join(format_ternary(v) for v in vector)
                        for vector in verdict.witness.inputs
                    )
                    described = (
                        "CLS outputs differ at cycle %d on ternary word %s"
                        % (verdict.witness.frames - 1, word)
                    )
                result["exhaustive"] = {
                    "equivalent": verdict.holds,
                    "engine": "sat",
                    "witness": described,
                }
                if not verdict.holds:
                    result["equivalent"] = False
            else:
                kwargs = {"max_pairs": budget} if budget is not None else {}
                witness = decide_cls_equivalence(original, retimed, **kwargs)
                result["exhaustive"] = {
                    "equivalent": witness is None,
                    "witness": witness.describe() if witness is not None else None,
                }
                if witness is not None:
                    result["equivalent"] = False
        return result

    # .. safe-replacement ..................................................

    def _sync_safe_replacement(self, request: Dict[str, Any]) -> Dict[str, Any]:
        candidate = self.registry.resolve(request, "candidate")
        original = self.registry.resolve(request, "original")
        _check_interfaces(candidate, original)
        engine = request.get("engine")
        if engine is not None and engine not in ENGINES:
            raise RequestError(
                "bad-request", "engine must be one of %s" % (ENGINES,)
            )
        reorder = request.get("reorder")
        if reorder is not None and reorder not in REORDER_MODES:
            raise RequestError(
                "bad-request", "reorder must be one of %s" % (REORDER_MODES,)
            )
        (verdict,) = decide(
            candidate,
            original,
            "safe",
            engine=engine,
            reorder=reorder,
            budget=self._budget(request),
        )
        if verdict.undecided:  # the dispatcher's budget-exceeded envelope
            raise SearchBudgetExceeded(verdict.message)
        if verdict.reorder is not None:
            # Fold the manager's reorder counters into the rolling
            # service report (the envelope stays mode-independent).
            self.stats.record_reorder(verdict.reorder, verdict.bdd_stats)
        return {
            "safe": verdict.holds,
            "engine": verdict.engine,
            "witness": verdict.to_json()["witness"],
        }

    # .. fault-grade .......................................................

    def _sync_fault_grade(self, request: Dict[str, Any]) -> Dict[str, Any]:
        circuit = self.registry.resolve(request, "circuit")
        semantics = request.get("semantics", "cls")
        if semantics not in ("cls", "exact"):
            raise RequestError("bad-request", "semantics must be 'cls' or 'exact'")
        tests = parse_binary_tests(request.get("tests"), len(circuit.inputs))
        simulator = FaultSimulator(circuit, semantics=semantics)
        try:
            verdicts = simulator.run_test_set(tests)
        except SweepTooLarge as exc:
            raise RequestError("bad-request", str(exc)) from None
        detected = sum(1 for v in verdicts.values() if v is not None)
        return {
            "semantics": semantics,
            "tests": len(tests),
            "faults": len(verdicts),
            "detected": detected,
            "coverage": detected / len(verdicts) if verdicts else 1.0,
            "verdicts": [
                {"fault": str(fault), "first_test": index}
                for fault, index in verdicts.items()
            ],
        }

    # .. report ............................................................

    def _sync_report(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.stats.snapshot()
