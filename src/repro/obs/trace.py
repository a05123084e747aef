"""The process-wide tracer: spans, counters, and the hot-path guard.

Design constraints, in order of importance:

1. **Disabled cost is one attribute check.**  Every instrumented hot
   path guards with ``if TRACER.enabled:`` -- a module-global load plus
   a slot read, nothing else.  No context manager is allocated, no
   dictionary touched, no function called.  The acceptance bar for the
   whole subsystem is that the fault-grading benchmark regresses by
   less than 2% with tracing off.
2. **Bounded memory when enabled.**  Spans aggregate by *path* (the
   stack of open span names joined with ``/``) into a fixed-size
   ``[count, total, min, max]`` record; counters are plain integers.  A
   million-cycle simulation produces the same report size as a
   ten-cycle one.
3. **No dependencies.**  This module imports only the standard library,
   so every layer of the stack can import it without cycles.

The tracer is deliberately process-local and single-threaded, matching
the execution model of the library: every sweep runs in-process.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "TRACER",
    "Tracer",
    "TimedRun",
    "span",
    "timed",
    "traced",
    "incr",
]


class Tracer:
    """Mutable trace state.  One process-wide instance: :data:`TRACER`.

    Attributes
    ----------
    enabled:
        THE hot-path guard.  Instrumented code must check this before
        doing any other tracing work.
    counters:
        Monotonic counters, name -> int.
    spans:
        Aggregated span timings, path -> ``[count, total, min, max]``
        (seconds).  The path is the names of all open spans joined with
        ``/``, so nesting is preserved without unbounded event lists.
    stack:
        Names of the currently open spans, outermost first.
    meta:
        Free-form run metadata carried into the report (command, CLI
        argv, ...).
    """

    __slots__ = ("enabled", "counters", "spans", "stack", "meta")

    def __init__(self) -> None:
        self.enabled = False
        self.counters: Dict[str, int] = {}
        self.spans: Dict[str, List[float]] = {}
        self.stack: List[str] = []
        self.meta: Dict[str, Any] = {}

    # -- state management --------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded data (leaves ``enabled`` untouched)."""
        self.counters.clear()
        self.spans.clear()
        self.stack.clear()
        self.meta.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Copy the full state, for save/restore around :func:`timed`."""
        return {
            "enabled": self.enabled,
            "counters": dict(self.counters),
            "spans": {k: list(v) for k, v in self.spans.items()},
            "stack": list(self.stack),
            "meta": dict(self.meta),
        }

    def restore(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot`."""
        self.enabled = state["enabled"]
        self.counters = dict(state["counters"])
        self.spans = {k: list(v) for k, v in state["spans"].items()}
        self.stack = list(state["stack"])
        self.meta = dict(state["meta"])

    # -- recording ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* (only when enabled)."""
        if self.enabled:
            counters = self.counters
            counters[name] = counters.get(name, 0) + amount

    def merge_timing(self, path: str, elapsed: float) -> None:
        """Fold one measured duration into the aggregate for *path*."""
        record = self.spans.get(path)
        if record is None:
            self.spans[path] = [1, elapsed, elapsed, elapsed]
        else:
            record[0] += 1
            record[1] += elapsed
            if elapsed < record[2]:
                record[2] = elapsed
            if elapsed > record[3]:
                record[3] = elapsed


#: The process-wide tracer.  Hot paths do ``if TRACER.enabled:``.
TRACER = Tracer()


# ---------------------------------------------------------------------------
# Spans.
# ---------------------------------------------------------------------------


class _NullSpan:
    """Shared do-nothing context manager returned while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("name", "start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = 0.0

    def __enter__(self) -> "_Span":
        TRACER.stack.append(self.name)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = perf_counter() - self.start
        stack = TRACER.stack
        path = "/".join(stack)
        if stack and stack[-1] == self.name:
            stack.pop()
        TRACER.merge_timing(path, elapsed)
        return False


def span(name: str):
    """A timed span context manager (no-op while tracing is disabled).

    Nested spans aggregate under their full path: opening
    ``span("retime")`` inside ``span("cli.bench")`` records under
    ``"cli.bench/retime"``.  Repeated entries of the same path merge
    into one ``(count, total, min, max)`` record.
    """
    if not TRACER.enabled:
        return _NULL_SPAN
    return _Span(name)


def traced(name: str):
    """Decorator form of :func:`span` for whole functions.

    Suitable for *cold* entry points (retiming solvers, STG extraction,
    redundancy removal): when tracing is disabled the only cost is the
    wrapper call plus the usual attribute check, which is negligible for
    anything that is not per-cycle work.
    """

    def decorate(fn):
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            with _Span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def incr(name: str, amount: int = 1) -> None:
    """Module-level convenience for ``TRACER.incr``."""
    if TRACER.enabled:
        counters = TRACER.counters
        counters[name] = counters.get(name, 0) + amount


# ---------------------------------------------------------------------------
# The benchmark helper.
# ---------------------------------------------------------------------------


class TimedRun:
    """Handle yielded by :func:`timed`; ``report`` is set on exit."""

    __slots__ = ("report",)

    def __init__(self) -> None:
        self.report: Optional[Any] = None  # RunReport, set on exit


@contextmanager
def timed(label: str = "timed", **meta: Any) -> Iterator[TimedRun]:
    """Trace a block in isolation and hand back its :class:`RunReport`.

    Saves the tracer's current state, runs the block with a fresh
    enabled tracer, builds the report, then restores whatever tracing
    state was active before -- so benchmarks can measure a region
    without perturbing (or being perturbed by) an outer ``--trace``.

    >>> from repro import obs
    >>> with obs.timed("demo") as run:
    ...     with obs.span("work"):
    ...         pass
    >>> run.report.span("demo/work") is not None
    True
    """
    from .report import build_report  # local import: report imports nothing back

    saved = TRACER.snapshot()
    TRACER.clear()
    TRACER.meta.update(meta)
    TRACER.meta.setdefault("label", label)
    TRACER.enabled = True
    holder = TimedRun()
    start = perf_counter()
    try:
        with _Span(label):
            yield holder
    finally:
        TRACER.enabled = False
        TRACER.meta["elapsed_s"] = perf_counter() - start
        holder.report = build_report()
        TRACER.restore(saved)
