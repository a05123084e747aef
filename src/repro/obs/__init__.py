"""``repro.obs`` -- lightweight observability for the whole pipeline.

Hierarchical timed spans, monotonic counters, and a JSON-serialisable
:class:`RunReport`, instrumenting the hot paths end to end: circuit
compilation (:mod:`repro.sim.compiled`), the compiled simulators,
fault grading and ATPG, the retiming engine and validity checks, and
redundancy removal.

Usage -- library::

    from repro import obs

    obs.enable(command="script")
    ...                                # instrumented work
    report = obs.report()
    report.write("run.json")
    obs.disable()

Usage -- benchmarks (state-isolated)::

    with obs.timed("fault-grading") as run:
        simulator.run_test_set(tests)
    print(run.report.summary())

Usage -- CLI: the global ``--trace`` (summary to stderr) and
``--report FILE.json`` flags go before any subcommand, e.g.
``python -m repro --trace paper`` or ``python -m repro --report
run.json check ORIGINAL RETIMED --stg``.

**Overhead contract**: with tracing disabled (the default) every
instrumentation site reduces to a single attribute check
(``if TRACER.enabled:``).  On s27 fault grading,
``benchmarks/results/obs_overhead.txt`` (written by
``benchmarks/test_bench_observability.py``) records 1.039x enabled vs
disabled, and +8.13% for the disabled tracer against the
pre-instrumentation baseline.  Span and counter memory is bounded:
aggregation is by span path / counter name, never per event.  The
full span/counter naming scheme and the report JSON schema are
documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any

from .report import SCHEMA_VERSION, RunReport, SpanStats, build_report
from .trace import TRACER, TimedRun, Tracer, incr, span, timed, traced

__all__ = [
    "SCHEMA_VERSION",
    "RunReport",
    "SpanStats",
    "TRACER",
    "TimedRun",
    "Tracer",
    "build_report",
    "disable",
    "enable",
    "enabled",
    "incr",
    "report",
    "reset",
    "span",
    "timed",
    "traced",
]


def enabled() -> bool:
    """Is tracing currently on?"""
    return TRACER.enabled


def enable(**meta: Any) -> None:
    """Turn tracing on; keyword arguments land in the report metadata."""
    TRACER.meta.update(meta)
    TRACER.enabled = True


def disable() -> None:
    """Turn tracing off (recorded data is kept until :func:`reset`)."""
    TRACER.enabled = False


def reset() -> None:
    """Drop all recorded spans, counters and metadata."""
    TRACER.clear()


def report() -> RunReport:
    """Freeze the current tracer state into a :class:`RunReport`."""
    return build_report()
