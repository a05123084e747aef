"""The rolling service report: what the server did since it started.

Where :class:`repro.obs.RunReport` freezes **one run** (one CLI
invocation, one traced request), the :class:`ServiceStats` here is the
**service-lifetime** record a long-running ``repro serve`` instance
keeps: request and error counts per operation, CLS lane sweeps,
resident-cache hit rates, and per-operation latency quantiles.  Any
client can ask for the current snapshot with a ``{"op": "report"}``
request, and the server writes a final snapshot to
``--service-report FILE.json`` on shutdown (the CI artefact next to the
bench reports).

The JSON schema (versioned with its own ``schema`` key, independent of
the RunReport schema)::

    {
      "schema": 1,
      "service": {"uptime_s": ..., "requests": N, "errors": N},
      "requests": {"check-validity": {"count": N, "errors": {"budget-exceeded": N}}, ...},
      "latency_s": {"check-validity": {"count": N, "first": ..., "last": ...,
                                       "p50": ..., "p99": ..., "max": ...}, ...},
      "batch":    {"sweeps": N, "jobs": N, "lanes": N,
                   "max_jobs_per_sweep": N, "mean_jobs_per_sweep": ...},
      "cache":    {"circuits": {"hits": N, "misses": N},
                   "parsed":   {"hits": N, "misses": N}},
      "reorder":  {"requests": {"auto": N, "off": N, "manual": N},
                   "runs": N, "auto_triggers": N, "swaps": N,
                   "nodes_reclaimed": N}
    }

The ``reorder`` section accumulates the BDD managers' dynamic-reordering
counters (``bdd.reorder.*``) across every symbolic safe-replacement
request, keyed off :meth:`ServiceStats.record_reorder`; ``requests``
counts how many symbolic requests ran under each mode.

Latency quantiles are computed over a bounded window of the most recent
:data:`LATENCY_WINDOW` observations per operation (memory stays flat at
any traffic level); ``first`` is the very first observation and is kept
forever -- comparing it against ``p50``/``last`` is how the report
shows cache residency paying off (the first request on a circuit pays
parse + compile + STG extraction, later ones replay resident state).

All mutators take an internal lock; the server updates the stats from
its worker threads and snapshots from the event loop.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from time import perf_counter
from typing import Any, Deque, Dict, Optional

__all__ = ["LATENCY_WINDOW", "SERVICE_SCHEMA_VERSION", "ServiceStats"]

SERVICE_SCHEMA_VERSION = 1

#: Most recent latency observations kept per operation.
LATENCY_WINDOW = 1024


def _quantile(ordered, fraction: float) -> float:
    """Nearest-rank quantile of an already-sorted non-empty list."""
    index = int(fraction * (len(ordered) - 1))
    return ordered[index]


class _OpLatency:
    """Bounded latency record for one operation."""

    __slots__ = ("first_s", "last_s", "max_s", "count", "window")

    def __init__(self) -> None:
        self.first_s: Optional[float] = None
        self.last_s: Optional[float] = None
        self.max_s = 0.0
        self.count = 0
        self.window: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    def add(self, elapsed: float) -> None:
        if self.first_s is None:
            self.first_s = elapsed
        self.last_s = elapsed
        if elapsed > self.max_s:
            self.max_s = elapsed
        self.count += 1
        self.window.append(elapsed)

    def to_dict(self) -> Dict[str, Any]:
        ordered = sorted(self.window)
        return {
            "count": self.count,
            "first": self.first_s,
            "last": self.last_s,
            "p50": _quantile(ordered, 0.50) if ordered else None,
            "p99": _quantile(ordered, 0.99) if ordered else None,
            "max": self.max_s,
        }


class ServiceStats:
    """Thread-safe rolling counters for one server instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = perf_counter()
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, Dict[str, int]] = {}
        self._latency: Dict[str, _OpLatency] = {}
        # CLS lane sweeps: one "sweep" is one lane pass, one "job" one
        # request's submission to it.  Each pass carries one request, so
        # jobs equal sweeps; schema 1 keeps the fields for the benchmark
        # metric that reads them (docs/SERVICE.md).
        self._batch_sweeps = 0
        self._batch_jobs = 0
        self._batch_lanes = 0
        self._batch_max_jobs = 0
        # Residency: named-circuit registry and content-hash parse cache.
        self._cache: Dict[str, Dict[str, int]] = {
            "circuits": {"hits": 0, "misses": 0},
            "parsed": {"hits": 0, "misses": 0},
        }
        # BDD dynamic-reordering activity across symbolic requests.
        self._reorder_requests: Dict[str, int] = {}
        self._reorder: Dict[str, int] = {
            "runs": 0,
            "auto_triggers": 0,
            "swaps": 0,
            "nodes_reclaimed": 0,
        }

    # -- recording ---------------------------------------------------------

    def record_request(self, op: str, elapsed: float) -> None:
        """Count one successfully answered *op* taking *elapsed* seconds."""
        with self._lock:
            self._requests[op] = self._requests.get(op, 0) + 1
            latency = self._latency.get(op)
            if latency is None:
                latency = self._latency[op] = _OpLatency()
            latency.add(elapsed)

    def record_error(self, op: str, code: str) -> None:
        """Count one error envelope (*code*) sent for *op*."""
        with self._lock:
            self._requests[op] = self._requests.get(op, 0) + 1
            per_op = self._errors.setdefault(op, {})
            per_op[code] = per_op.get(code, 0) + 1

    def record_batch(self, jobs: int, lanes: int) -> None:
        """Count one lane sweep carrying *jobs* submissions and *lanes*
        total lanes."""
        with self._lock:
            self._batch_sweeps += 1
            self._batch_jobs += jobs
            self._batch_lanes += lanes
            if jobs > self._batch_max_jobs:
                self._batch_max_jobs = jobs

    def record_cache(self, cache: str, hit: bool) -> None:
        """Count a hit/miss on the ``circuits`` or ``parsed`` cache."""
        with self._lock:
            self._cache[cache]["hits" if hit else "misses"] += 1

    def record_reorder(self, mode: str, bdd_stats: Dict[str, int]) -> None:
        """Fold one symbolic request's BDD manager counters into the
        rolling reorder section (*mode* is the resolved reorder mode;
        *bdd_stats* is :attr:`repro.logic.bdd.BDDManager.stats`)."""
        with self._lock:
            self._reorder_requests[mode] = self._reorder_requests.get(mode, 0) + 1
            for key in self._reorder:
                self._reorder[key] += bdd_stats.get("reorder.%s" % key, 0)

    # -- reading -----------------------------------------------------------

    @property
    def uptime_s(self) -> float:
        return perf_counter() - self._started

    def request_count(self, op: Optional[str] = None) -> int:
        """Requests answered so far (optionally for one *op* only)."""
        with self._lock:
            if op is not None:
                return self._requests.get(op, 0)
            return sum(self._requests.values())

    def snapshot(self) -> Dict[str, Any]:
        """The current rolling report as a JSON-ready dict."""
        with self._lock:
            errors = sum(sum(codes.values()) for codes in self._errors.values())
            return {
                "schema": SERVICE_SCHEMA_VERSION,
                "service": {
                    "uptime_s": self.uptime_s,
                    "requests": sum(self._requests.values()),
                    "errors": errors,
                },
                "requests": {
                    op: {
                        "count": count,
                        "errors": dict(self._errors.get(op, {})),
                    }
                    for op, count in sorted(self._requests.items())
                },
                "latency_s": {
                    op: rec.to_dict() for op, rec in sorted(self._latency.items())
                },
                "batch": {
                    "sweeps": self._batch_sweeps,
                    "jobs": self._batch_jobs,
                    "lanes": self._batch_lanes,
                    "max_jobs_per_sweep": self._batch_max_jobs,
                    "mean_jobs_per_sweep": (
                        self._batch_jobs / self._batch_sweeps
                        if self._batch_sweeps
                        else 0.0
                    ),
                },
                "cache": {name: dict(rec) for name, rec in self._cache.items()},
                "reorder": {
                    "requests": dict(sorted(self._reorder_requests.items())),
                    **self._reorder,
                },
            }

    def write(self, path: str) -> None:
        """Write the current snapshot as JSON to *path*."""
        with open(path, "w") as handle:
            json.dump(self.snapshot(), handle, indent=2)
            handle.write("\n")
