"""Process-pool execution layer: shard embarrassingly parallel sweeps.

The paper's headline experiments are embarrassingly parallel: fault
grading evaluates every stuck-at fault against the same test set
(Section 2.2, Table 1), and the validity/redundancy checkers judge
many independent candidates.  This module is the one place that
knows how to split such work across CPU cores:

* :func:`run_sharded` -- the single primitive everything else uses.  It
  chunks an item list, ships one pickled *payload* (circuit, compiled
  program, reference outputs, ...) to each worker process exactly once
  via the pool initializer, applies a module-level *task* function to
  each chunk, and reassembles the per-item results **in input order**,
  so results are bit-for-bit identical to a serial run.
* a process-wide default worker count (:func:`set_default_jobs`), set
  from the CLI's top-level ``--jobs`` flag.
* a reusable pool handle (:class:`WorkerPool`): by default every
  :func:`run_sharded` call spins a fresh ``ProcessPoolExecutor`` up and
  tears it down again -- correct, but each call pays worker spawn cost.
  Long-lived callers (the ``repro serve`` service, repeated bench runs)
  create one :class:`WorkerPool` and either pass it per call
  (``run_sharded(..., pool=pool)``) or install it process-wide with
  :func:`set_shared_pool`; the workers then survive across calls and
  per-call payloads are delivered through a small per-worker cache
  keyed by payload token.  Results stay bit-for-bit identical to the
  one-shot path, which remains the default.
* chunk-size auto-tuning (:func:`auto_chunk_size`): about four chunks
  per worker, balancing scheduling slack against IPC overhead.
* graceful degradation: if the pool cannot start (restricted
  environments, missing ``fork``/``spawn``, unpicklable payloads) the
  work runs serially in-process and a :class:`ParallelStats` record
  marks the fall-back -- callers never have to care.
* lightweight instrumentation: every invocation publishes a
  :class:`ParallelStats` to registered observers and keeps the most
  recent record in :func:`last_stats`; the benchmark suite uses this to
  report worker counts and chunk shapes next to its timings.

Consumers: :func:`repro.retime.validity.cls_equivalent` (through
:func:`~repro.retime.validity.first_cls_difference`) and
:func:`repro.optimize.redundancy.remove_cls_redundancies`.  Neither the
exact power-up sweep of :class:`repro.sim.exact.ExactSimulator` nor
fault grading (:mod:`repro.sim.fault`, :mod:`repro.sim.atpg`) is
sharded: both pack their work into the lanes of one in-process pass of
the compiled program, which no pool measured faster than
(``benchmarks/results/parallel_speedup.txt``).

With ``jobs == 1`` (the default) no pool, no pickling and no extra
process is involved: callers take their original serial code path, so
the single-core behaviour of the library is exactly what it was before
this layer existed.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span

__all__ = [
    "ParallelStats",
    "WorkerPool",
    "add_observer",
    "auto_chunk_size",
    "default_job_count",
    "get_default_jobs",
    "get_shared_pool",
    "last_stats",
    "remove_observer",
    "reset_fallback_warning",
    "resolve_jobs",
    "run_sharded",
    "set_default_jobs",
    "set_shared_pool",
]

Item = TypeVar("Item")
Result = TypeVar("Result")

#: A task takes the shared payload and a chunk of items and returns one
#: result per item, in order.  It must be a module-level callable so the
#: pool can pickle it by reference.
Task = Callable[[Any, List[Item]], Sequence[Result]]


# ---------------------------------------------------------------------------
# Worker-count registry (the CLI's --jobs escape hatch).
# ---------------------------------------------------------------------------

_default_jobs = 1


def default_job_count() -> int:
    """A sensible ``--jobs`` value for this machine (its CPU count)."""
    return os.cpu_count() or 1


def set_default_jobs(jobs: int) -> None:
    """Set the process-wide default worker count (``1`` = serial)."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    global _default_jobs
    _default_jobs = int(jobs)


def get_default_jobs() -> int:
    """The process-wide default worker count."""
    return _default_jobs


def resolve_jobs(jobs: Optional[int]) -> int:
    """Resolve an explicit worker count (``None`` -> the default)."""
    if jobs is None:
        return _default_jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1, got %d" % jobs)
    return int(jobs)


# ---------------------------------------------------------------------------
# Instrumentation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelStats:
    """What one :func:`run_sharded` call did.

    Attributes
    ----------
    label:
        Caller-supplied name of the workload (e.g. ``"fault-grading"``).
    jobs:
        Worker count requested (after resolution).
    items:
        Number of work items.
    chunks:
        Number of chunks actually dispatched (0 for the serial path).
    chunk_size:
        Items per chunk (0 for the serial path).
    elapsed:
        Wall-clock seconds for the whole call, merging included.
    fallback:
        True when a pool was requested but could not be used and the
        work ran serially in-process instead.
    """

    label: str
    jobs: int
    items: int
    chunks: int
    chunk_size: int
    elapsed: float
    fallback: bool
    #: Bytes of the pickled payload shipped to each worker (0 when the
    #: call stayed serial and nothing was pickled).
    payload_bytes: int = 0
    #: True when the chunks ran on a reusable :class:`WorkerPool`
    #: (workers survived from an earlier call) instead of a one-shot
    #: executor.
    pooled: bool = False

    def summary(self) -> str:
        mode = (
            "serial"
            if self.jobs <= 1
            else ("serial-fallback" if self.fallback else "%d workers" % self.jobs)
        )
        if self.pooled:
            mode += ", pooled"
        text = "%s: %d items, %d chunks (%s), %.3fs" % (
            self.label,
            self.items,
            self.chunks,
            mode,
            self.elapsed,
        )
        if self.payload_bytes:
            text += ", %d payload B" % self.payload_bytes
        return text


_observers: List[Callable[[ParallelStats], None]] = []
_last_stats: Optional[ParallelStats] = None


def add_observer(callback: Callable[[ParallelStats], None]) -> None:
    """Register a callback receiving a :class:`ParallelStats` per call."""
    _observers.append(callback)


def remove_observer(callback: Callable[[ParallelStats], None]) -> None:
    """Unregister a previously added observer (no-op if absent)."""
    try:
        _observers.remove(callback)
    except ValueError:
        pass


def last_stats() -> Optional[ParallelStats]:
    """The :class:`ParallelStats` of the most recent call, if any."""
    return _last_stats


def _publish(stats: ParallelStats) -> None:
    global _last_stats
    _last_stats = stats
    for callback in list(_observers):
        callback(stats)


# On boxes where pools genuinely cannot start (1-core CI runners,
# sandboxes without fork/spawn) *every* sharded call would otherwise
# repeat the same RuntimeWarning; the condition is per-process, so the
# diagnostic is too.  ParallelStats.fallback still marks every call.
_fallback_warned = False


def reset_fallback_warning() -> None:
    """Re-arm the once-per-process serial-fallback warning (for tests)."""
    global _fallback_warned
    _fallback_warned = False


def _warn_fallback_once(label: str, jobs: int, exc: Exception) -> None:
    global _fallback_warned
    if _fallback_warned:
        return
    _fallback_warned = True
    warnings.warn(
        "parallel %s with %d jobs unavailable (%s: %s); running serially"
        " (further fall-backs in this process will be silent)"
        % (label, jobs, type(exc).__name__, exc),
        RuntimeWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------------
# Chunking.
# ---------------------------------------------------------------------------

#: Target chunks per worker: enough slack that an unlucky chunk does not
#: serialise the tail, few enough that per-chunk IPC stays negligible.
CHUNKS_PER_WORKER = 4


def auto_chunk_size(num_items: int, jobs: int) -> int:
    """Chunk size putting ~:data:`CHUNKS_PER_WORKER` chunks on each worker."""
    if num_items <= 0:
        return 1
    return max(1, -(-num_items // (max(1, jobs) * CHUNKS_PER_WORKER)))


# ---------------------------------------------------------------------------
# The pool plumbing.
# ---------------------------------------------------------------------------

#: The shared payload, unpickled once per worker process (not per chunk).
_WORKER_PAYLOAD: Any = None


def _init_worker(payload_bytes: bytes) -> None:
    global _WORKER_PAYLOAD
    # Workers never nest pools: whatever --jobs the parent was launched
    # with, work arriving inside a worker runs serially.
    set_default_jobs(1)
    _WORKER_PAYLOAD = pickle.loads(payload_bytes)


def _run_chunk(task_and_chunk):
    task, chunk = task_and_chunk
    started = perf_counter()
    part = task(_WORKER_PAYLOAD, chunk)
    # The worker's own tracer is always disabled; its wall time travels
    # back with the results so the parent can fold it into the report.
    return list(part), perf_counter() - started


def _make_executor(jobs: int, payload_bytes: bytes) -> Executor:
    """Build the worker pool.  Split out so tests can force failure."""
    return ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(payload_bytes,)
    )


# ---------------------------------------------------------------------------
# The reusable pool: workers survive across run_sharded calls.
# ---------------------------------------------------------------------------

#: Payloads a *pool worker* has already unpickled, keyed by token.  The
#: one-shot path delivers its payload via the pool initializer (once per
#: worker, ever); a reusable pool serves many payloads over its
#: lifetime, so each call stamps its payload bytes with a fresh token
#: and workers unpickle them at most once each.
_POOL_PAYLOADS: Dict[int, Any] = {}

#: Distinct payloads a worker keeps unpickled before evicting the
#: oldest.  Service workloads alternate between a handful of resident
#: circuits; eight covers that while bounding worker memory.
POOL_PAYLOAD_CACHE_SIZE = 8

#: Parent-side token source; tokens only need to be unique within the
#: process that feeds the pool.
_PAYLOAD_TOKENS = itertools.count(1)


def _init_pool_worker() -> None:
    # Same rule as the one-shot initializer: work dispatched inside a
    # worker never nests another pool.
    set_default_jobs(1)


def _run_pool_chunk(args):
    task, token, payload_bytes, chunk = args
    if token in _POOL_PAYLOADS:
        payload = _POOL_PAYLOADS[token]
    else:
        payload = pickle.loads(payload_bytes)
        while len(_POOL_PAYLOADS) >= POOL_PAYLOAD_CACHE_SIZE:
            _POOL_PAYLOADS.pop(next(iter(_POOL_PAYLOADS)))
        _POOL_PAYLOADS[token] = payload
    started = perf_counter()
    part = task(payload, chunk)
    return list(part), perf_counter() - started


def _make_pool_executor(jobs: int) -> Executor:
    """Build a reusable pool's executor.  Split out so tests can force
    failure."""
    return ProcessPoolExecutor(max_workers=jobs, initializer=_init_pool_worker)


class WorkerPool:
    """A reusable worker pool for repeated :func:`run_sharded` calls.

    The one-shot path inside :func:`run_sharded` spawns and joins a
    fresh ``ProcessPoolExecutor`` per call -- fine for a single sweep,
    wasteful for a service answering requests all day.  A
    :class:`WorkerPool` keeps the worker processes alive across calls::

        with WorkerPool(jobs=4) as pool:
            first = run_sharded(task, payload_a, items_a, pool=pool)
            again = run_sharded(task, payload_b, items_b, pool=pool)

    Payload delivery changes shape: instead of the pool initializer
    (which runs once per worker process, ever), each call's pickled
    payload travels with its chunks under a unique token and every
    worker unpickles it at most once, caching the last
    :data:`POOL_PAYLOAD_CACHE_SIZE` payloads.  Results remain
    bit-for-bit identical to the one-shot and serial paths.

    The executor is created lazily on first use and recreated after a
    failure (a broken pool degrades that one call to the serial path,
    exactly like the one-shot executor).  Instances are thread-safe:
    concurrent :func:`run_sharded` calls may share one pool.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs if jobs is not None else get_default_jobs())
        self._executor: Optional[Executor] = None
        self._lock = threading.Lock()
        #: How many times an executor was (re)started -- spawn cost paid.
        self.launches = 0

    # -- lifecycle ---------------------------------------------------------

    def _ensure_executor(self) -> Executor:
        with self._lock:
            if self._executor is None:
                self._executor = _make_pool_executor(self.jobs)
                self.launches += 1
            return self._executor

    def _discard_executor(self) -> None:
        """Drop a (presumed broken) executor; next use starts fresh."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False)
            except Exception:
                pass

    @property
    def started(self) -> bool:
        """Is a live executor currently attached?"""
        return self._executor is not None

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- dispatch ----------------------------------------------------------

    def _map_chunks(self, task, payload_bytes: bytes, chunks):
        executor = self._ensure_executor()
        token = next(_PAYLOAD_TOKENS)
        return list(
            executor.map(
                _run_pool_chunk,
                [(task, token, payload_bytes, chunk) for chunk in chunks],
            )
        )


#: The process-wide shared pool (``None`` = every call is one-shot).
_shared_pool: Optional[WorkerPool] = None


def set_shared_pool(pool: Optional[WorkerPool]) -> Optional[WorkerPool]:
    """Install *pool* as the process-wide default for every
    :func:`run_sharded` call that resolves to ``jobs > 1`` and does not
    pass an explicit ``pool=``.  Returns the previously installed pool
    (not closed -- the caller owns both lifetimes).  ``None``
    uninstalls."""
    global _shared_pool
    previous, _shared_pool = _shared_pool, pool
    return previous


def get_shared_pool() -> Optional[WorkerPool]:
    """The currently installed process-wide :class:`WorkerPool`."""
    return _shared_pool


def run_sharded(
    task: Task,
    payload: Any,
    items: Iterable[Item],
    *,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    label: str = "parallel",
    pool: Optional[WorkerPool] = None,
) -> List[Result]:
    """Apply *task* to chunks of *items*, preserving per-item order.

    Parameters
    ----------
    task:
        Module-level callable ``task(payload, chunk) -> results`` with
        exactly one result per chunk item, in chunk order.
    payload:
        Read-only shared context (circuit, reference outputs, ...).
        Pickled once and delivered to each worker by the pool
        initializer, never per chunk.
    items:
        The work items; sharding and merging keep their order, so the
        returned list is identical to ``list(task(payload, items))``.
    jobs:
        Worker count (``None`` -> the process default).  ``1`` runs the
        task in-process with no pool at all.
    chunk_size:
        Items per chunk (``None`` -> :func:`auto_chunk_size`).
    label:
        Workload name for :class:`ParallelStats`.
    pool:
        A reusable :class:`WorkerPool` to run the chunks on (``None`` ->
        the process-wide shared pool if one is installed, else a
        one-shot executor).  With a pool and no explicit *jobs*, the
        pool's worker count is used.
    """
    if pool is None:
        pool = _shared_pool
    if jobs is None and pool is not None:
        jobs = pool.jobs
    jobs = resolve_jobs(jobs)
    work = list(items)
    started = perf_counter()
    if _TRACE.enabled:
        counters = _TRACE.counters
        counters["parallel.calls"] = counters.get("parallel.calls", 0) + 1
        counters["parallel.items"] = counters.get("parallel.items", 0) + len(work)

    def _serial(fallback: bool) -> List[Result]:
        if fallback:
            _TRACE.incr("parallel.fallbacks")
        results = list(task(payload, work))
        _publish(
            ParallelStats(
                label=label,
                jobs=jobs,
                items=len(work),
                chunks=0,
                chunk_size=0,
                elapsed=perf_counter() - started,
                fallback=fallback,
            )
        )
        return results

    if jobs <= 1 or len(work) <= 1:
        with _span("parallel.%s" % label):
            return _serial(fallback=False)

    size = chunk_size if chunk_size is not None else auto_chunk_size(len(work), jobs)
    chunks = [work[i : i + size] for i in range(0, len(work), size)]
    pooled = pool is not None
    with _span("parallel.%s" % label):
        try:
            payload_bytes = pickle.dumps(payload)
            if pool is not None:
                parts = pool._map_chunks(task, payload_bytes, chunks)
            else:
                with _make_executor(min(jobs, len(chunks)), payload_bytes) as executor:
                    parts = list(
                        executor.map(_run_chunk, [(task, chunk) for chunk in chunks])
                    )
        except Exception as exc:  # pool could not start or run -- degrade
            if pool is not None:
                pool._discard_executor()
            _warn_fallback_once(label, jobs, exc)
            return _serial(fallback=True)

        if _TRACE.enabled:
            if pooled:
                _TRACE.incr("parallel.pool.runs")
            counters = _TRACE.counters
            counters["parallel.payload.bytes"] = (
                counters.get("parallel.payload.bytes", 0) + len(payload_bytes)
            )
            counters["parallel.chunks"] = counters.get("parallel.chunks", 0) + len(chunks)
            for _, shard_elapsed in parts:
                _TRACE.record_timing("shard", shard_elapsed)

        results: List[Result] = []
        with _span("merge"):
            for chunk, (part, _) in zip(chunks, parts):
                if len(part) != len(chunk):
                    raise RuntimeError(
                        "parallel task %r returned %d results for a chunk of %d items"
                        % (getattr(task, "__name__", task), len(part), len(chunk))
                    )
                results.extend(part)
    _publish(
        ParallelStats(
            label=label,
            jobs=jobs,
            items=len(work),
            chunks=len(chunks),
            chunk_size=size,
            elapsed=perf_counter() - started,
            fallback=False,
            payload_bytes=len(payload_bytes),
            pooled=pooled,
        )
    )
    return results
