"""Leiserson-Saxe minimum-period retiming.

The paper re-proves the correctness side of Leiserson and Saxe's
retiming theory; this module supplies the *optimisation* side the paper
cites as motivation ([LS83], and Shenoy-Rudell [SR94] for efficiency):

* the ``W`` and ``D`` matrices: over all paths from u to v, ``W(u,v)``
  is the minimum register count and ``D(u,v)`` the maximum total vertex
  delay among minimum-register paths;
* the ``FEAS`` relaxation algorithm deciding whether a clock period c
  is achievable by retiming, producing a witness lag assignment;
* binary search over the candidate periods (the distinct entries of D)
  for the minimum achievable period.

W and D are computed once per graph (an O(V^3) vectorised
Floyd-Warshall, memoised on the :class:`RetimingGraph`), so min-period
and min-area retiming of one graph share it.  FEAS is a dense
Bellman-Ford over the resulting difference constraints: O(V^2) per
round, up to V+1 rounds -- entirely adequate for the benchmark sizes
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy

from ..obs.trace import traced as _traced
from .graph import HOST, HOST_OUT, RetimingGraph

__all__ = [
    "WDMatrices",
    "compute_wd",
    "feas",
    "min_period_retiming",
    "MinPeriodResult",
]


@dataclass(frozen=True, eq=False)
class WDMatrices:
    """The W and D matrices as read-only integer arrays indexed by
    position in ``graph.vertices``: row u, column v.

    ``reachable[u, v]`` says some path leads from u to v; where none
    does (conceptually ``W = inf``), ``w`` and ``d`` hold 0.
    """

    w: numpy.ndarray
    d: numpy.ndarray
    reachable: numpy.ndarray

    def candidate_periods(self) -> Tuple[int, ...]:
        """Sorted distinct D values -- the possible optimal periods."""
        return tuple(int(c) for c in numpy.unique(self.d[self.reachable]))


def edge_arrays(graph: RetimingGraph) -> Tuple[numpy.ndarray, numpy.ndarray, numpy.ndarray]:
    """Tail index, head index and weight of every edge, in
    ``graph.edges`` order; indices are positions in ``graph.vertices``."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    tails = numpy.array([index[e.u] for e in graph.edges], dtype=numpy.intp)
    heads = numpy.array([index[e.v] for e in graph.edges], dtype=numpy.intp)
    weights = numpy.array([e.weight for e in graph.edges], dtype=numpy.int64)
    return tails, heads, weights


def compute_wd(graph: RetimingGraph) -> WDMatrices:
    """The (W, D) matrices of *graph*, computed on first use and
    memoised on the graph, which nothing mutates after construction."""
    if graph._wd is None:
        graph._wd = _floyd_warshall(graph)
    return graph._wd


def _floyd_warshall(graph: RetimingGraph) -> WDMatrices:
    """All-pairs (W, D) by vectorised Floyd-Warshall.

    Each edge ``u -> v`` costs ``(w(e), -d(u))``; shortest lexicographic
    distance from u to v is ``(W(u,v), -(D(u,v) - d(v)))``, following
    [LS83] Section 7.  The lexicographic pair is packed into one number
    -- ``w * BASE - d`` with ``BASE`` exceeding the total delay of the
    graph, so no path's delay component can spill into the register
    component -- and the relaxation runs as |V| dense numpy row+column
    broadcasts.  All quantities stay far below 2**53, so float64
    arithmetic is exact; the tests hold this against a pure-Python
    tuple-cost formulation.
    """
    n = len(graph.vertices)
    delays = numpy.array([graph.delays.get(v, 0) for v in graph.vertices], dtype=numpy.int64)
    # Strict upper bound on the delay of any simple path (and FW paths
    # with repeated vertices never win: revisiting adds >= 0 weight and
    # the packed cost is minimised).
    base = float(delays.sum() + 1)

    tails, heads, weights = edge_arrays(graph)
    dist = numpy.full((n, n), numpy.inf)
    numpy.minimum.at(dist, (tails, heads), weights * base - delays[tails])
    for k in range(n):
        numpy.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)

    reachable = numpy.isfinite(dist)
    packed = numpy.where(reachable, dist, 0.0)
    # packed = weight*base + negd with negd an integer in (-base, 0],
    # and every float op above was exact (integers below 2**53), so
    # the ceiling recovers the register component exactly.
    w = numpy.ceil(packed / base).astype(numpy.int64)
    d = numpy.where(reachable, (w * base - packed).astype(numpy.int64) + delays, 0)
    for matrix in (w, d, reachable):
        matrix.flags.writeable = False
    return WDMatrices(w, d, reachable)


def _has_cycle(parent: numpy.ndarray) -> bool:
    """Does ``parent`` hold a cycle, i.e. is it not a forest whose every
    path ends at the root ``len(parent) - 1`` (its own parent)?"""
    root = len(parent) - 1
    jump = parent
    for _ in range(root.bit_length()):
        jump = jump[jump]  # jump = parent applied 2, 4, 8, ... times
    return bool((jump != root).any())


def feas(graph: RetimingGraph, period: int) -> Optional[Dict[str, int]]:
    """A legal lag achieving *period*, or ``None`` if none exists.

    Solves the [LS83] Theorem 7 characterisation directly: a retiming
    r achieves period c iff every edge keeps ``r(u) - r(v) <= w(e)``
    and every pair with ``D(u, v) > c`` keeps ``r(u) - r(v) <=
    W(u, v) - 1``.  These difference constraints (plus ``r(HOST) =
    r(HOST')``, tying the two halves of the split environment vertex)
    are solved by vectorised Bellman-Ford; a negative constraint cycle
    -- a cycle among the relaxation's parent pointers, or an
    improvement after |V| rounds -- means the period is infeasible.

    The classical iterative-relaxation FEAS is *not* used: with the
    split host of this formulation (a registered environment rather
    than the combinational single host of [LS83]), forcing the two host
    halves to move in lock-step can drive an out-edge of ``HOST``
    negative without first flagging its sink late, so the relaxation
    wrongly declares feasible periods infeasible.  The brute-force
    optimality tests in ``tests/retime/test_leiserson_saxe.py`` catch
    exactly that.  The returned lag is normalised so the host's lag
    is 0.
    """
    delays = graph.delays
    if any(delays.get(v, 0) > period for v in graph.vertices):
        return None
    wd = compute_wd(graph)
    vertices = graph.vertices
    n = len(vertices)

    # bound[u, v] is the tightest b with r(u) - r(v) <= b.
    bound = numpy.where(wd.reachable & (wd.d > period), wd.w - 1.0, numpy.inf)
    tails, heads, edge_weights = edge_arrays(graph)
    numpy.minimum.at(bound, (tails, heads), edge_weights)
    host, host_out = vertices.index(HOST), vertices.index(HOST_OUT)
    bound[host, host_out] = min(bound[host, host_out], 0)
    bound[host_out, host] = min(bound[host_out, host], 0)

    # Each constraint is an arc v -> u of cost b; any shortest-walk
    # potential r(u) = min_v r(v) + bound[u, v] satisfies them all.
    # parent[u] is the v whose arc last lowered r(u) (n stands for the
    # virtual source every vertex starts from, at 0), so r(u) >= r(v) +
    # bound[u, v], strictly once r(v) has dropped since.  Around a cycle
    # of parents the arc out of the most recently lowered vertex is
    # strict, so the cycle's cost is negative: the period is infeasible
    # as soon as one forms, typically long before |V| rounds.
    rows = numpy.arange(n)
    dist = numpy.zeros(n)
    parent = numpy.full(n + 1, n)
    for _ in range(n + 1):
        through = bound + dist
        best = through.argmin(axis=1)
        relaxed = through[rows, best]
        improved = relaxed < dist
        if not improved.any():
            break
        dist = numpy.where(improved, relaxed, dist)
        parent[:n] = numpy.where(improved, best, parent[:n])
        if _has_cycle(parent):
            return None
    else:
        return None  # still improving after |V| rounds: a negative cycle

    lag = {v: int(dist[i]) for i, v in enumerate(vertices)}
    weights = {edge: edge.retimed_weight(lag) for edge in graph.edges}
    if any(w < 0 for w in weights.values()):
        return None
    if graph.clock_period(weights) > period:
        return None
    shift = lag[HOST]
    assert lag[HOST_OUT] == shift
    return {v: value - shift for v, value in lag.items()}


@dataclass(frozen=True)
class MinPeriodResult:
    """Outcome of minimum-period retiming.

    ``lag`` achieves ``period``; ``original_period`` is the period of
    the unretimed graph, for before/after reporting.
    """

    period: int
    original_period: int
    lag: Dict[str, int]

    @property
    def improved(self) -> bool:
        return self.period < self.original_period


@_traced("retime.min_period")
def min_period_retiming(graph: RetimingGraph) -> MinPeriodResult:
    """Binary-search the candidate periods for the minimum feasible one.

    The optimal period is always one of the D-matrix entries ([LS83]
    Theorem 12 / Lemma 9 reasoning); FEAS provides the feasibility
    oracle and the witness lag.
    """
    original = graph.clock_period()
    candidates = [c for c in compute_wd(graph).candidate_periods() if c <= original]
    if not candidates:
        candidates = [original]
    best_lag: Optional[Dict[str, int]] = None
    best_period = original
    lo, hi = 0, len(candidates) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        lag = feas(graph, candidates[mid])
        if lag is not None:
            best_lag = lag
            best_period = candidates[mid]
            hi = mid - 1
        else:
            lo = mid + 1
    if best_lag is None:
        # The original circuit trivially achieves its own period.
        best_lag = {v: 0 for v in graph.vertices}
        best_period = original
    return MinPeriodResult(period=best_period, original_period=original, lag=best_lag)
