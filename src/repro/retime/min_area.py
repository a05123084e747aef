"""Minimum-area (minimum-register) retiming under a period constraint.

The paper cites Shenoy-Rudell [SR94] for making min-area retiming
practical; the underlying formulation is Leiserson-Saxe's linear
program:

    minimise   sum_e w_r(e)  =  sum_e w(e) + sum_v lag(v) * (in(v) - out(v))
    subject to w(e) + lag(v) - lag(u) >= 0            for every edge u->v
               W(u,v) + lag(v) - lag(u) >= 1          whenever D(u,v) > P
               lag(HOST) = 0

The constraint matrix is a difference system (totally unimodular), so
the LP optimum is integral.  Two things keep it small and its answer
unique:

* **Only irredundant period rows.**  Row (u, v) is dropped when the
  period row (u, x) and the edge x -> v with W(u,x) + w(x->v) = W(u,v)
  sum to it, or the edge u -> y and the period row (y, v) do, as in
  [SR94].  Two vectorised masks over the shared W/D matrices find
  these rows; on s382 they cut 18,433 rows to 1,477.
* **The greatest optimum.**  HiGHS's dual simplex solves the pruned
  LP; every row with a nonzero dual is tight at every optimum, so the
  optimal lags are the solutions of a difference system, closed under
  componentwise max.  One Bellman-Ford over it returns the greatest
  optimal lag, whatever vertex the solver stopped at.  ``lag_to_moves``
  crosses v forward max(0, -lag(v)) times, so of all min-area
  retimings at the period this one makes the fewest hazardous moves.

A weakly connected component that holds no host (a free-running loop
nothing observes) has a shift-invariant objective and rows, so its
first vertex is pinned at lag 0, as the hosts are.

Register *sharing* across fanout is captured structurally here: in
single-fanout normal form a junction is a retiming vertex, so latches
placed on the junction's input are automatically shared by all of its
branches -- the circuit-level analogue of [SR94]'s fanout-sharing
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.trace import traced as _traced
from .graph import HOST, HOST_OUT, RetimingGraph
from .leiserson_saxe import WDMatrices, compute_wd, edge_arrays, shortest_potentials

__all__ = ["MinAreaResult", "min_area_retiming"]


@dataclass(frozen=True)
class MinAreaResult:
    """Outcome of min-area retiming.

    ``registers``/``original_registers`` report the total latch counts
    after/before; ``period`` is the achieved clock period of the
    retimed graph (``None`` constraint means "don't care").  ``lag`` is
    the componentwise-greatest lag of minimum register count.
    """

    registers: int
    original_registers: int
    period: int
    lag: Dict[str, int]

    @property
    def saved(self) -> int:
        return self.original_registers - self.registers


def _pinned(graph: RetimingGraph) -> np.ndarray:
    """Mask of the vertices whose lag is the constant 0: the two hosts,
    and the first vertex (in ``graph.vertices`` order) of every weakly
    connected component that holds neither host."""
    neighbours: Dict[str, List[str]] = {v: [] for v in graph.vertices}
    for edge in graph.edges:
        neighbours[edge.u].append(edge.v)
        neighbours[edge.v].append(edge.u)
    pinned = {HOST, HOST_OUT}
    seen = set(pinned)
    stack = [HOST, HOST_OUT]
    for start in graph.vertices:
        if start not in seen:
            pinned.add(start)
            seen.add(start)
            stack.append(start)
        while stack:  # flood the component of the last pinned vertex
            for vertex in neighbours[stack.pop()]:
                if vertex not in seen:
                    seen.add(vertex)
                    stack.append(vertex)
    return np.array([v in pinned for v in graph.vertices])


def _irredundant_period_rows(
    wd: WDMatrices,
    period: int,
    tails: np.ndarray,
    heads: np.ndarray,
    weights: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v) with D(u, v) > *period* whose row
    ``lag(u) - lag(v) <= W(u, v) - 1`` no other row implies.

    Row (u, v) follows from row (u, x) plus edge x -> v when
    W(u, x) + w(x -> v) = W(u, v), and from edge u -> y plus row (y, v)
    when w(u -> y) + W(y, v) = W(u, v).  A dropped row is implied by a
    row one edge shorter at the same register count; an endless chain
    of such rows would walk a zero-weight cycle, a combinational loop,
    so every chain ends at a kept row.
    """
    rows = wd.reachable & (wd.d > period)
    w = wd.w
    implied = np.zeros_like(rows)

    # Head side: rows (u, x), x the tail of an edge into v.
    by_head = np.argsort(heads, kind="stable")
    t, h = tails[by_head], heads[by_head]
    starts = np.flatnonzero(np.r_[True, h[1:] != h[:-1]])
    via = rows[:, t] & (w[:, t] + weights[by_head] == w[:, h])
    implied[:, h[starts]] |= np.logical_or.reduceat(via, starts, axis=1)

    # Tail side: rows (y, v), y the head of an edge out of u.
    by_tail = np.argsort(tails, kind="stable")
    t, h = tails[by_tail], heads[by_tail]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
    via = rows[h, :] & (weights[by_tail, None] + w[h, :] == w[t, :])
    implied[t[starts], :] |= np.logical_or.reduceat(via, starts, axis=0)

    return np.nonzero(rows & ~implied)


@_traced("retime.min_area")
def min_area_retiming(
    graph: RetimingGraph, *, period: Optional[int] = None
) -> MinAreaResult:
    """Minimise total registers, optionally under clock period *period*,
    returning the componentwise-greatest optimal lag.

    Raises :class:`ValueError` if *period* is infeasible for any
    retiming of the graph.
    """
    # scipy is imported here, not at module scope: this LP is its only
    # user, and a process that never retimes should not pay for it.
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    size = len(graph.vertices)
    tails, heads, weights = edge_arrays(graph)
    pinned = _pinned(graph)
    free = ~pinned
    n = int(free.sum())

    if n == 0:
        # Pure host-to-host wiring (e.g. a bare shift register): nothing
        # is retimable.
        achieved = graph.clock_period()
        if period is not None and achieved > period:
            raise ValueError("period %d infeasible: no retimable vertices" % period)
        return MinAreaResult(
            registers=graph.num_registers,
            original_registers=graph.num_registers,
            period=achieved,
            lag={v: 0 for v in graph.vertices},
        )

    # LP column of each free vertex's lag; pinned lags are the constant 0.
    column = np.cumsum(free) - 1

    # Objective: sum_v lag(v) * (indeg(v) - outdeg(v)); pinned terms
    # are constants (lag 0) and drop out.
    coeff = (np.bincount(heads, minlength=size) - np.bincount(tails, minlength=size))[free]

    # Rows lag(u) - lag(v) <= upper: every edge, then every irredundant
    # pair the period constrains.
    u, v, upper = tails, heads, weights
    if period is not None:
        wd = compute_wd(graph)
        pair_u, pair_v = _irredundant_period_rows(wd, period, tails, heads, weights)
        u = np.concatenate((u, pair_u))
        v = np.concatenate((v, pair_v))
        upper = np.concatenate((upper, wd.w[pair_u, pair_v] - 1))

    # A row over pinned lags alone (or u == v) has no variable left: it
    # holds trivially or the period is infeasible outright.
    empty = (u == v) | ~(free[u] | free[v])
    if (upper[empty] < 0).any():
        raise ValueError("period constraint infeasible at the host")
    u, v, upper = u[~empty], v[~empty], upper[~empty]
    rows = np.arange(len(upper))
    row = np.concatenate((rows, rows))
    col = np.concatenate((column[u], column[v]))
    sign = np.concatenate((np.ones(len(rows)), -np.ones(len(rows))))
    has_column = np.concatenate((free[u], free[v]))
    a_ub = csr_matrix(
        (sign[has_column], (row[has_column], col[has_column])), shape=(len(rows), n)
    )

    bound = graph.num_registers + size + 1
    result = linprog(
        coeff.astype(float),
        A_ub=a_ub,
        b_ub=upper.astype(float),
        bounds=(-bound, bound),
        method="highs-ds",
        options={"presolve": False},
    )
    if not result.success:
        raise ValueError(
            "min-area retiming LP failed (period %r infeasible?): %s"
            % (period, result.message)
        )

    # A row with a nonzero dual is tight at every optimum; with it as an
    # equality the rows describe exactly the optimal lags, and their
    # greatest solution with the pinned lags at 0 is the greatest
    # optimum.  The dual is integral (the matrix is totally
    # unimodular), so 0.5 separates.
    tight = result.ineqlin.marginals < -0.5
    rows_bound = np.full((size, size), np.inf)
    np.minimum.at(rows_bound, (u, v), upper)
    np.minimum.at(rows_bound, (v[tight], u[tight]), -upper[tight])
    greatest = shortest_potentials(rows_bound, np.where(pinned, 0.0, np.inf))
    if greatest is None or (greatest[pinned] != 0).any() or np.isinf(greatest).any():
        raise ValueError("min-area optimum: the tight rows have no greatest solution")
    lag_array = greatest.astype(np.int64)
    if (np.abs(lag_array) >= bound).any():
        raise ValueError("min-area optimum reaches the LP's box bound %d" % bound)
    lag = {vertex: int(x) for vertex, x in zip(graph.vertices, lag_array)}

    weights_after = graph.retimed_weights(lag)
    registers = int((weights + lag_array[heads] - lag_array[tails]).sum())
    optimum = graph.num_registers + int(round(result.fun))
    if registers != optimum:
        raise ValueError(
            "min-area lag has %d registers, the LP optimum %d" % (registers, optimum)
        )
    achieved = graph.clock_period(weights_after)
    if period is not None and achieved > period:
        raise ValueError(
            "min-area lag violates the period constraint (%d > %d)" % (achieved, period)
        )
    return MinAreaResult(
        registers=registers,
        original_registers=graph.num_registers,
        period=achieved,
        lag=lag,
    )
