"""Minimum-area (minimum-register) retiming under a period constraint.

The paper cites Shenoy-Rudell [SR94] for making min-area retiming
practical; the underlying formulation is Leiserson-Saxe's linear
program:

    minimise   sum_e w_r(e)  =  sum_e w(e) + sum_v lag(v) * (in(v) - out(v))
    subject to w(e) + lag(v) - lag(u) >= 0            for every edge u->v
               W(u,v) + lag(v) - lag(u) >= 1          whenever D(u,v) > P
               lag(HOST) = 0

The constraint matrix is a difference system (totally unimodular), so
the LP optimum is integral; we solve it with scipy's HiGHS and round.
The matrix has two entries per row, so it is built sparse from the
shared W/D arrays: one row per edge, then one per pair with
``D(u,v) > P`` in row-major order.
Register *sharing* across fanout is captured structurally here: in
single-fanout normal form a junction is a retiming vertex, so latches
placed on the junction's input are automatically shared by all of its
branches -- the circuit-level analogue of [SR94]'s fanout-sharing
refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..obs.trace import traced as _traced
from .graph import HOST, HOST_OUT, HOST_VERTICES, RetimingGraph
from .leiserson_saxe import compute_wd, edge_arrays

__all__ = ["MinAreaResult", "min_area_retiming"]


@dataclass(frozen=True)
class MinAreaResult:
    """Outcome of min-area retiming.

    ``registers``/``original_registers`` report the total latch counts
    after/before; ``period`` is the achieved clock period of the
    retimed graph (``None`` constraint means "don't care").
    """

    registers: int
    original_registers: int
    period: int
    lag: Dict[str, int]

    @property
    def saved(self) -> int:
        return self.original_registers - self.registers


@_traced("retime.min_area")
def min_area_retiming(
    graph: RetimingGraph, *, period: Optional[int] = None
) -> MinAreaResult:
    """Minimise total registers, optionally under clock period *period*.

    Raises :class:`ValueError` if *period* is infeasible for any
    retiming of the graph.
    """
    # scipy is imported here, not at module scope: this LP is its only
    # user, and a process that never retimes should not pay for it.
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    free = np.array([v not in HOST_VERTICES for v in graph.vertices])
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
            lag={HOST: 0, HOST_OUT: 0},
        )

    # LP column of each vertex's lag; the hosts' lags are the constant 0.
    column = np.cumsum(free) - 1
    tails, heads, weights = edge_arrays(graph)

    # Objective: sum_v lag(v) * (indeg(v) - outdeg(v)); host terms are
    # constants (lag 0) and drop out.
    size = len(graph.vertices)
    coeff = (np.bincount(heads, minlength=size) - np.bincount(tails, minlength=size))[free]

    # Rows lag(u) - lag(v) <= upper: every edge, then every pair the
    # period constrains.
    u, v, upper = tails, heads, weights
    if period is not None:
        wd = compute_wd(graph)
        pair_u, pair_v = np.nonzero(wd.reachable & (wd.d > period))
        u = np.concatenate((u, pair_u))
        v = np.concatenate((v, pair_v))
        upper = np.concatenate((upper, wd.w[pair_u, pair_v] - 1))

    # A row over host lags alone (or u == v) has no variable left: it
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

    bound = graph.num_registers + len(graph.vertices) + 1
    result = linprog(
        coeff.astype(float),
        A_ub=a_ub,
        b_ub=upper.astype(float),
        bounds=[(-bound, bound)] * n,
        method="highs",
    )
    if not result.success:
        raise ValueError(
            "min-area retiming LP failed (period %r infeasible?): %s"
            % (period, result.message)
        )

    lag = {HOST: 0, HOST_OUT: 0}
    retimable = (vertex for vertex, keep in zip(graph.vertices, free) if keep)
    for vertex, x in zip(retimable, result.x):
        lag[vertex] = int(round(x))

    # Verify integral rounding kept us feasible (the matrix is totally
    # unimodular so HiGHS' vertex solution is integral; this is a guard,
    # not an expected path).
    weights = graph.retimed_weights(lag)
    achieved = graph.clock_period(weights)
    if period is not None and achieved > period:
        raise ValueError(
            "rounded lag violates the period constraint (%d > %d)" % (achieved, period)
        )
    return MinAreaResult(
        registers=sum(weights.values()),
        original_registers=graph.num_registers,
        period=achieved,
        lag=lag,
    )
