"""Tests for W/D matrices, FEAS and min-period retiming."""

from __future__ import annotations

import itertools
import random
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import correlator, pipeline_circuit, random_sequential_circuit
from repro.bench.iscas import load, names
from repro.retime import leiserson_saxe
from repro.retime.graph import HOST, HOST_OUT, RetimingEdge, RetimingGraph, build_retiming_graph
from repro.retime.leiserson_saxe import compute_wd, feas, min_period_retiming
from repro.retime.min_area import min_area_retiming

PairMap = Dict[Tuple[str, str], int]


def wd_dicts(graph: RetimingGraph) -> Tuple[PairMap, PairMap]:
    """:func:`compute_wd`'s matrices as (W, D) dicts keyed by vertex
    pairs, holding exactly the pairs some path connects."""
    wd = compute_wd(graph)
    w: PairMap = {}
    d: PairMap = {}
    for i, j in zip(*wd.reachable.nonzero()):
        pair = (graph.vertices[i], graph.vertices[j])
        w[pair] = int(wd.w[i, j])
        d[pair] = int(wd.d[i, j])
    return w, d


def compute_wd_reference(graph: RetimingGraph) -> Tuple[PairMap, PairMap]:
    """The pure-Python tuple-cost Floyd-Warshall that :func:`compute_wd`
    vectorises -- the differential oracle."""
    vertices = graph.vertices
    dist: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for edge in graph.edges:
        key = (edge.u, edge.v)
        cost = (edge.weight, -graph.delays.get(edge.u, 0))
        if key not in dist or cost < dist[key]:
            dist[key] = cost

    for k in vertices:
        for i in vertices:
            left = dist.get((i, k))
            if left is None:
                continue
            for j in vertices:
                right = dist.get((k, j))
                if right is None:
                    continue
                candidate = (left[0] + right[0], left[1] + right[1])
                key = (i, j)
                if key not in dist or candidate < dist[key]:
                    dist[key] = candidate

    w: PairMap = {}
    d: PairMap = {}
    for (u, v), (weight, neg_delay) in dist.items():
        w[(u, v)] = int(weight)
        d[(u, v)] = int(-neg_delay) + graph.delays.get(v, 0)
    return w, d


def simple_graph():
    """host -> a -> b -> host' with one register between a and b."""
    return RetimingGraph(
        vertices=("a", "b"),
        edges=(
            RetimingEdge(HOST, "a", 0),
            RetimingEdge("a", "b", 1),
            RetimingEdge("b", HOST_OUT, 0),
        ),
        delays={"a": 3, "b": 2, HOST: 0, HOST_OUT: 0},
    )


# ---------------------------------------------------------------------------
# W / D matrices.
# ---------------------------------------------------------------------------


def test_wd_on_simple_graph():
    w, d = wd_dicts(simple_graph())
    assert w[("a", "b")] == 1
    assert d[("a", "b")] == 5  # d(a) + d(b) along the min-weight path
    assert w[(HOST, "a")] == 0
    assert d[(HOST, "a")] == 3


def test_wd_prefers_min_weight_then_max_delay():
    # Two a->b paths: direct with 1 register, or through c with 0
    # registers; W must pick 0 and D the delay through c.
    g = RetimingGraph(
        vertices=("a", "b", "c"),
        edges=(
            RetimingEdge(HOST, "a", 1),
            RetimingEdge("a", "b", 1),
            RetimingEdge("a", "c", 0),
            RetimingEdge("c", "b", 0),
            RetimingEdge("b", HOST_OUT, 1),
        ),
        delays={"a": 1, "b": 1, "c": 5, HOST: 0, HOST_OUT: 0},
    )
    w, d = wd_dicts(g)
    assert w[("a", "b")] == 0
    assert d[("a", "b")] == 7  # 1 + 5 + 1


def test_candidate_periods_sorted_unique():
    wd = compute_wd(simple_graph())
    candidates = wd.candidate_periods()
    assert list(candidates) == sorted(set(candidates))


def test_wd_computed_once_per_graph(monkeypatch):
    """Min-period retiming and the min-area retiming at its period share
    one Floyd-Warshall; a fresh graph gets its own W/D."""
    calls = []
    floyd_warshall = leiserson_saxe._floyd_warshall

    def counting(graph):
        calls.append(graph)
        return floyd_warshall(graph)

    monkeypatch.setattr(leiserson_saxe, "_floyd_warshall", counting)
    g = build_retiming_graph(correlator(8))
    minp = min_period_retiming(g)
    min_area_retiming(g, period=minp.period)
    assert len(calls) == 1 and calls[0] is g

    fresh = build_retiming_graph(correlator(8))
    min_area_retiming(fresh, period=minp.period)
    assert len(calls) == 2 and calls[1] is fresh
    # The memo hands every caller the same arrays, so they are read-only.
    with pytest.raises(ValueError):
        compute_wd(g).w[0, 0] = 1


# ---------------------------------------------------------------------------
# FEAS.
# ---------------------------------------------------------------------------


def test_feas_achieves_feasible_period():
    g = simple_graph()
    assert g.clock_period() == 3
    lag = feas(g, 3)
    assert lag is not None
    assert g.is_legal_lag(lag)
    assert g.clock_period(g.retimed_weights(lag)) <= 3


def test_feas_rejects_impossible_period():
    g = simple_graph()
    # No retiming can beat max vertex delay.
    assert feas(g, 2) is None


def test_feas_detects_unbreakable_host_path():
    """A combinational PI->PO path bounds the period from below."""
    g = RetimingGraph(
        vertices=("a",),
        edges=(RetimingEdge(HOST, "a", 0), RetimingEdge("a", HOST_OUT, 0)),
        delays={"a": 4, HOST: 0, HOST_OUT: 0},
    )
    assert feas(g, 3) is None
    assert feas(g, 4) is not None


def test_feas_normalises_host_lag_to_zero():
    g = build_retiming_graph(correlator(8))
    lag = feas(g, 4)
    assert lag is not None
    assert lag[HOST] == 0 and lag[HOST_OUT] == 0
    assert g.is_legal_lag(lag)


# ---------------------------------------------------------------------------
# Min-period retiming.
# ---------------------------------------------------------------------------


def test_min_period_on_correlator_matches_ls_story():
    """The flagship: retiming halves the correlator's clock period."""
    g = build_retiming_graph(correlator(8))
    result = min_period_retiming(g)
    assert result.original_period == 7
    assert result.period == 4
    assert result.improved
    assert g.is_legal_lag(result.lag)
    assert g.clock_period(g.retimed_weights(result.lag)) == result.period


def test_min_period_never_worse_than_original(iscas_circuit):
    g = build_retiming_graph(iscas_circuit)
    result = min_period_retiming(g)
    assert result.period <= result.original_period
    assert g.is_legal_lag(result.lag)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 500))
def test_min_period_result_is_achieved_and_legal(seed):
    circuit = random_sequential_circuit(
        seed, num_inputs=2, num_gates=10, num_latches=4
    )
    g = build_retiming_graph(circuit)
    result = min_period_retiming(g)
    weights = g.retimed_weights(result.lag)
    assert g.clock_period(weights) <= result.period
    assert result.period <= result.original_period


def test_min_period_optimality_by_exhaustion():
    """On a small graph, no feasible candidate below the reported
    optimum exists (cross-check the binary search)."""
    g = build_retiming_graph(correlator(5))
    result = min_period_retiming(g)
    for candidate in range(result.period):
        assert feas(g, candidate) is None


def test_pipeline_already_optimal():
    """A fully pipelined datapath has period ~1 gate level already."""
    g = build_retiming_graph(pipeline_circuit(3, 3, seed=1))
    result = min_period_retiming(g)
    assert result.period <= result.original_period <= 2


# ---------------------------------------------------------------------------
# Vectorised W/D and FEAS vs the pure-Python references.
# ---------------------------------------------------------------------------


def _random_graph(seed: int) -> RetimingGraph:
    """A small random retiming graph (possibly cyclic, never a
    combinational loop)."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    vertices = tuple("v%d" % i for i in range(n))
    edges = [RetimingEdge(HOST, vertices[0], rng.randint(0, 1))]
    for i in range(1, n):
        # A spine keeps everything reachable from the host.
        edges.append(RetimingEdge(vertices[i - 1], vertices[i], rng.randint(0, 2)))
    for _ in range(rng.randint(0, 4)):
        u = rng.choice(vertices)
        v = rng.choice(vertices)
        # Back/self edges must carry a register to avoid a
        # combinational loop.
        weight = rng.randint(1, 2) if vertices.index(v) <= vertices.index(u) else rng.randint(0, 2)
        edges.append(RetimingEdge(u, v, weight))
    edges.append(RetimingEdge(vertices[-1], HOST_OUT, rng.randint(0, 1)))
    delays = {v: rng.randint(1, 5) for v in vertices}
    return RetimingGraph(vertices, tuple(edges), delays, name="rand%d" % seed)


@pytest.mark.parametrize("seed", range(30))
def test_compute_wd_matches_reference_on_random_graphs(seed):
    g = _random_graph(seed)
    assert wd_dicts(g) == compute_wd_reference(g)


@pytest.mark.parametrize("name", names())
def test_compute_wd_matches_reference_on_benchmarks(name):
    g = build_retiming_graph(load(name))
    assert wd_dicts(g) == compute_wd_reference(g)


def feas_reference(graph: RetimingGraph, period: int):
    """FEAS as plain Bellman-Ford over the reference W/D: |V|+1 rounds
    relaxing every constraint one by one, with no early exit."""
    if any(graph.delays.get(v, 0) > period for v in graph.vertices):
        return None
    w, d = compute_wd_reference(graph)
    constraints = [(e.u, e.v, e.weight) for e in graph.edges]
    constraints += [(u, v, w[(u, v)] - 1) for (u, v), delay in d.items() if delay > period]
    constraints += [(HOST, HOST_OUT, 0), (HOST_OUT, HOST, 0)]
    r = dict.fromkeys(graph.vertices, 0)
    for _ in range(len(r) + 1):
        relaxed = dict(r)
        for u, v, bound in constraints:  # r(u) - r(v) <= bound
            relaxed[u] = min(relaxed[u], r[v] + bound)
        if relaxed == r:
            break
        r = relaxed
    else:
        return None
    lag = {v: r[v] - r[HOST] for v in graph.vertices}
    if not graph.is_legal_lag(lag):
        return None
    if graph.clock_period(graph.retimed_weights(lag)) > period:
        return None
    return lag


@pytest.mark.parametrize(
    "graph",
    [_random_graph(seed) for seed in range(30)]
    + [build_retiming_graph(load(name)) for name in names()],
    ids=["rand%d" % seed for seed in range(30)] + list(names()),
)
def test_feas_matches_reference_at_every_candidate_period(graph):
    """The same verdict and lag at every period D takes, and one below
    them all -- so infeasible periods, where FEAS stops at the first
    negative cycle, are covered as well as feasible ones."""
    candidates = compute_wd(graph).candidate_periods()
    for period in (candidates[0] - 1,) + candidates:
        assert feas(graph, period) == feas_reference(graph, period), period


# ---------------------------------------------------------------------------
# Min-period optimality against brute-force enumeration.
# ---------------------------------------------------------------------------


def _brute_force_best_period(graph: RetimingGraph, window: int = 3):
    """The best clock period over every lag assignment with entries in
    ``[-window, window]`` (hosts pinned to 0), by exhaustive search."""
    free = [v for v in graph.vertices if v not in (HOST, HOST_OUT)]
    best = graph.clock_period()
    for combo in itertools.product(range(-window, window + 1), repeat=len(free)):
        lag = dict(zip(free, combo))
        lag[HOST] = lag[HOST_OUT] = 0
        if not graph.is_legal_lag(lag):
            continue
        try:
            period = graph.clock_period(graph.retimed_weights(lag))
        except ValueError:  # zero-weight cycle after retiming
            continue
        best = min(best, period)
    return best


@pytest.mark.parametrize("seed", range(25))
def test_min_period_is_optimal_on_small_graphs(seed):
    """`min_period_retiming` must (a) return a legal lag that really
    achieves the claimed period and (b) never be beaten by any legal
    retiming in a +-3 lag window -- exhaustive over <= 6-vertex graphs,
    where the window provably contains an optimal assignment (no |lag|
    beyond the total register count ever helps on these sizes)."""
    g = _random_graph(seed)
    if len(g.vertices) > 6:
        pytest.skip("brute-force window sized for <= 6 vertices")
    result = min_period_retiming(g)
    assert g.is_legal_lag(result.lag)
    assert g.clock_period(g.retimed_weights(result.lag)) <= result.period
    assert result.period <= result.original_period
    assert result.period == _brute_force_best_period(g)


def test_min_period_optimal_on_simple_graph():
    g = simple_graph()
    result = min_period_retiming(g)
    assert result.period == _brute_force_best_period(g)
