"""Tests for W/D matrices, FEAS and min-period retiming."""

from __future__ import annotations

import itertools
import random
from typing import Dict, Optional, Tuple

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import floyd_warshall_wd
from repro.bench.generators import correlator, pipeline_circuit, random_sequential_circuit
from repro.bench.iscas import iscas89_names, load, names
from repro.retime import leiserson_saxe
from repro.retime.graph import HOST, HOST_OUT, RetimingEdge, RetimingGraph, build_retiming_graph
from repro.retime.leiserson_saxe import WDMatrices, compute_wd, feas, min_period_retiming
from repro.retime.min_area import min_area_retiming

PairMap = Dict[Tuple[str, str], int]


def wd_dicts(graph: RetimingGraph, wd: Optional[WDMatrices] = None) -> Tuple[PairMap, PairMap]:
    """*wd*'s matrices (by default :func:`compute_wd`'s) as (W, D) dicts
    keyed by vertex pairs, holding exactly the pairs some path
    connects."""
    wd = compute_wd(graph) if wd is None else wd
    w: PairMap = {}
    d: PairMap = {}
    for i, j in zip(*wd.reachable.nonzero()):
        pair = (graph.vertices[i], graph.vertices[j])
        w[pair] = int(wd.w[i, j])
        d[pair] = int(wd.d[i, j])
    return w, d


def compute_wd_reference(graph: RetimingGraph) -> Tuple[PairMap, PairMap]:
    """The pure-Python tuple-cost Floyd-Warshall that
    :func:`reference.floyd_warshall_wd` vectorises -- the differential
    oracle on small graphs."""
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
    one W/D computation; a fresh graph gets its own W/D."""
    calls = []
    walks = leiserson_saxe._walks_through_registers

    def counting(graph):
        calls.append(graph)
        return walks(graph)

    monkeypatch.setattr(leiserson_saxe, "_walks_through_registers", counting)
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


@pytest.mark.parametrize(
    "edges",
    [
        # a <-> b with no register: the walk lengths are unbounded.
        [(HOST, "a", 0), ("a", "b", 0), ("b", "a", 0), ("b", HOST_OUT, 0)],
        # The same loop, through a vertex that a register also feeds.
        [(HOST, "a", 1), ("a", "b", 0), ("b", "a", 0), ("b", HOST_OUT, 0)],
        # A zero-weight self-loop.
        [(HOST, "a", 1), ("a", "a", 0), ("a", HOST_OUT, 0)],
    ],
    ids=["unregistered", "registered-entry", "self-loop"],
)
def test_wd_rejects_a_combinational_loop(edges):
    """W and D are undefined on a zero-weight cycle: compute_wd raises
    the error clock_period gives rather than return matrices."""
    g = RetimingGraph(("a", "b"), [RetimingEdge(*e) for e in edges], name="loop")
    with pytest.raises(ValueError, match="zero-weight cycle: combinational loop in loop"):
        compute_wd(g)
    with pytest.raises(ValueError, match="zero-weight cycle: combinational loop in loop"):
        g.clock_period()


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
    """compute_wd and the vectorised Floyd-Warshall oracle both equal
    the pure-Python tuple-cost Floyd-Warshall."""
    g = _random_graph(seed)
    expected = compute_wd_reference(g)
    assert wd_dicts(g) == expected
    assert wd_dicts(g, floyd_warshall_wd(g)) == expected


@pytest.mark.parametrize("name", names())
def test_compute_wd_matches_reference_on_benchmarks(name):
    g = build_retiming_graph(load(name))
    expected = compute_wd_reference(g)
    assert wd_dicts(g) == expected
    assert wd_dicts(g, floyd_warshall_wd(g)) == expected


def _edge_case_graph(kind: str) -> RetimingGraph:
    """Small graphs on the edges of the register-tail decomposition."""
    if kind == "no-register":
        # No registered edge: no pivot at all, only zero-weight paths.
        edges = [(HOST, "a", 0), ("a", "b", 0), ("a", "c", 0), ("b", "c", 0),
                 ("c", HOST_OUT, 0)]
        return RetimingGraph(("a", "b", "c"), [RetimingEdge(*e) for e in edges],
                             {"a": 2, "b": 1, "c": 3}, name=kind)
    if kind == "parallel-and-self-loops":
        # Parallel edges of different weights, registered self-loops and
        # a vertex that feeds registers on two out-edges.
        edges = [(HOST, "a", 0), ("a", "b", 1), ("a", "b", 0), ("a", "b", 2, 1),
                 ("a", "a", 1), ("b", "b", 2), ("b", "b", 1, 1), ("b", "a", 1),
                 ("b", "c", 0), ("c", "a", 3), ("c", HOST_OUT, 0), ("a", HOST_OUT, 1)]
        return RetimingGraph(("a", "b", "c"), [RetimingEdge(*e) for e in edges],
                             {"a": 4, "b": 2, "c": 5}, name=kind)
    if kind == "zero-delays":
        # Zero-delay vertices (junctions): D ties between paths of one W.
        edges = [(HOST, "j", 0), ("j", "a", 0), ("j", "b", 0), ("a", "k", 1),
                 ("b", "k", 0), ("k", "j", 1), ("k", HOST_OUT, 0)]
        return RetimingGraph(("j", "a", "b", "k"), [RetimingEdge(*e) for e in edges],
                             {"j": 0, "a": 1, "b": 0, "k": 0}, name=kind)
    raise AssertionError(kind)


def _wd_oracle_cases():
    """(id, graph builder) for every graph compute_wd is held to the
    Floyd-Warshall oracle on."""
    for name in iscas89_names():
        yield name, lambda name=name: build_retiming_graph(load(name))
        yield name + "+merged", lambda name=name: build_retiming_graph(
            load(name), merge_junctions=True
        )
    for k in (6, 12, 24, 48):
        yield "correlator%d" % k, lambda k=k: build_retiming_graph(correlator(k))
    for size in (4, 8):
        yield "pipe%dx%d" % (size, size), lambda size=size: build_retiming_graph(
            pipeline_circuit(size, size, seed=1)
        )
    for seed in range(3):
        yield "random%d" % seed, lambda seed=seed: build_retiming_graph(
            random_sequential_circuit(seed, num_inputs=3, num_gates=60, num_latches=30)
        )
    for kind in ("no-register", "parallel-and-self-loops", "zero-delays"):
        yield kind, lambda kind=kind: _edge_case_graph(kind)


WD_ORACLE_CASES = dict(_wd_oracle_cases())


@pytest.mark.parametrize("case", list(WD_ORACLE_CASES))
def test_compute_wd_equals_floyd_warshall(case):
    """The register-tail decomposition and all-pairs Floyd-Warshall
    minimise over the same walks with exact costs: the same arrays,
    entry for entry, on the graphs where they differ most in work."""
    g = WD_ORACLE_CASES[case]()
    got, expected = compute_wd(g), floyd_warshall_wd(g)
    for name in ("w", "d", "reachable"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and numpy.array_equal(a, b), name


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


def _brute_force_min_area(graph: RetimingGraph, period):
    """The least register count over the legal lags whose clock period
    is at most *period* (any, when ``None``), and the componentwise
    maximum of the lags that reach it, by exhaustive search.  Each
    lag(v) ranges over ``[-W(HOST, v), W(v, HOST')]``, the window every
    legal lag lies in: the paths HOST -> v and v -> HOST' keep a
    non-negative weight.  (Every vertex of :func:`_random_graph` lies
    on such paths.)"""
    w, _ = compute_wd_reference(graph)
    free = [v for v in graph.vertices if v not in (HOST, HOST_OUT)]
    windows = [range(-w[(HOST, v)], w[(v, HOST_OUT)] + 1) for v in free]
    best, top = None, None
    for combo in itertools.product(*windows):
        lag = dict(zip(free, combo))
        lag[HOST] = lag[HOST_OUT] = 0
        if not graph.is_legal_lag(lag):
            continue
        weights = graph.retimed_weights(lag)
        if period is not None and graph.clock_period(weights) > period:
            continue
        registers = sum(weights[edge] for edge in graph.edges)
        if best is None or registers < best:
            best, top = registers, lag
        elif registers == best:
            top = {v: max(top[v], lag[v]) for v in lag}
    return best, top


@pytest.mark.parametrize("seed", range(25))
def test_min_area_is_optimal_on_small_graphs(seed):
    """`min_area_retiming` reaches the least register count of any
    legal lag at the period, and returns the componentwise maximum of
    the lags that reach it -- at no period, the minimum period and the
    original one, exhaustive over <= 6-vertex graphs."""
    g = _random_graph(seed)
    if len(g.vertices) > 6:
        pytest.skip("brute-force window sized for <= 6 vertices")
    minp = min_period_retiming(g)
    for period in (None, minp.period, minp.original_period):
        result = min_area_retiming(g, period=period)
        registers, top = _brute_force_min_area(g, period)
        assert result.registers == registers, period
        assert result.lag == top, period
