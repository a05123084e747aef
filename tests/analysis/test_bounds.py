"""Tests for the Section 4 structural delay bound."""

from __future__ import annotations

import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import max_registers_on_simple_cycle, retiming_delay_bound
from repro.bench.generators import (
    correlator,
    random_sequential_circuit,
    shift_register,
)
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.retime.engine import RetimingSession
from repro.retime.graph import HOST, HOST_OUT, RetimingEdge, RetimingGraph, build_retiming_graph
from repro.retime.moves import enabled_moves


def test_figure1_bound_is_one():
    """D has one latch on its single feedback loop (and one-latch host
    cycles), so at most one forward crossing per junction -- matching
    the observed k = 1 for the hazardous move."""
    assert retiming_delay_bound(figure1_design_d()) == 1
    # C's feedback cycles each carry exactly one of its two latches.
    assert retiming_delay_bound(figure1_design_c()) == 1


def test_shift_register_bound_counts_host_cycle():
    """The paper's footnote: cycles pass through the host, so a pure
    4-deep pipeline has a 4-register host cycle."""
    assert retiming_delay_bound(shift_register(4)) == 4


def test_correlator_bound():
    c = correlator(6)
    bound = retiming_delay_bound(c)
    assert bound >= 6  # the whole delay line closes through the host


def test_acyclic_graph_bound_zero():
    g = RetimingGraph(
        vertices=("a",),
        edges=(RetimingEdge("a", "a", 2),),
    )
    # Self loop with weight 2.
    assert max_registers_on_simple_cycle(g) == 2
    g2 = RetimingGraph(vertices=("a", "b"), edges=(RetimingEdge("a", "b", 3),))
    assert max_registers_on_simple_cycle(g2) == 0


def test_parallel_edges_take_the_heaviest():
    g = RetimingGraph(
        vertices=("a", "b"),
        edges=(
            RetimingEdge("a", "b", 1, sink_pin=0),
            RetimingEdge("a", "b", 3, sink_pin=1),
            RetimingEdge("b", "a", 0),
        ),
    )
    assert max_registers_on_simple_cycle(g) == 3


def test_cycle_budget_guard():
    # A dense graph with many cycles trips the guard.
    vertices = tuple("v%d" % i for i in range(8))
    edges = tuple(
        RetimingEdge(u, v, 1, sink_pin=i)
        for i, u in enumerate(vertices)
        for v in vertices
        if u != v
    )
    g = RetimingGraph(vertices=vertices, edges=edges)
    with pytest.raises(MemoryError):
        max_registers_on_simple_cycle(g, max_cycles=10)


def _every_vertex_host_fed(circuit):
    """True iff every retiming-graph vertex is reachable from the host.

    The paper's structural bound presumes gates are (transitively) fed
    by the primary inputs.  A feedback loop with no host ancestry has no
    lower bound on its lags: a move walk can rotate the loop's registers
    forever, crossing each loop element forward once per revolution, so
    no simple-cycle weight bounds its k.
    """
    graph = build_retiming_graph(circuit)
    fused = {v: HOST if v == HOST_OUT else v for v in graph.vertices}
    successors = {v: set() for v in fused.values()}
    for e in graph.edges:
        successors[fused[e.u]].add(fused[e.v])
    reached, frontier = {HOST}, deque([HOST])
    while frontier:
        for v in successors[frontier.popleft()] - reached:
            reached.add(v)
            frontier.append(v)
    return len(reached) == len(successors)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2000), steps=st.integers(1, 10))
def test_theorem45_k_never_exceeds_structural_bound(seed, steps):
    """The observed k of any random move session on a host-fed circuit
    is bounded by the paper's structural bound on the original circuit
    (host-disconnected loops admit unbounded register rotation, hence
    the assume)."""
    rng = random.Random(seed)
    circuit = random_sequential_circuit(seed % 71, num_gates=7, num_latches=3)
    assume(_every_vertex_host_fed(circuit))
    bound = retiming_delay_bound(circuit)
    session = RetimingSession(circuit)
    for _ in range(steps):
        moves = enabled_moves(session.current)
        if not moves:
            break
        session.apply(rng.choice(moves))
    assert session.theorem45_k <= bound, session.summary()


# ---------------------------------------------------------------------------
# The in-repo cycle enumeration against networkx's, as an oracle.
# ---------------------------------------------------------------------------


def _networkx_bound(graph):
    """``(bound, cycles)`` the way the bound was first computed: a fused
    ``nx.MultiDiGraph``, ``nx.simple_cycles``, the heaviest parallel
    edge per hop."""
    fused = {v: HOST if v == HOST_OUT else v for v in graph.vertices}
    g = nx.MultiDiGraph()
    g.add_nodes_from(fused.values())
    for e in graph.edges:
        g.add_edge(fused[e.u], fused[e.v], weight=e.weight)
    best = count = 0
    for cycle in nx.simple_cycles(g):
        count += 1
        hops = zip(cycle, cycle[1:] + cycle[:1])
        parallels = (g.get_edge_data(u, v).values() for u, v in hops)
        best = max(best, sum(max(d["weight"] for d in edges) for edges in parallels))
    return best, count


def test_one_cycle_per_node_sequence():
    """Parallel a->b edges and a doubled self-loop on a are still the two
    cycles networkx yields, [a] and [a, b]."""
    g = RetimingGraph(
        vertices=("a", "b"),
        edges=(
            RetimingEdge("a", "a", 1, sink_pin=0),
            RetimingEdge("a", "a", 2, sink_pin=1),
            RetimingEdge("a", "b", 1, sink_pin=0),
            RetimingEdge("a", "b", 4, sink_pin=1),
            RetimingEdge("b", "a", 0, sink_pin=2),
        ),
    )
    assert _networkx_bound(g) == (4, 2)
    assert max_registers_on_simple_cycle(g, max_cycles=2) == 4
    with pytest.raises(MemoryError):
        max_registers_on_simple_cycle(g, max_cycles=1)


def test_cycle_enumeration_matches_networkx_on_random_multigraphs():
    """Same bound, and the guard trips at the same cycle count, on random
    multigraphs with parallel edges, self-loops and both host halves."""
    rng = random.Random(0)
    for _ in range(300):
        vertices = ("a", "b", "c", "d", "e", "f")[: rng.randint(1, 6)]
        ends = vertices + (HOST, HOST_OUT)
        edges = tuple(
            RetimingEdge(
                rng.choice(ends), rng.choice(ends), rng.randint(0, 3), sink_pin=i
            )
            for i in range(rng.randint(0, 20))
        )
        g = RetimingGraph(vertices=vertices, edges=edges)
        bound, cycles = _networkx_bound(g)
        assert max_registers_on_simple_cycle(g, max_cycles=cycles) == bound
        if cycles:
            with pytest.raises(MemoryError):
                max_registers_on_simple_cycle(g, max_cycles=cycles - 1)
