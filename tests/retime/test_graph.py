"""Tests for the Leiserson-Saxe retiming graph model."""

from __future__ import annotations

import pytest

from repro.bench.generators import correlator, shift_register
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.retime.graph import (
    HOST,
    HOST_OUT,
    RetimingEdge,
    RetimingGraph,
    build_retiming_graph,
    default_delay,
)


def test_figure4_d_and_c_share_one_retiming_graph():
    """Section 3.1 / Figure 4: 'Both the circuits in Figure 1 are
    represented by the same retiming graph' -- the classical model
    cannot distinguish them (junctions dissolved)."""
    gd = build_retiming_graph(figure1_design_d(), merge_junctions=True)
    gc = build_retiming_graph(figure1_design_c(), merge_junctions=True)
    assert gd.canonical_form() == gc.canonical_form()


def test_explicit_junctions_distinguish_d_and_c():
    """With JUNC vertices kept, the two designs differ (the latch sits
    on different sides of the junction vertex)."""
    gd = build_retiming_graph(figure1_design_d())
    gc = build_retiming_graph(figure1_design_c())
    assert gd.canonical_form() != gc.canonical_form()
    assert gd.num_registers == 1
    assert gc.num_registers == 2


def test_edge_weights_count_latch_chains():
    sr = shift_register(4)
    g = build_retiming_graph(sr)
    # one edge host -> host' carrying 4 latches
    (edge,) = g.edges
    assert edge.u == HOST and edge.v == HOST_OUT
    assert edge.weight == 4
    assert g.num_registers == 4


def test_host_edges_for_io():
    d = figure1_design_d()
    g = build_retiming_graph(d)
    assert any(e.u == HOST for e in g.edges)  # PI feed
    assert any(e.v == HOST_OUT for e in g.edges)  # PO feed
    # Host lag must be 0 in any legal assignment.
    assert not g.is_legal_lag({HOST: 1})
    assert not g.is_legal_lag({HOST_OUT: -1})


def test_default_delay_model():
    d = figure1_design_d()
    delays = default_delay(d)
    assert delays["and1"] == 1
    assert delays["fanQ"] == 0  # junctions are free
    assert delays[HOST] == 0


def test_clock_period_of_figure1_d():
    g = build_retiming_graph(figure1_design_d())
    # Longest zero-weight path: I junction -> or1 -> and1 = 2 gates.
    assert g.clock_period() == 2


def test_retimed_weights_and_registers_after():
    g = build_retiming_graph(figure1_design_d())
    lag = {v: 0 for v in g.vertices}
    assert g.registers_after(lag) == g.num_registers
    # The hazardous forward move as a lag: fanQ lag -1.
    lag["fanQ"] = -1
    assert g.is_legal_lag(lag)
    assert g.registers_after(lag) == 2  # one latch becomes two


def test_registers_after_counts_identical_parallel_edges():
    """Two self-loops with the same weight and pin are equal edges, so
    one key of ``retimed_weights``; both still hold a register."""
    g = RetimingGraph(
        vertices=("a",),
        edges=(
            RetimingEdge(HOST, "a", 0),
            RetimingEdge("a", "a", 1),
            RetimingEdge("a", "a", 1),
            RetimingEdge("a", HOST_OUT, 0),
        ),
    )
    assert g.num_registers == 2
    assert g.registers_after({"a": 0}) == 2


def test_illegal_lag_rejected():
    g = build_retiming_graph(figure1_design_d())
    lag = {v: 0 for v in g.vertices}
    lag["and2"] = 1  # would need a latch on its zero-weight PO edge
    assert not g.is_legal_lag(lag)
    with pytest.raises(ValueError, match="illegal"):
        g.retimed_weights(lag)


def test_zero_weight_cycle_detected():
    g = RetimingGraph(
        vertices=("a", "b"),
        edges=(RetimingEdge("a", "b", 0), RetimingEdge("b", "a", 0)),
        delays={"a": 1, "b": 1},
    )
    with pytest.raises(ValueError, match="cycle"):
        g.clock_period()


def test_negative_edge_weight_rejected():
    with pytest.raises(ValueError, match="negative"):
        RetimingGraph(vertices=("a",), edges=(RetimingEdge("a", "a", -1),))


def test_unknown_vertex_rejected():
    with pytest.raises(ValueError, match="unknown vertex"):
        RetimingGraph(vertices=("a",), edges=(RetimingEdge("a", "zz", 0),))


def test_parallel_edges_preserved():
    """A 2-input gate fed twice by the same source keeps two edges."""
    from repro.netlist.builder import CircuitBuilder

    b = CircuitBuilder()
    i = b.input("i")
    x, y = b.fanout(i, 2, name="j")
    b.output(b.gate("AND", x, y, name="g"))
    g = build_retiming_graph(b.build())
    parallel = [e for e in g.edges if e.u == "j" and e.v == "g"]
    assert len(parallel) == 2
    assert {e.sink_pin for e in parallel} == {0, 1}


def test_correlator_period_structure():
    c = correlator(8)
    g = build_retiming_graph(c)
    assert g.clock_period() == 7  # XNOR + 6 ANDs on the zero-weight chain
    assert g.num_registers == 8


def test_pretty_output():
    g = build_retiming_graph(figure1_design_d())
    text = g.pretty()
    assert "RetimingGraph" in text and "-1->" in text
