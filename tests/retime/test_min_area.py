"""Tests for minimum-area retiming."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.bench.generators import (
    correlator,
    pipeline_circuit,
    random_sequential_circuit,
    shift_register,
)
from repro.bench.iscas import iscas89_names, load
from repro.logic.functions import AND, NOT, junction
from repro.netlist.circuit import Circuit
from repro.retime.apply import lag_to_moves
from repro.retime.graph import HOST, HOST_OUT, RetimingEdge, RetimingGraph, build_retiming_graph
from repro.retime.leiserson_saxe import min_period_retiming
from repro.retime.min_area import min_area_retiming


def test_min_area_never_increases_registers():
    g = build_retiming_graph(correlator(8))
    result = min_area_retiming(g)
    assert result.registers <= result.original_registers
    assert g.is_legal_lag(result.lag)
    assert g.registers_after(result.lag) == result.registers


def test_min_area_respects_period_constraint():
    g = build_retiming_graph(correlator(8))
    minp = min_period_retiming(g)
    result = min_area_retiming(g, period=minp.period)
    assert result.period <= minp.period
    assert g.is_legal_lag(result.lag)


def test_min_area_trade_off_visible_on_correlator():
    """Tighter periods need more registers (the classic area/speed
    trade-off curve)."""
    g = build_retiming_graph(correlator(8))
    unconstrained = min_area_retiming(g)
    at_min_period = min_area_retiming(g, period=min_period_retiming(g).period)
    assert unconstrained.registers <= at_min_period.registers
    assert at_min_period.registers > unconstrained.registers  # real trade-off


def test_min_area_collapses_sharable_registers():
    """Two parallel branches each carrying a latch can share one latch
    before their junction... here modelled directly in graph form: a
    diamond where both branch edges carry a register that can retire to
    the single upstream edge."""
    g = RetimingGraph(
        vertices=("src", "l", "r", "snk"),
        edges=(
            RetimingEdge(HOST, "src", 0),
            RetimingEdge("src", "l", 1),
            RetimingEdge("src", "r", 1),
            RetimingEdge("l", "snk", 0),
            RetimingEdge("r", "snk", 0),
            RetimingEdge("snk", HOST_OUT, 1),
        ),
        delays={"src": 1, "l": 1, "r": 1, "snk": 1, HOST: 0, HOST_OUT: 0},
    )
    result = min_area_retiming(g)
    # Moving both branch registers upstream of src saves one register.
    # Several lags reach 2 registers; the greatest moves the output
    # register back too, so both sit on the input edge.
    assert result.registers == 3 - 1
    assert result.lag == {HOST: 0, HOST_OUT: 0, "src": 2, "l": 1, "r": 1, "snk": 1}
    assert g.is_legal_lag(result.lag)


def test_min_area_infeasible_period_raises():
    g = build_retiming_graph(correlator(6))
    with pytest.raises(ValueError):
        min_area_retiming(g, period=1)  # below a single gate delay chain


def test_shift_register_cannot_shrink():
    g = build_retiming_graph(shift_register(5))
    result = min_area_retiming(g)
    assert result.registers == 5  # host-to-host weight is invariant


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 300))
def test_min_area_legal_and_no_worse(seed):
    circuit = random_sequential_circuit(seed, num_gates=10, num_latches=4)
    g = build_retiming_graph(circuit)
    result = min_area_retiming(g)
    assert g.is_legal_lag(result.lag)
    assert result.registers <= result.original_registers
    assert result.saved == result.original_registers - result.registers


def _island_circuit() -> Circuit:
    """An input feeds NOT -> latch -> output; beside it runs a loop
    latch -> JUNC2 -> {NOT, AND(branch, NOT)} -> latch that no input
    feeds and no output reads."""
    c = Circuit("island")
    c.add_input("i")
    c.add_cell("inv", NOT, ["i"], ["ni"])
    c.add_latch("L1", "ni", "q1")
    c.add_output("q1")
    c.add_latch("L2", "x", "q2")
    c.add_cell("j", junction(2), ["q2"], ["a", "b"])
    c.add_cell("n", NOT, ["a"], ["na"])
    c.add_cell("g", AND, ["b", "na"], ["x"])
    return c


@pytest.mark.parametrize("at_min_period", [False, True])
def test_a_component_no_host_reaches_is_pinned_at_lag_zero(at_min_period):
    """The loop's register count and rows are shift-invariant, so its
    first vertex is pinned at 0 like the hosts, and the loop keeps its
    latch where it is.  Unpinned, the loop's cells took the LP's box
    bound as their lag (-9), and the realisation made 27 moves, 9 of
    them hazardous (k = 9), for no register saved."""
    circuit = _island_circuit()
    assert circuit.is_normal_form()
    graph = build_retiming_graph(circuit)
    period = min_period_retiming(graph).period if at_min_period else None
    result = min_area_retiming(graph, period=period)
    # The host side's greatest optimum moves its latch onto the input.
    assert result.lag == {HOST: 0, HOST_OUT: 0, "inv": 1, "j": 0, "n": 0, "g": 0}
    assert result.registers == result.original_registers == 2
    session = lag_to_moves(circuit, result.lag)
    assert [move.element for move in session.moves] == ["inv"]
    assert session.hazardous_move_count == session.theorem45_k == 0


# ---------------------------------------------------------------------------
# The defined optimum, against the full LP of tests/reference.py.
# ---------------------------------------------------------------------------


def _oracle_circuits():
    for k in (4, 6, 8, 12, 16):
        yield "correlator%d" % k, correlator(k)
    yield "pipe4x4", pipeline_circuit(4, 4, seed=3)
    for name in iscas89_names():
        yield name, load(name)
    for seed in range(12):
        yield "rand14x5-%d" % seed, random_sequential_circuit(seed, num_gates=14, num_latches=5)
        yield "rand8x3-%d" % seed, random_sequential_circuit(seed)
    # Draws whose graph holds a component no host reaches.
    yield "rand14x5-191", random_sequential_circuit(191, num_gates=14, num_latches=5)
    yield "rand10x4-214", random_sequential_circuit(214, num_gates=10, num_latches=4)


ORACLE_CIRCUITS = dict(_oracle_circuits())


@pytest.mark.parametrize("name", sorted(ORACLE_CIRCUITS))
def test_lag_is_the_full_lps_greatest_optimum(name):
    """At no period, the minimum period and the original period, the
    pruned LP reaches the full LP's register count, and its lag is the
    greatest of the full LP's optimal lags.  Each vertex is crossed
    forward max(0, -lag) times, so no optimal lag -- the least one
    included -- realises with fewer hazardous moves or a smaller k."""
    circuit = ORACLE_CIRCUITS[name]
    graph = build_retiming_graph(circuit)
    minp = min_period_retiming(graph)
    for period in (None, minp.period, minp.original_period):
        result = min_area_retiming(graph, period=period)
        registers, _ = reference.min_area_lp(graph, period)
        assert result.registers == registers, period
        greatest = reference.min_area_extreme_lag(graph, period, registers, greatest=True)
        assert result.lag == greatest, period
        least = reference.min_area_extreme_lag(graph, period, registers, greatest=False)
        if least != greatest:
            ours, theirs = lag_to_moves(circuit, result.lag), lag_to_moves(circuit, least)
            assert ours.hazardous_move_count <= theirs.hazardous_move_count, period
            assert ours.theorem45_k <= theirs.theorem45_k, period
