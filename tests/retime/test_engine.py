"""Tests for the retiming session (move accounting)."""

from __future__ import annotations

import pytest

from repro.bench.paper_circuits import figure1_design_d
from repro.netlist.builder import CircuitBuilder
from repro.retime.engine import RetimingSession, replay_moves
from repro.retime.moves import Direction, MoveError, MoveKind, RetimingMove


def test_single_hazardous_move_accounting():
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    assert session.hazardous_move_count == 1
    assert session.theorem45_k == 1
    assert not session.is_safe_per_corollary44
    counts = session.kind_counts()
    assert counts[MoveKind.FORWARD_NON_JUSTIFIABLE] == 1
    assert sum(counts.values()) == 1


def test_each_move_records_its_cell_and_latches_in_pin_order():
    """The record the initial-state propagation and the certificate
    read: the crossed function, and the latches removed and created."""
    d = figure1_design_d()
    session = RetimingSession(d)
    session.forward("fanQ")
    session.backward("fanQ")
    forward, backward = session.history
    fan = d.cell("fanQ")
    assert forward.function is backward.function is fan.function
    (q,) = forward.removed
    assert d.driver_of(fan.inputs[0]) == ("latch", q)
    assert forward.forward and not backward.forward
    assert len(forward.created) == fan.function.n_outputs == 2
    assert backward.removed == forward.created
    assert session.current.latch_names == backward.created


def test_original_is_never_mutated():
    d = figure1_design_d()
    snapshot = d.copy()
    session = RetimingSession(d)
    session.forward("fanQ")
    assert d.structurally_equal(snapshot)
    assert session.original is d
    assert not session.current.structurally_equal(d)


def test_backward_move_cancels_k():
    """Forward then backward across the same junction: the peak net
    crossing count is 1, so Theorem 4.5's k stays 1 (the hazard really
    happened), but the total is back to net zero."""
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    session.backward("fanQ")
    assert session.theorem45_k == 1  # peak was 1
    assert session.hazardous_move_count == 1


def test_backward_first_keeps_k_zero():
    """Backward then forward across a junction never exceeds net 0, so
    k = 0: Corollary 4.4 does not apply (a hazardous move occurred) but
    the Theorem 4.5 bound is still 0 delays."""
    chain = CircuitBuilder("jchain")
    i = chain.input("i")
    q = chain.latch(i, name="l0")
    a, b2 = chain.fanout(q, 2, name="j")
    la = chain.latch(a, name="la")
    lb = chain.latch(b2, name="lb")
    chain.output(chain.gate("AND", la, lb, name="g"))
    c = chain.build()

    session = RetimingSession(c)
    session.backward("j")  # merge the two latches into one
    session.forward("j")  # put them back
    assert session.theorem45_k == 0
    assert session.hazardous_move_count == 1


def test_justifiable_moves_do_not_contribute_to_k():
    b = CircuitBuilder()
    i = b.input("i")
    q1 = b.latch(i, name="l1")
    n = b.gate("NOT", q1, name="inv")
    q2 = b.latch(n, name="l2")
    b.output(q2)
    session = RetimingSession(b.build())
    session.forward("inv")
    session.backward("inv")
    assert session.theorem45_k == 0
    assert session.hazardous_move_count == 0
    assert session.is_safe_per_corollary44
    counts = session.kind_counts()
    assert counts[MoveKind.FORWARD_JUSTIFIABLE] == 1
    assert counts[MoveKind.BACKWARD_JUSTIFIABLE] == 1


def test_second_forward_without_latch_raises():
    b = CircuitBuilder()
    i = b.input("i")
    q1 = b.latch(i, name="l1")
    n = b.gate("NOT", q1, name="inv")
    q2 = b.latch(n, name="l2")
    b.output(q2)
    session = RetimingSession(b.build())
    session.forward("inv")
    with pytest.raises(MoveError):
        session.forward("inv")  # input now comes straight from the PI


def test_summary_text():
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    text = session.summary()
    assert "forward across a non-justifiable element" in text
    assert "k = 1" in text
    assert "does NOT apply" in text


def test_replay_moves():
    moves = [RetimingMove("fanQ", Direction.FORWARD)]
    session = replay_moves(figure1_design_d(), moves)
    assert session.moves == tuple(moves)
    assert session.current.num_latches == 2


def test_replay_propagates_move_errors():
    with pytest.raises(MoveError):
        replay_moves(
            figure1_design_d(), [RetimingMove("and2", Direction.FORWARD)]
        )
