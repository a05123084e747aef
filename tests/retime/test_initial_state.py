"""Tests for Touati-Brayton initial-state propagation across retiming."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_d, figure1_design_c
from repro.retime.engine import RetimingSession
from repro.retime.initial_state import InitialStateError, propagate_initial_state
from repro.retime.moves import enabled_moves
from repro.sim.binary import BinarySimulator


def outputs_match(original, retimed, s0, s1, seq):
    a = BinarySimulator(original).output_sequence(s0, seq)
    b = BinarySimulator(retimed).output_sequence(s1, seq)
    return a == b


def test_forward_move_pushes_state_through_function():
    """Figure 1's hazardous move: D initialised to 0 maps to C
    initialised to (0, 0) -- the junction copies the value."""
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    new_state = propagate_initial_state(session, (False,))
    assert new_state == (False, False)
    new_state = propagate_initial_state(session, (True,))
    assert new_state == (True, True)


def test_propagated_state_is_behaviourally_equivalent():
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    seq = [(True,), (False,), (True,), (True,)]
    for init in ((False,), (True,)):
        new_state = propagate_initial_state(session, init)
        assert outputs_match(session.original, session.current, init, new_state, seq)


def test_backward_junction_move_requires_equal_latches():
    """Backward across a junction: the branch latches must agree.
    Starting C at (0, 1) -- the paper's rogue-family states -- the
    justification fails with the unjustifiable vector in hand."""
    session = RetimingSession(figure1_design_c())
    session.backward("fanQ")
    assert propagate_initial_state(session, (True, True)) == (True,)
    with pytest.raises(InitialStateError) as exc:
        propagate_initial_state(session, (False, True))
    assert exc.value.element == "fanQ"
    assert exc.value.vector == (False, True)


def test_width_validation():
    session = RetimingSession(figure1_design_d())
    with pytest.raises(ValueError, match="width"):
        propagate_initial_state(session, (False, True))


def test_empty_session_is_identity():
    d = figure1_design_d()
    session = RetimingSession(d)
    assert propagate_initial_state(session, (True,)) == (True,)


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 3000), steps=st.integers(1, 6), data=st.data())
def test_propagation_preserves_behaviour_or_fails_honestly(seed, steps, data):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(seed % 59, num_gates=7, num_latches=3)
    session = RetimingSession(circuit)
    for _ in range(steps):
        moves = enabled_moves(session.current)
        if not moves:
            break
        session.apply(rng.choice(moves))
    init = tuple(data.draw(st.booleans()) for _ in range(circuit.num_latches))
    try:
        new_state = propagate_initial_state(session, init)
    except InitialStateError as exc:
        # Honest failure: the vector really is outside the element's
        # image (checked via the justifiability analysis).
        from repro.logic.justifiability import justify

        # Moves never change a cell's function.
        fn = session.original.cell(exc.element).function
        assert justify(fn, exc.vector) is None
        return
    seq = [
        tuple(data.draw(st.booleans()) for _ in circuit.inputs) for _ in range(5)
    ]
    assert outputs_match(session.original, session.current, init, new_state, seq)
