"""Tests for the exact ("powerful") unknown-power-up simulator."""

from __future__ import annotations

import pytest

from repro.bench.paper_circuits import (
    TABLE1_INPUT_SEQUENCE,
    figure1_design_c,
    figure1_design_d,
)
from repro.bench.generators import shift_register
from repro.logic.ternary import ONE, X, ZERO
from repro.sim.exact import (
    ExactSimulator,
    exact_outputs,
    is_initializing_sequence,
    synchronized_state,
)


def test_section21_powerful_simulator_outputs():
    """Section 2.1: the powerful simulator outputs 0·0·1·0 for D and
    0·X·X·X for C on input 0·1·1·1."""
    d = figure1_design_d()
    c = figure1_design_c()
    assert exact_outputs(d, TABLE1_INPUT_SEQUENCE) == (
        (ZERO,),
        (ZERO,),
        (ONE,),
        (ZERO,),
    )
    assert exact_outputs(c, TABLE1_INPUT_SEQUENCE) == (
        (ZERO,),
        (X,),
        (X,),
        (X,),
    )


def test_one_redundant_cycle_reconciles_d_and_c():
    """Section 2.1: clocking one redundant cycle before the sequence
    makes even the powerful simulator agree on D and C."""
    d, c = figure1_design_d(), figure1_design_c()
    for warmup in ((False,), (True,)):
        seq = (warmup,) + TABLE1_INPUT_SEQUENCE
        assert exact_outputs(d, seq)[1:] == exact_outputs(c, seq)[1:]


def test_initializing_sequence_claims_from_figure2():
    d, c = figure1_design_d(), figure1_design_c()
    zero = [(False,)]
    assert is_initializing_sequence(d, zero)
    assert synchronized_state(d, zero) == (False,)
    assert not is_initializing_sequence(c, zero)
    assert synchronized_state(c, zero) is None
    # Two cycles initialise C (any first input, then 0).
    assert is_initializing_sequence(c, [(True,), (False,)])
    assert is_initializing_sequence(c, [(False,), (False,)])


def test_restricting_states_models_delayed_design():
    """Restricting the sweep to C^1's states makes C look like D."""
    import numpy as np

    c = figure1_design_c()
    sim = ExactSimulator(c)
    delayed = np.array([[False, False], [True, True]])  # states 00 and 11
    outs = sim.outputs(TABLE1_INPUT_SEQUENCE, states=delayed)
    assert outs == ((ZERO,), (ZERO,), (ONE,), (ZERO,))


def test_max_latch_guard_and_sampling():
    sr = shift_register(25)
    with pytest.raises(ValueError, match="capped"):
        ExactSimulator(sr, max_latches=20)
    # Sampling keeps it usable.
    sim = ExactSimulator(sr, sample=64, seed=1)
    outs = sim.outputs([(True,)] * 3)
    assert outs[0] == (X,)  # sampled states disagree on the tail bit


def test_shift_register_becomes_definite_after_fill():
    sr = shift_register(3)
    seq = [(True,)] * 5
    outs = exact_outputs(sr, seq)
    assert outs[0] == (X,) and outs[1] == (X,) and outs[2] == (X,)
    assert outs[3] == (ONE,) and outs[4] == (ONE,)


def test_final_states_shape():
    d = figure1_design_d()
    sim = ExactSimulator(d)
    final = sim.final_states([(False,)])
    assert final.shape == (2, 1)
    assert not final.any()  # both states reset to 0


def test_overrides_flow_through():
    d = figure1_design_d()
    sim = ExactSimulator(d, overrides={"q2b": True})
    outs = sim.outputs(TABLE1_INPUT_SEQUENCE)
    # Output gate = AND(I, 1) = I.
    assert outs == ((ZERO,), (ONE,), (ONE,), (ONE,))


def test_vectors_of_the_wrong_width_are_rejected():
    # Exact simulation reads one value per primary input, like the CLS:
    # extra values must not be ignored, and missing ones must not
    # surface as an IndexError from inside the compiled program.
    d = figure1_design_d()
    message = "circuit %s has 1 inputs, got %%d values" % d.name
    for vector in ((False, True), ()):
        with pytest.raises(ValueError, match=message % len(vector)):
            exact_outputs(d, [(True,), vector])
        with pytest.raises(ValueError, match=message % len(vector)):
            ExactSimulator(d).outputs([vector])
        with pytest.raises(ValueError, match=message % len(vector)):
            ExactSimulator(d).final_states([vector])
