"""Tests for safe replacement (≼) and Proposition 3.1."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.stg.equivalence import implies
from repro.stg.explicit import STG, extract_stg
from repro.stg.replaceability import (
    SafeReplacementViolation,
    SearchBudgetExceeded,
    decide_safe_replacement,
    find_safe_replacement_violation,
    find_violation,
    is_safe_replacement,
)


def d_stg():
    return extract_stg(figure1_design_d())


def c_stg():
    return extract_stg(figure1_design_c())


def test_paper_example_violates_safe_replacement():
    assert not is_safe_replacement(c_stg(), d_stg())
    assert is_safe_replacement(d_stg(), c_stg())


def test_violation_witness_matches_paper():
    """The minimal counterexample is exactly the paper's: power-up state
    10 of C, input 0·1, output behaviour 0·1 which no D state shows."""
    violation = find_violation(c_stg(), d_stg())
    assert isinstance(violation, SafeReplacementViolation)
    assert violation.c_state == 2  # binary "10"
    assert violation.input_symbols == (0, 1)
    assert violation.c_outputs == (0, 1)


def test_violation_outputs_are_truly_unmatched():
    """Replay the witness: no state of D reproduces C's output string."""
    violation = find_violation(c_stg(), d_stg())
    d = d_stg()
    for s in range(d.num_states):
        outputs, _ = d.run(s, violation.input_symbols)
        assert tuple(outputs) != violation.c_outputs


def test_safe_replacement_reflexive():
    for stg in (d_stg(), c_stg()):
        assert is_safe_replacement(stg, stg)


def test_interface_mismatch_rejected():
    a = extract_stg(random_sequential_circuit(0, num_inputs=1))
    b = extract_stg(random_sequential_circuit(0, num_inputs=2))
    with pytest.raises(ValueError):
        is_safe_replacement(a, b)


def test_subset_guard():
    with pytest.raises(MemoryError):
        find_violation(c_stg(), c_stg(), max_states=1)


class TestSearchBudgetExceeded:
    """Budget exhaustion must be a distinguishable, loud failure."""

    def test_is_safe_replacement_raises_not_answers(self):
        """A tiny budget must raise, never silently return a verdict."""
        with pytest.raises(SearchBudgetExceeded):
            is_safe_replacement(c_stg(), c_stg(), max_states=1)

    def test_subclasses_memory_error_for_compatibility(self):
        assert issubclass(SearchBudgetExceeded, MemoryError)
        with pytest.raises(MemoryError):
            is_safe_replacement(c_stg(), c_stg(), max_states=1)

    def test_message_names_the_budget(self):
        with pytest.raises(SearchBudgetExceeded, match="2 subset states"):
            find_violation(c_stg(), d_stg(), max_states=2)

    def test_circuit_dispatcher_propagates_budget(self):
        c = figure1_design_c()
        with pytest.raises(SearchBudgetExceeded):
            find_safe_replacement_violation(c, c, engine="explicit", budget=1)


class TestCircuitLevelDispatch:
    def test_explicit_engine_matches_stg_path(self):
        c, d = figure1_design_c(), figure1_design_d()
        violation = find_safe_replacement_violation(c, d, engine="explicit")
        assert violation == find_violation(c_stg(), d_stg())
        assert not decide_safe_replacement(c, d, engine="explicit")
        assert decide_safe_replacement(d, c, engine="explicit")

    def test_symbolic_engine_agrees_on_paper_pair(self):
        c, d = figure1_design_c(), figure1_design_d()
        assert find_safe_replacement_violation(
            c, d, engine="symbolic"
        ) == find_violation(c_stg(), d_stg())
        assert decide_safe_replacement(d, c, engine="symbolic")

    def test_unknown_engine_rejected(self):
        c = figure1_design_c()
        with pytest.raises(ValueError):
            decide_safe_replacement(c, c, engine="bogus")


@settings(deadline=None, max_examples=15)
@given(seed_c=st.integers(0, 300), seed_d=st.integers(0, 300))
def test_proposition_31_implication_implies_safe_replacement(seed_c, seed_d):
    """Prop 3.1: C ⊑ D ⇒ C ≼ D, on random machine pairs."""
    c = extract_stg(
        random_sequential_circuit(seed_c, num_inputs=1, num_gates=5, num_latches=2)
    )
    d = extract_stg(
        random_sequential_circuit(seed_d, num_inputs=1, num_gates=5, num_latches=2)
    )
    if implies(c, d):
        assert is_safe_replacement(c, d)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 300))
def test_safe_replacement_weaker_than_implication_never_reversed(seed):
    """If C is NOT a safe replacement, implication must fail too
    (contrapositive of Prop 3.1)."""
    c = extract_stg(
        random_sequential_circuit(seed, num_inputs=1, num_gates=6, num_latches=2)
    )
    d = extract_stg(
        random_sequential_circuit(seed + 1000, num_inputs=1, num_gates=6, num_latches=2)
    )
    if not is_safe_replacement(c, d):
        assert not implies(c, d)


def test_hand_built_gap_between_sqsubseteq_and_preceq():
    """A machine where ≼ holds but ⊑ fails (the [PSAB94] separation):
    C has a state equivalent to no single D state, yet every input
    sequence's behaviour is matched by SOME D state."""
    # D: two eternal modes -- state 0 echoes the input, state 1 inverts.
    d = STG(
        num_latches=1,
        num_inputs=1,
        num_outputs=1,
        next_state=[[0, 0], [1, 1]],
        output=[[0, 1], [1, 0]],
        name="D_two_modes",
    )
    # C adds an "adaptive" state 2 that outputs 0 on either input, then
    # commits: after input 0 it echoes forever (like D's state 0, whose
    # run on that 0 also emitted 0), after input 1 it inverts forever
    # (like D's state 1, whose run on that 1 also emitted 0).  Every
    # finite run of state 2 is therefore matched by SOME D state -- but
    # by a different one depending on the input, so state 2 is
    # equivalent to neither.  State 3 pads the state count (a copy of
    # the echo mode).
    c = STG(
        num_latches=2,
        num_inputs=1,
        num_outputs=1,
        next_state=[[0, 0], [1, 1], [0, 1], [0, 0]],
        output=[[0, 1], [1, 0], [0, 0], [0, 1]],
        name="C_adaptive",
    )
    assert is_safe_replacement(c, d)
    assert not implies(c, d)
