"""Tests for the exhaustive CLS-equivalence decision procedure
(the paper's Section 6 future work, implemented)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.logic.ternary import ONE, X, ZERO
from repro.netlist.builder import CircuitBuilder
from repro.retime.engine import RetimingSession
from repro.retime.moves import enabled_moves
from repro.sim.ternary_sim import cls_outputs
from repro.stg.ternary_equiv import (
    CLSDistinguisher,
    cls_equivalent_exhaustive,
    cls_reachable_pairs,
    decide_cls_equivalence,
)


def test_figure1_pair_is_cls_equivalent_exhaustively():
    """Corollary 5.3 for the paper's own pair, now with a COMPLETE
    verifier: no ternary input sequence of any length distinguishes D
    from C under the CLS."""
    assert decide_cls_equivalence(figure1_design_d(), figure1_design_c()) is None


def test_reflexivity():
    d = figure1_design_d()
    assert cls_equivalent_exhaustive(d, d.copy())


def test_distinguisher_for_genuinely_different_circuits():
    def make(kind):
        b = CircuitBuilder(kind)
        i = b.input("i")
        b.output(b.gate(kind, i))
        return b.build()

    witness = decide_cls_equivalence(make("BUF"), make("NOT"))
    assert isinstance(witness, CLSDistinguisher)
    assert len(witness.inputs) == 1  # minimal: a single vector suffices
    assert witness.outputs_c != witness.outputs_d
    assert "outputs" in witness.describe()


def test_distinguisher_is_replayable():
    """The returned input sequence really does produce different CLS
    transcripts when replayed through the plain simulator."""

    def make(mask):
        b = CircuitBuilder()
        i = b.input("i")
        q = b.net("q")
        nxt = b.gate("AND", i, q) if mask else b.gate("OR", i, q)
        b.latch(nxt, q, name="ff")
        b.output(b.gate("BUF", q))
        return b.build()

    a, b_ = make(True), make(False)
    witness = decide_cls_equivalence(a, b_)
    assert witness is not None
    outs_a = cls_outputs(a, witness.inputs)
    outs_b = cls_outputs(b_, witness.inputs)
    assert outs_a[-1] == witness.outputs_c
    assert outs_b[-1] == witness.outputs_d
    assert outs_a[-1] != outs_b[-1]


def test_state_dependent_difference_found_deep():
    """Two shift-registers of different lengths differ only after the
    X's flush out -- BFS must go deep enough and report a minimal
    sequence."""
    from repro.bench.generators import shift_register

    witness = decide_cls_equivalence(shift_register(2), shift_register(3))
    assert witness is not None
    # Distinguishing needs at least 3 cycles (definite bit reaching the
    # shorter register's output while the longer still shows X).
    assert len(witness.inputs) == 3


def test_interface_mismatch_rejected():
    with pytest.raises(ValueError):
        decide_cls_equivalence(figure1_design_d(), shift2_two_inputs())


def shift2_two_inputs():
    b = CircuitBuilder()
    i, j = b.input("i"), b.input("j")
    q = b.latch(b.gate("AND", i, j), name="ff")
    b.output(q)
    return b.build()


def test_pair_budget_guard():
    """A blown pair budget is the typed budget error every other search
    raises (still a MemoryError, which serve maps to budget-exceeded)."""
    from repro.bench.generators import shift_register
    from repro.stg.replaceability import SearchBudgetExceeded

    with pytest.raises(SearchBudgetExceeded, match="exceeded 2 state pairs"):
        decide_cls_equivalence(shift_register(4), shift_register(4), max_pairs=2)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 2 state pairs"):
        cls_reachable_pairs(shift_register(4), shift_register(4), max_pairs=2)


def test_budget_bounds_the_work_on_a_many_input_pair(monkeypatch):
    """s208 has 10 inputs: one reached pair alone is 3**10 = 59,049
    ternary steps of each machine.  The budget counts pair visits, one
    per (pair, symbol) step, so the search ends undecided after at most
    that many steps instead of running for minutes."""
    from repro.bench.iscas import load
    from repro.retime.apply import lag_to_moves
    from repro.retime.graph import build_retiming_graph
    from repro.retime.leiserson_saxe import min_period_retiming
    from repro.sim.compiled import CompiledCircuit
    from repro.stg.replaceability import SearchBudgetExceeded

    original = load("s208")
    lag = min_period_retiming(build_retiming_graph(original)).lag
    retimed = lag_to_moves(original, lag).current
    steps = []
    step_ternary = CompiledCircuit.step_ternary
    monkeypatch.setattr(
        CompiledCircuit,
        "step_ternary",
        lambda self, *args: steps.append(1) or step_ternary(self, *args),
    )
    for search in (decide_cls_equivalence, cls_reachable_pairs):
        steps.clear()
        with pytest.raises(SearchBudgetExceeded, match="exceeded 500 state pairs"):
            search(original, retimed, max_pairs=500)
        assert len(steps) == 2 * 500


def test_reachable_pairs_diagnostic():
    count = cls_reachable_pairs(figure1_design_d(), figure1_design_c())
    # The all-X pair is absorbing for this input alphabet: X's never
    # resolve in either design, so the product has a single state.
    assert count == 1


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 5000), steps=st.integers(1, 6))
def test_retimings_always_pass_the_complete_verifier(seed, steps):
    """Corollary 5.3, verified COMPLETELY (not sampled) on random
    circuits and random hazardous retimings."""
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed % 61, num_inputs=1, num_gates=6, num_latches=2
    )
    session = RetimingSession(circuit)
    for _ in range(steps):
        moves = enabled_moves(session.current)
        if not moves:
            break
        session.apply(rng.choice(moves))
    assert cls_equivalent_exhaustive(circuit, session.current), session.summary()


def test_non_retiming_optimisation_caught():
    """The verifier is not a rubber stamp: an 'optimisation' that
    changes CLS behaviour (replacing AND(q, NOT q) by constant 0 --
    sound for binary logic, unsound for the CLS!) is rejected with a
    witness.  This is exactly the Section 5 observation that the CLS
    loses complement information, turned into a regression check."""
    def original():
        b = CircuitBuilder("orig")
        i = b.input("i")
        q = b.net("q")
        q1, q2, q3 = b.fanout(q, 3, name="fq")
        n = b.gate("NOT", q2, name="inv")
        glitch = b.gate("AND", q1, n, name="gl")  # always 0 in reality
        b.latch(b.gate("AND", i, q3, name="gate"), q, name="ff")
        b.output(b.gate("OR", glitch, b.gate("BUF", i, name="bi"), name="o"))
        return b.build()

    def optimised():
        b = CircuitBuilder("opt")
        i = b.input("i")
        q = b.net("q")
        zero = b.const(0, name="k0")
        b.latch(b.gate("AND", i, q, name="gate"), q, name="ff")
        b.output(b.gate("OR", zero, b.gate("BUF", i, name="bi"), name="o"))
        return b.build()

    witness = decide_cls_equivalence(original(), optimised())
    assert witness is not None
    # The binary behaviours ARE equivalent -- only the CLS differs.
    from repro.stg.equivalence import machines_equivalent
    from repro.stg.explicit import extract_stg

    assert machines_equivalent(extract_stg(original()), extract_stg(optimised()))
