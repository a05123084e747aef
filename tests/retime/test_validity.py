"""The paper's theorems, executed: Section 4 + Section 5 on real moves.

These are the library's central integration tests: random circuits,
random move sequences, and the full validity battery of
:mod:`repro.retime.validity`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.bench.paper_circuits import figure1_design_d
from repro.logic.ternary import ONE, X, ZERO
from repro.retime.engine import RetimingSession
from repro.retime.moves import enabled_moves
from repro.retime.validity import (
    ValidityReport,
    check_retiming_validity,
    cls_equivalent,
    first_cls_difference,
    random_ternary_sequences,
)
from repro.stg.delayed import delayed_implies
from repro.stg.equivalence import implies
from repro.stg.explicit import extract_stg


def random_retiming(circuit, rng, steps, *, include_hazardous=True):
    """Apply up to *steps* random enabled moves; returns the session."""
    session = RetimingSession(circuit)
    for _ in range(steps):
        moves = enabled_moves(session.current, include_hazardous=include_hazardous)
        if not moves:
            break
        session.apply(rng.choice(moves))
    return session


# ---------------------------------------------------------------------------
# Corollary 5.3 -- the paper's headline, as a property.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=12)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 8))
def test_corollary_53_cls_invariance_under_any_retiming(seed, steps):
    """ANY sequence of atomic moves (hazardous ones included) leaves the
    all-X CLS output sequences unchanged."""
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed % 97, num_inputs=2, num_gates=8, num_latches=3
    )
    session = random_retiming(circuit, rng, steps)
    diff = first_cls_difference(
        circuit, session.current, count=6, length=10, seed=seed
    )
    assert diff is None, "CLS distinguished a retiming: %s\n%s" % (
        diff,
        session.summary(),
    )


def test_corollary_53_on_benchmarks(iscas_circuit):
    rng = random.Random(7)
    session = random_retiming(iscas_circuit, rng, 6)
    assert cls_equivalent(iscas_circuit, session.current, count=5, length=8, seed=7)


# ---------------------------------------------------------------------------
# Corollary 4.4 -- hazard-free retiming preserves implication.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 8))
def test_corollary_44_safe_moves_preserve_implication(seed, steps):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed % 89, num_inputs=1, num_gates=7, num_latches=3
    )
    session = random_retiming(circuit, rng, steps, include_hazardous=False)
    assert session.is_safe_per_corollary44
    c = extract_stg(session.current)
    d = extract_stg(circuit)
    assert implies(c, d), session.summary()


# ---------------------------------------------------------------------------
# Theorem 4.5 -- k hazardous crossings need at most k delay cycles.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 10))
def test_theorem_45_delayed_implication(seed, steps):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed % 83, num_inputs=1, num_gates=7, num_latches=3
    )
    session = random_retiming(circuit, rng, steps)
    c = extract_stg(session.current)
    d = extract_stg(circuit)
    k = session.theorem45_k
    assert delayed_implies(c, d, k), (
        "C^%d does not imply D after:\n%s" % (k, session.summary())
    )


# ---------------------------------------------------------------------------
# The full battery.
# ---------------------------------------------------------------------------


def test_check_retiming_validity_on_figure1():
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    report = check_retiming_validity(session)
    assert isinstance(report, ValidityReport)
    assert report.hazardous_moves == 1
    assert report.theorem45_k == 1
    assert report.implication_holds is False
    assert report.safe_replacement_holds is False
    assert report.delayed_implication_holds is True
    assert report.min_delay == 1
    assert report.cls_invariant
    assert report.cls_premise
    assert report.consistent_with_paper()


def test_check_retiming_validity_skips_large_stgs():
    session = RetimingSession(load("s27"))
    report = check_retiming_validity(session, max_stg_bits=3, engine="explicit")
    assert report.implication_holds is None
    assert report.cls_invariant


def test_check_retiming_validity_certifies_past_the_stg_gate():
    """The default path proves C ⊑ D from the (empty) move history
    where the explicit engine's gate would leave it undecided."""
    session = RetimingSession(load("s27"))
    report = check_retiming_validity(session, max_stg_bits=3)
    assert report.decided_by == "certificate"
    assert report.implication_holds is True
    assert report.safe_replacement_holds is True
    assert report.min_delay == 0
    assert report.consistent_with_paper()


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(0, 10_000), steps=st.integers(0, 8))
def test_full_battery_always_consistent_with_paper(seed, steps):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed % 79, num_inputs=1, num_gates=7, num_latches=3
    )
    session = random_retiming(circuit, rng, steps)
    report = check_retiming_validity(session, seed=seed)
    assert report.cls_premise  # so Cor 5.3 is among what is checked
    assert report.consistent_with_paper(), session.summary()


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------


def test_random_ternary_sequences_shape_and_determinism():
    seqs = random_ternary_sequences(2, count=4, length=5, seed=3)
    assert len(seqs) == 4
    assert all(len(s) == 5 for s in seqs)
    assert all(len(vec) == 2 for s in seqs for vec in s)
    assert seqs == random_ternary_sequences(2, count=4, length=5, seed=3)
    assert seqs != random_ternary_sequences(2, count=4, length=5, seed=4)


def test_random_ternary_sequences_x_bias():
    none = random_ternary_sequences(1, count=3, length=20, seed=0, x_bias=0.0)
    assert all(v[0] is not X for s in none for v in s)
    all_x = random_ternary_sequences(1, count=3, length=20, seed=0, x_bias=1.0)
    assert all(v[0] is X for s in all_x for v in s)


def test_first_cls_difference_locates_divergence():
    """Sanity: two genuinely different circuits are told apart."""
    from repro.netlist.builder import CircuitBuilder

    def make(invert):
        b = CircuitBuilder()
        i = b.input("i")
        out = b.gate("NOT", i) if invert else b.gate("BUF", i)
        b.output(out)
        return b.build()

    diff = first_cls_difference(make(False), make(True), count=3, length=4, seed=0)
    assert diff is not None
    seq_index, cycle = diff
    assert cycle >= 0


def test_first_cls_difference_on_a_ragged_batch():
    """Sequences of several lengths share batched passes per length; the
    reported difference is still the first in input order -- here in a
    short sequence listed after a longer one that agrees throughout."""
    from repro.netlist.builder import CircuitBuilder
    from repro.sim.ternary_sim import cls_outputs

    def make(kind):
        b = CircuitBuilder()
        q = b.latch(b.gate(kind, b.input("i")), name="l")
        b.output(b.gate("BUF", q))
        return b.build()

    buf, inv = make("BUF"), make("NOT")
    sequences = [
        [(X,)] * 5,
        [(X,), (ONE,), (X,)],
        [(X,), (X,), (ZERO,), (X,), (X,)],
        [(ZERO,), (X,), (X,)],
    ]
    expected = next(
        (index, cycle)
        for index, seq in enumerate(sequences)
        for cycle, (a, b) in enumerate(zip(cls_outputs(buf, seq), cls_outputs(inv, seq)))
        if a != b
    )
    assert expected == (1, 2)
    assert first_cls_difference(buf, inv, sequences) == expected


def test_first_cls_difference_rejects_mismatched_interfaces():
    """Outputs of circuits with different interfaces are not comparable:
    no ``(0, 0)`` difference and no agreement, but a ``ValueError``."""
    from repro.netlist.io_bench import parse_bench

    s27 = load("s27")
    comb = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    for original, retimed in ((s27, comb), (comb, s27)):
        with pytest.raises(ValueError, match="mismatched interfaces"):
            first_cls_difference(original, retimed)
        with pytest.raises(ValueError, match="mismatched interfaces"):
            cls_equivalent(original, retimed)


def test_first_cls_difference_reads_values_as_cls_outputs_does():
    """Input values go through ``to_ternary``, as in ``cls_outputs``:
    ``True``, ``1`` and ``'1'`` are ONE, not X.  s27's output is definite
    at cycle 0 on all-ones inputs, so its output-inverted copy differs
    there."""
    from reference import with_output_inverted
    from repro.sim.ternary_sim import cls_outputs

    s27 = load("s27")
    mutant = with_output_inverted(s27)
    ones = [(ONE,) * 4] * 3
    assert cls_outputs(s27, ones)[0] != (X,)
    for one in (ONE, True, 1, "1"):
        sequence = [(one,) * 4] * 3
        assert cls_outputs(s27, sequence) == cls_outputs(s27, ones)
        assert first_cls_difference(s27, mutant, [sequence]) == (0, 0)
        assert not cls_equivalent(s27, mutant, [sequence])


def test_first_cls_difference_rejects_vectors_of_the_wrong_width():
    """A vector narrower or wider than the input count is the
    ``ValueError`` ``cls_outputs`` raises, not an ``IndexError`` or a
    silently truncated vector."""
    from repro.sim.ternary_sim import cls_outputs

    s27, d = load("s27"), figure1_design_d()
    for circuit, vector in ((s27, (X,)), (d, (X, X, X))):
        with pytest.raises(ValueError, match="inputs, got %d values" % len(vector)):
            cls_outputs(circuit, [vector])
        with pytest.raises(ValueError, match="inputs, got %d values" % len(vector)):
            first_cls_difference(circuit, circuit, [[vector]])


def test_a_constant_cell_breaks_theorem_51s_premise():
    """Theorem 5.1 assumes every cell maps all-X inputs to all-X
    outputs.  A forward move across a CONST1 cell parks an X in a latch
    where D had the constant, so the CLS outputs differ; the report
    records the broken premise and does not require Cor 5.3."""
    from repro.netlist.builder import CircuitBuilder
    from repro.sim.ternary_sim import TernarySimulator

    b = CircuitBuilder("const")
    k1 = b.gate("CONST1", name="k1")
    q = b.latch(b.gate("AND", b.input("i"), k1, name="g"), name="l")
    b.output(b.gate("BUF", q, name="buf"))
    original = b.build()
    session = RetimingSession(original)
    session.forward("k1")

    ones = [(ONE,)] * 3
    assert TernarySimulator(original).run_from_unknown(ones).outputs == [
        (X,), (ONE,), (ONE,)
    ]
    assert TernarySimulator(session.current).run_from_unknown(ones).outputs == [
        (X,), (X,), (ONE,)
    ]
    report = check_retiming_validity(session, sequences=[ones])
    assert not report.cls_invariant
    assert not report.cls_premise
    assert report.consistent_with_paper()


def test_strict_latch_reset_transfer_fails_but_outputs_agree():
    """The strict all-latches-definite reading of Cor 5.3's reset
    sentence is NOT invariant: a backward move can leave an X parked in
    a latch whose downstream effect the logic masks (AND(X, 0) = 0).
    The observable outputs -- what Theorem 5.1 actually governs -- stay
    identical.  This test pins the counterexample."""
    from repro.netlist.builder import CircuitBuilder
    from repro.sim.ternary_sim import TernarySimulator

    b = CircuitBuilder("mask")
    a_in, b_in = b.input("a"), b.input("b")
    g = b.gate("AND", a_in, b_in, name="g")
    q = b.latch(g, name="l")
    b.output(b.gate("BUF", q, name="buf"))
    original = b.build()

    session = RetimingSession(original)
    session.backward("g")
    retimed = session.current
    assert retimed.num_latches == 2

    seq = [(ZERO, X), (ONE, ONE)]
    orig_trace = TernarySimulator(original).run_from_unknown(seq)
    ret_trace = TernarySimulator(retimed).run_from_unknown(seq)

    # Outputs identical (Cor 5.3)...
    assert orig_trace.outputs == ret_trace.outputs
    # ...but after the first vector the original is fully definite while
    # the retimed design still holds an X in the b-side latch.
    assert all(v is not X for v in orig_trace.states[1])
    assert any(v is X for v in ret_trace.states[1])
