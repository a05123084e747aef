"""Golden tests pinning the paper's central artefacts.

Every claim here is a number printed in the paper (Table 1, the
Section 2.1 simulation results, the Section 2.2 testing example, and
Proposition 4.2's delayed containment).  They are asserted through two
independent evaluators -- the product's compiled simulators and the
test-side reference interpreter (``tests/reference.py``, parameter id
``interpreted``) -- so no future performance work can silently change
what the reproduction reproduces.
"""

from __future__ import annotations

import pytest

import reference
from repro.bench.paper_circuits import (
    FIGURE3_TEST_SEQUENCE,
    TABLE1_INPUT_SEQUENCE,
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
    figure3_fault,
)
from repro.logic.ternary import (
    ONE,
    X,
    ZERO,
    format_ternary_sequence,
    is_definite,
    to_ternary,
)
from repro.sim.binary import BinarySimulator, all_power_up_states
from repro.sim.exact import exact_outputs
from repro.sim.fault import TestEvaluation as Evaluation
from repro.sim.fault import detects_cls, detects_exact, faulty_overrides
from repro.sim.ternary_sim import TernarySimulator, all_x_state
from repro.stg.delayed import delay_needed_for_implication, delayed_implies
from repro.stg.equivalence import implies
from repro.stg.explicit import extract_stg


def _exact_outputs(evaluator, circuit, sequence, overrides=None):
    """Exact unknown-power-up outputs via an explicit per-state sweep.

    Re-derives the Section 2.1 "sufficiently powerful simulator" verdict
    from first principles: per cycle and output, the value every
    power-up state agrees on, else X.
    """
    runs = [
        evaluator.binary_outputs(circuit, state, sequence, overrides)
        for state in all_power_up_states(circuit)
    ]
    verdicts = []
    for cycle in range(len(sequence)):
        vector = []
        for pin in range(len(circuit.outputs)):
            seen = {run[cycle][pin] for run in runs}
            vector.append((ONE if True in seen else ZERO) if len(seen) == 1 else X)
        verdicts.append(tuple(vector))
    return tuple(verdicts)


def _first_distinguishing(good, bad):
    """The first definite good/faulty output mismatch, as a verdict."""
    for t, (good_vec, bad_vec) in enumerate(zip(good, bad)):
        for o, (g, b) in enumerate(zip(good_vec, bad_vec)):
            if is_definite(g) and is_definite(b) and g is not b:
                return Evaluation(True, t, o, g is ONE)
    return Evaluation(False)


class _Compiled:
    """The product's simulators, all on the compiled core."""

    @staticmethod
    def binary_outputs(circuit, state, sequence, overrides=None):
        return BinarySimulator(circuit, overrides).run(state, sequence).outputs

    @staticmethod
    def cls_outputs(circuit, sequence, overrides=None):
        return TernarySimulator(circuit, overrides).run_from_unknown(sequence).outputs

    detects_exact = staticmethod(detects_exact)
    detects_cls = staticmethod(detects_cls)


class _Oracle:
    """The same questions answered by the reference interpreter alone."""

    @staticmethod
    def _run(circuit, state, sequence, ternary, overrides):
        outputs = []
        for vector in sequence:
            outs, state = reference.step(
                circuit, state, vector, ternary=ternary, overrides=overrides
            )
            outputs.append(outs)
        return outputs

    @classmethod
    def binary_outputs(cls, circuit, state, sequence, overrides=None):
        return cls._run(circuit, state, sequence, False, overrides)

    @classmethod
    def cls_outputs(cls, circuit, sequence, overrides=None):
        ternary_seq = [tuple(to_ternary(v) for v in vec) for vec in sequence]
        return cls._run(circuit, all_x_state(circuit), ternary_seq, True, overrides)

    @classmethod
    def detects_exact(cls, circuit, fault, sequence):
        return _first_distinguishing(
            _exact_outputs(cls, circuit, sequence),
            _exact_outputs(cls, circuit, sequence, faulty_overrides(fault)),
        )

    @classmethod
    def detects_cls(cls, circuit, fault, sequence):
        stuck = {fault.net: ONE if fault.value else ZERO}
        return _first_distinguishing(
            cls.cls_outputs(circuit, sequence), cls.cls_outputs(circuit, sequence, stuck)
        )


@pytest.fixture(params=[_Compiled, _Oracle], ids=["compiled", "interpreted"])
def backend(request):
    """The evaluator a test checks its golden values through."""
    return request.param


def _exact_output_column(circuit, sequence, evaluator, overrides=None):
    """Output 0 of :func:`_exact_outputs`."""
    return tuple(
        vec[0] for vec in _exact_outputs(evaluator, circuit, sequence, overrides)
    )


class TestTable1Witness:
    """Figure 1's D/C pair diverges on Table 1's input ``0·1·1·1``."""

    def test_design_d_outputs_0010_from_every_power_up(self, backend):
        column = _exact_output_column(figure1_design_d(), TABLE1_INPUT_SEQUENCE, backend)
        assert format_ternary_sequence(column) == "0·0·1·0"

    def test_design_c_outputs_0xxx(self, backend):
        column = _exact_output_column(figure1_design_c(), TABLE1_INPUT_SEQUENCE, backend)
        assert format_ternary_sequence(column) == "0·X·X·X"

    def test_table1_row_for_state_10(self, backend):
        # Table 1 singles out C's power-up state (Q1, Q2) = (1, 0): it
        # outputs 0·1·0·1 while every other state outputs 0·0·1·0.
        c = figure1_design_c()
        rows = {}
        for state in all_power_up_states(c):
            outputs = backend.binary_outputs(c, state, TABLE1_INPUT_SEQUENCE)
            rows[state] = "".join("1" if vec[0] else "0" for vec in outputs)
        assert rows[(True, False)] == "0101"
        for state, row in rows.items():
            if state != (True, False):
                assert row == "0010"

    def test_production_exact_simulator_agrees(self):
        d_out = exact_outputs(figure1_design_d(), TABLE1_INPUT_SEQUENCE)
        c_out = exact_outputs(figure1_design_c(), TABLE1_INPUT_SEQUENCE)
        assert format_ternary_sequence(v[0] for v in d_out) == "0·0·1·0"
        assert format_ternary_sequence(v[0] for v in c_out) == "0·X·X·X"

    def test_cls_cannot_distinguish_the_pair(self, backend):
        # Corollary 5.3 on the same witness input: the conservative
        # simulator reports identical (all-X-diluted) outputs for both.
        sequence = [(ZERO,), (ONE,), (ONE,), (ONE,)]
        assert backend.cls_outputs(figure1_design_d(), sequence) == backend.cls_outputs(
            figure1_design_c(), sequence
        )


class TestFigure3Witness:
    """Section 2.2: retiming loses the stuck-at test ``0·1``."""

    def test_d_detects_the_marked_fault(self, backend):
        verdict = backend.detects_exact(
            figure3_design_d(), figure3_fault(), FIGURE3_TEST_SEQUENCE
        )
        assert verdict.detected
        assert verdict.time_step == 1
        assert verdict.good_value is False  # fault-free 0, faulty 1

    def test_retimed_c_misses_the_same_fault(self, backend):
        verdict = backend.detects_exact(
            figure3_design_c(), figure3_fault(), FIGURE3_TEST_SEQUENCE
        )
        assert not verdict.detected

    def test_detection_from_first_principles(self, backend):
        # The paper's exact words: fault-free D produces 0·0 from all
        # power-up states, faulty D produces 0·1; fault-free C is 0·X.
        fault = figure3_fault()
        d = figure3_design_d()
        good_d = _exact_output_column(d, FIGURE3_TEST_SEQUENCE, backend)
        bad_d = _exact_output_column(
            d, FIGURE3_TEST_SEQUENCE, backend, overrides=faulty_overrides(fault)
        )
        assert format_ternary_sequence(good_d) == "0·0"
        assert format_ternary_sequence(bad_d) == "0·1"
        good_c = _exact_output_column(figure3_design_c(), FIGURE3_TEST_SEQUENCE, backend)
        assert format_ternary_sequence(good_c) == "0·X"

    def test_theorem46_prefixed_sequences_restore_the_test(self, backend):
        # One arbitrary prefix cycle re-arms the test on C (Thm 4.6).
        c = figure3_design_c()
        fault = figure3_fault()
        for prefix in (False, True):
            sequence = ((prefix,),) + FIGURE3_TEST_SEQUENCE
            assert backend.detects_exact(c, fault, sequence).detected

    def test_cls_semantics_is_strictly_weaker(self, backend):
        # The conservative methodology pays a price (Section 2.2's
        # closing remark): from all-X the fault-free D already shows X
        # at the second cycle, so the CLS cannot certify the ``0·1``
        # test on either design -- exact detection on D has no CLS
        # counterpart here.
        fault = figure3_fault()
        for design in (figure3_design_d(), figure3_design_c()):
            assert not backend.detects_cls(design, fault, FIGURE3_TEST_SEQUENCE).detected
        # Even prefixing the (exactly-initialising) input 0 does not
        # help: the CLS sees AND(X, X) = X at AND gate-1 (Section 5),
        # so the latch never leaves X and no definite fault-free 0 ever
        # appears at the output AND.
        prefixed = ((False,),) + FIGURE3_TEST_SEQUENCE
        assert not backend.detects_cls(figure3_design_d(), fault, prefixed).detected


class TestProposition42:
    """Prop. 4.2 / Cor. 4.3 on the Figure 1 pair: ``C¹ ⊑ D`` but not ``C ⊑ D``."""

    def test_one_cycle_delayed_containment(self):
        d_stg = extract_stg(figure1_design_d())
        c_stg = extract_stg(figure1_design_c())
        assert not implies(c_stg, d_stg)
        assert delayed_implies(c_stg, d_stg, 1)
        assert delay_needed_for_implication(c_stg, d_stg) == 1

    def test_d_trivially_contains_itself(self):
        d_stg = extract_stg(figure1_design_d())
        assert implies(d_stg, d_stg)
        assert delayed_implies(d_stg, d_stg, 0)
