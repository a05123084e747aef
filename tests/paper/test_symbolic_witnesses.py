"""The paper's golden containment facts, re-proved by the symbolic engine.

Mirror of the containment claims in ``test_paper_witnesses.py`` /
``tests/stg/test_replaceability.py``, decided by BDD fixpoints instead
of enumerated STGs, so both engines pin Table 1 and the Section 3/4
propositions independently.  If a BDD-manager change (cache eviction,
GC, relprod rewrites) ever perturbs a verdict or a witness, these tests
catch it against the paper's published numbers, not against the other
engine.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import (
    TABLE1_INPUT_SEQUENCE,
    figure1_design_c,
    figure1_design_d,
)
from repro.retime.engine import RetimingSession
from repro.retime.moves import enabled_moves
from repro.retime.validity import ValidityReport, check_retiming_validity
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import SafeReplacementViolation
from repro.stg.symbolic_replaceability import (
    SymbolicContainmentChecker,
    symbolic_delay_needed_for_implication,
)


@pytest.fixture
def figure1():
    return figure1_design_c(), figure1_design_d()


class TestFigure1SafeReplacement:
    """Figure 1: ``C ⋠ D``, with the paper's own counterexample."""

    def test_c_is_not_a_safe_replacement_for_d(self, figure1):
        c, d = figure1
        assert not SymbolicContainmentChecker(c, d).is_safe_replacement()

    def test_d_is_a_safe_replacement_for_c(self, figure1):
        c, d = figure1
        assert SymbolicContainmentChecker(d, c).is_safe_replacement()

    def test_witness_matches_the_paper(self, figure1):
        """The minimal counterexample is exactly the explicit engine's
        (and the paper's): power-up state 10 of C, inputs 0·1, outputs
        0·1 -- an output string no state of D can produce."""
        c, d = figure1
        violation = SymbolicContainmentChecker(c, d).find_violation()
        assert isinstance(violation, SafeReplacementViolation)
        assert violation.c_state == 2  # binary "10" -- Table 1's row
        assert violation.input_symbols == (0, 1)
        assert violation.c_outputs == (0, 1)

    def test_witness_is_a_prefix_of_table1(self, figure1):
        """Table 1 distinguishes the pair on ``0·1·1·1``; the minimal
        witness is its two-cycle prefix, and replaying the full Table 1
        sequence from the witness state shows the paper's 0·1·0·1 row."""
        c, d = figure1
        violation = SymbolicContainmentChecker(c, d).find_violation()
        table1 = tuple(int(v[0]) for v in TABLE1_INPUT_SEQUENCE)
        assert violation.input_symbols == table1[: len(violation.input_symbols)]
        c_stg = extract_stg(c)
        outputs, _ = c_stg.run(violation.c_state, table1)
        assert tuple(outputs) == (0, 1, 0, 1)  # Table 1's (Q1,Q2)=(1,0) row

    def test_subset_fixpoint_agrees_without_the_shortcut(self, figure1):
        c, d = figure1
        checker = SymbolicContainmentChecker(d, c)
        assert checker.find_violation(use_implication_shortcut=False) is None


class TestProposition42Symbolic:
    """Prop. 4.2 / Cor. 4.3: ``C¹ ⊑ D`` but not ``C ⊑ D``."""

    def test_implication_fails_undelayed(self, figure1):
        c, d = figure1
        assert not SymbolicContainmentChecker(c, d).implies()

    def test_one_cycle_delay_restores_implication(self, figure1):
        c, d = figure1
        assert not SymbolicContainmentChecker(c, d).delayed_implies(0)
        assert SymbolicContainmentChecker(c, d).delayed_implies(1)
        assert symbolic_delay_needed_for_implication(c, d) == 1

    def test_d_trivially_contains_itself(self, figure1):
        _, d = figure1
        assert SymbolicContainmentChecker(d, d).implies()
        assert SymbolicContainmentChecker(d, d).delayed_implies(0)


class TestCorollary44Symbolic:
    """Cor. 4.4: hazard-free retimings are safe -- symbolically."""

    def test_hazard_free_retiming_implies_and_is_safe(self):
        rng = random.Random(44)
        circuit = random_sequential_circuit(
            44, num_inputs=1, num_gates=7, num_latches=3
        )
        session = RetimingSession(circuit)
        for _ in range(6):
            moves = enabled_moves(session.current, include_hazardous=False)
            if not moves:
                break
            session.apply(rng.choice(moves))
        assert session.is_safe_per_corollary44
        checker = SymbolicContainmentChecker(session.current, circuit)
        assert checker.implies()
        assert checker.is_safe_replacement()

    def test_full_validity_battery_symbolic_matches_figure1(self):
        """The hazardous Figure 1 move, checked end to end with
        ``engine="symbolic"``: same report the explicit engine gives."""
        session = RetimingSession(figure1_design_d())
        session.forward("fanQ")
        report = check_retiming_validity(session, engine="symbolic")
        assert isinstance(report, ValidityReport)
        assert report.hazardous_moves == 1
        assert report.theorem45_k == 1
        assert report.implication_holds is False
        assert report.safe_replacement_holds is False
        assert report.delayed_implication_holds is True
        assert report.min_delay == 1
        assert report.consistent_with_paper()
