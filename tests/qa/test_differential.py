"""The differential itself: agreement on honest engines, splits on
injected faults, paper-theorem ballots."""

from __future__ import annotations

import pytest

from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.qa.differential import (
    FAULT_NAMES,
    MATRICES,
    active_faults,
    injected_fault,
    run_differential,
)
from repro.qa.generate import Case, Recipe, build_case, random_recipe


def _case(master, index):
    return build_case(random_recipe(master, index))


def test_matrices_are_well_formed():
    assert set(MATRICES) == {"quick", "std", "full"}
    for spec in MATRICES.values():
        assert "explicit" in spec["arms"]
        assert "compiled" in spec["cls"]


@pytest.mark.parametrize("index", range(8))
def test_quick_matrix_agrees_on_random_cases(index):
    result = run_differential(_case(0, index), matrix="quick")
    assert result.agreed, result.disagreements


@pytest.mark.parametrize("index", range(3))
def test_std_matrix_agrees_on_random_cases(index):
    result = run_differential(_case(0, index), matrix="std")
    assert result.agreed, result.disagreements


def test_paper_figure1_pair_agrees_and_is_unsafe():
    """The paper's own C/D pair: every arm must report the Figure 1
    story -- not safe, implication fails, delay 1 repairs it."""
    recipe = Recipe(kind="pair", seed=0, num_inputs=2, num_outputs=1,
                    num_gates=3, num_latches=2)
    case = Case(recipe=recipe, original=figure1_design_d(),
                candidate=figure1_design_c())
    result = run_differential(case, matrix="std")
    assert result.agreed, result.disagreements
    consensus = result.consensus()
    assert consensus["implies"] is False
    assert consensus["safe"] is False
    assert consensus["delay"] == 1
    assert consensus["witness_length"] >= 1


def test_consensus_on_identity():
    d = figure1_design_d()
    recipe = Recipe(kind="pair", seed=0, num_inputs=2, num_outputs=1,
                    num_gates=3, num_latches=2)
    case = Case(recipe=recipe, original=d, candidate=d)
    result = run_differential(case, matrix="quick")
    assert result.agreed
    consensus = result.consensus()
    assert consensus["implies"] is True
    assert consensus["safe"] is True
    assert consensus["delay"] == 0
    assert consensus["cls_equivalent"] is True


def test_injected_fault_is_scoped():
    assert active_faults() == ()
    with injected_fault(FAULT_NAMES[0]):
        assert active_faults() == (FAULT_NAMES[0],)
    assert active_faults() == ()
    with pytest.raises(ValueError, match="unknown fault"):
        with injected_fault("no-such-fault"):
            pass


def _first_disagreement(fault, master, matrix="quick", budget=120):
    with injected_fault(fault):
        for i in range(budget):
            result = run_differential(_case(master, i), matrix=matrix)
            if not result.agreed:
                return result
    return None


def test_explicit_witness_fault_is_caught():
    result = _first_disagreement("explicit-misses-deep-witnesses", 42)
    assert result is not None
    assert any("safe ballot split" in p for p in result.disagreements)


def test_symbolic_delay_fault_is_caught():
    result = _first_disagreement("symbolic-underreports-delay", 1234)
    assert result is not None
    assert any(
        "delay ballot split" in p or "Thm 4.5" in p or "Cor 4.3" in p
        for p in result.disagreements
    )


def _figure1_forward_case():
    from repro.retime.engine import RetimingSession

    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    recipe = Recipe(kind="retiming", seed=0, num_inputs=1, num_outputs=1,
                    num_gates=3, num_latches=1, num_moves=1)
    return Case(recipe=recipe, original=session.original,
                candidate=session.current, moves=session.moves, session=session)


def test_certificate_votes_on_retiming_cases_and_abstains_elsewhere():
    assert "certificate" in MATRICES["std"]["arms"]
    assert "certificate" in MATRICES["full"]["arms"]
    case = next(
        c
        for c in (_case(0, i) for i in range(50))
        if c.session is not None and c.session.hazardous_move_count == 0
    )
    ballot = run_differential(case, matrix="std").verdicts["certificate"]
    assert (ballot.implies, ballot.safe, ballot.delay, ballot.delay_decided) == (
        True, True, 0, True
    )
    # The paper's hazard fails the certificate: it abstains.
    result = run_differential(_figure1_forward_case(), matrix="std")
    assert result.agreed, result.disagreements
    ballot = result.verdicts["certificate"]
    assert (ballot.implies, ballot.safe, ballot.delay_decided) == (None, None, False)
    pair = Case(recipe=Recipe(kind="pair", seed=0, num_inputs=1, num_outputs=1,
                              num_gates=3, num_latches=2),
                original=figure1_design_d(), candidate=figure1_design_c())
    assert run_differential(pair, matrix="std").verdicts["certificate"].implies is None


def test_certificate_hazard_fault_is_caught():
    """Without its totality check the certificate "proves" Figure 1's
    forward(fanQ); the explicit engine's ``C ⋢ D`` splits the ballot."""
    with injected_fault("certificate-ignores-hazard"):
        result = run_differential(_figure1_forward_case(), matrix="std")
    assert result.verdicts["certificate"].implies is True
    assert any("implies ballot split" in p for p in result.disagreements)


def test_retiming_cases_check_the_paper_theorems():
    """On a hazard-free retiming the theorem ballots are armed: break
    the implication verdict by hand and Cor 4.4 must fire."""
    case = next(
        c
        for c in (_case(0, i) for i in range(50))
        if c.session is not None and c.session.hazardous_move_count == 0
    )
    result = run_differential(case, matrix="quick")
    assert result.agreed
    # Forge a verdict to prove the ballot is actually wired.
    from repro.qa.differential import _diff

    forged = dict(result.verdicts)
    forged["explicit"].implies = False
    problems = _diff(case, forged, result.cls_votes)
    assert any("Cor 4.4" in p for p in problems)
