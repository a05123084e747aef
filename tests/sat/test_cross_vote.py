"""Slow tier: four engines, one ballot per pair, unanimity required.

The repo now carries four decision procedures for the paper's orders --
explicit subset construction over enumerated STGs, symbolic BDD
fixpoints under a fixed variable order, the same fixpoints under
dynamic reordering (auto sifting) with a partitioned transition
relation, and bounded CNF unrolling under CDCL.  This suite has each of
them vote on the same containment questions over a few hundred random
pairs plus the structured circuit families, and fails on any split
ballot.  SAT violations additionally have their witnesses replayed
through the stock simulators, so a unanimous wrong answer would still
need several independent bugs *and* a broken simulator to slip
through.
"""

from __future__ import annotations

import pytest

from repro.bench.generators import (
    counter_circuit,
    pipeline_circuit,
    shift_register,
)
from repro.bench.paper_circuits import (
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
)
from repro.logic.bdd import BDDManager
from repro.sat import check_implication, check_safe_replacement
from repro.sat.replay import replay_witness
from repro.stg.equivalence import implies
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import SearchBudgetExceeded, find_violation
from repro.stg.symbolic_replaceability import SymbolicContainmentChecker

def _random_pair(seed, *, max_latches=3):
    import random

    from repro.bench.generators import random_sequential_circuit

    rng = random.Random(seed)
    num_inputs = rng.randint(1, 2)
    num_outputs = rng.randint(1, 2)
    c = random_sequential_circuit(
        seed,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, max_latches),
    )
    d = random_sequential_circuit(
        seed + 59999,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, max_latches),
    )
    return c, d


def _reordering_checker(c, d):
    """The fourth voter: auto sifting at a deliberately low threshold
    (so it really fires) over the partitioned transition relation."""
    manager = BDDManager(reorder="auto", reorder_threshold=256)
    return SymbolicContainmentChecker(c, d, manager=manager, partitioned=True)


def _cross_vote(c, d, seed=None):
    """All four engines vote on ⊑ and ≼; any split fails the test."""
    tag = "" if seed is None else " (seed %s)" % seed
    c_stg, d_stg = extract_stg(c), extract_stg(d)
    checker = SymbolicContainmentChecker(c, d, reorder="off")
    reordering = _reordering_checker(c, d)

    votes = {
        "explicit": implies(c_stg, d_stg),
        "symbolic": checker.implies(),
        "symbolic+reorder": reordering.implies(),
        "sat": check_implication(c, d).holds,
    }
    assert len(set(votes.values())) == 1, "implication ballot split%s: %r" % (
        tag,
        votes,
    )

    explicit_v = find_violation(c_stg, d_stg)
    symbolic_v = SymbolicContainmentChecker(c, d).find_violation()
    reorder_v = reordering.find_violation()
    assert (explicit_v is None) == (symbolic_v is None), (
        "safe-replacement ballot split (explicit vs symbolic)%s" % tag
    )
    assert (explicit_v is None) == (reorder_v is None), (
        "safe-replacement ballot split (explicit vs symbolic+reorder)%s" % tag
    )
    if symbolic_v is not None:
        # The reordering engine is the same algorithm under a different
        # variable order, so its witness must be bit-identical.
        assert (
            reorder_v.c_state,
            reorder_v.input_symbols,
            reorder_v.c_outputs,
        ) == (
            symbolic_v.c_state,
            symbolic_v.input_symbols,
            symbolic_v.c_outputs,
        ), "reordering engine reconstructed a different witness%s" % tag
    try:
        sat_result = check_safe_replacement(c, d)
    except SearchBudgetExceeded:
        # The SAT engine may abstain (raise) only on pairs that really
        # are safe: a violation would surface well inside the frame cap.
        assert explicit_v is None, (
            "SAT abstained on a pair with a violation%s" % tag
        )
        return
    assert sat_result.holds == (explicit_v is None), (
        "safe-replacement ballot split (sat vs explicit)%s" % tag
    )
    if explicit_v is not None:
        assert len(sat_result.violation.input_symbols) == len(
            explicit_v.input_symbols
        ), "minimal violation lengths differ%s" % tag
        replay = replay_witness(c, d, sat_result.witness)
        assert replay.ok, replay.errors


@pytest.mark.slow
class TestThreeEngineCrossVote:
    @pytest.mark.parametrize("block", range(10))
    def test_random_pairs(self, block):
        for offset in range(15):
            seed = 30_000 + block * 15 + offset
            c, d = _random_pair(seed, max_latches=3)
            _cross_vote(c, d, seed=seed)

    def test_paper_pairs_all_directions(self):
        fig1_c, fig1_d = figure1_design_c(), figure1_design_d()
        fig3_c, fig3_d = figure3_design_c(), figure3_design_d()
        for c, d in [
            (fig1_c, fig1_d),
            (fig1_d, fig1_c),
            (fig3_c, fig3_d),
            (fig3_d, fig3_c),
        ]:
            _cross_vote(c, d)

    def test_structured_families(self):
        """Reflexive safety plus cross-family comparisons: the shapes
        retiming actually produces."""
        circuits = [
            shift_register(3),
            counter_circuit(3),
            pipeline_circuit(2, width=1),
        ]
        for circuit in circuits:
            _cross_vote(circuit, circuit)
        a, b = shift_register(3), shift_register(3, name="sr_b")
        _cross_vote(a, b)
