"""Differential tests: symbolic BDD engine vs explicit STG engine.

The two engines decide the same orders (``⊑``, ``≼``, ``Cⁿ ⊑ D``) by
completely different algorithms -- joint partition refinement and
subset construction over enumerated STGs on one side, BDD fixpoints on
the other.  Any disagreement is a bug in one of them, so every paper
circuit pair and a few hundred random pairs are checked both ways, in
the spirit of the test-vector cross-checking of Bhowmick et al.
(PAPERS.md).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import (
    counter_circuit,
    pipeline_circuit,
    random_sequential_circuit,
    shift_register,
)
from repro.bench.paper_circuits import (
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
)
from repro.stg.delayed import delay_needed_for_implication, delayed_implies
from repro.decide import (
    AUTO_SYMBOLIC_LATCH_THRESHOLD,
    decide,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.stg.equivalence import (
    decide_implication,
    implies,
    machines_equivalent,
)
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import find_violation
from repro.stg import symbolic_replaceability
from repro.stg.symbolic_replaceability import (
    SymbolicContainmentChecker,
    symbolic_delay_needed_for_implication,
)


def _paper_pairs():
    fig1_c, fig1_d = figure1_design_c(), figure1_design_d()
    fig3_c, fig3_d = figure3_design_c(), figure3_design_d()
    return [
        (fig1_c, fig1_d),
        (fig1_d, fig1_c),
        (fig1_c, fig1_c),
        (fig1_d, fig1_d),
        (fig3_c, fig3_d),
        (fig3_d, fig3_c),
        (fig3_c, fig3_c),
        (fig3_d, fig3_d),
    ]


def _random_pair(seed, *, max_latches=4):
    """A random circuit pair with matching interfaces."""
    import random

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


def _assert_engines_agree(c, d):
    """Full cross-check of every containment question on one pair."""
    c_stg, d_stg = extract_stg(c), extract_stg(d)
    checker = SymbolicContainmentChecker(c, d)

    assert checker.implies() == implies(c_stg, d_stg)
    backward = SymbolicContainmentChecker(d, c).implies()
    assert (checker.implies() and backward) == machines_equivalent(c_stg, d_stg)

    explicit_violation = find_violation(c_stg, d_stg)
    symbolic_violation = checker.find_violation()
    assert (explicit_violation is None) == (symbolic_violation is None)
    if explicit_violation is not None:
        # Both searches are breadth-first, so both strings are minimal.
        assert len(symbolic_violation.input_symbols) == len(
            explicit_violation.input_symbols
        )
        # Replay the symbolic witness on the explicit STG: C really
        # produces those outputs and no D state matches them.
        outputs, _ = c_stg.run(
            symbolic_violation.c_state, symbolic_violation.input_symbols
        )
        assert tuple(outputs) == symbolic_violation.c_outputs
        for s in range(d_stg.num_states):
            d_outputs, _ = d_stg.run(s, symbolic_violation.input_symbols)
            assert tuple(d_outputs) != symbolic_violation.c_outputs

    explicit_delay = delay_needed_for_implication(c_stg, d_stg)
    assert checker.delay_needed() == explicit_delay
    for cycles in range(3):
        assert checker.delayed_implies(cycles) == delayed_implies(
            c_stg, d_stg, cycles
        )


class TestPaperPairs:
    @pytest.mark.parametrize("index", range(8))
    def test_engines_agree(self, index):
        c, d = _paper_pairs()[index]
        _assert_engines_agree(c, d)


class TestRandomPairs:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(0, 10_000))
    def test_engines_agree(self, seed):
        c, d = _random_pair(seed)
        _assert_engines_agree(c, d)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_subset_fixpoint_agrees_without_shortcut(self, seed):
        """Force the symbolic subset machinery (no Prop 3.1 shortcut) --
        it must still agree with the explicit subset construction."""
        c, d = _random_pair(seed, max_latches=3)
        explicit = find_violation(extract_stg(c), extract_stg(d))
        symbolic = SymbolicContainmentChecker(c, d).find_violation(
            use_implication_shortcut=False
        )
        assert (explicit is None) == (symbolic is None)


@pytest.mark.slow
class TestRandomPairsAtScale:
    """The acceptance-criteria sweep: ≥200 pairs, up to 6 latches."""

    @pytest.mark.parametrize("block", range(10))
    def test_engines_agree_on_200_pairs(self, block):
        for offset in range(20):
            seed = 20_000 + block * 20 + offset
            c, d = _random_pair(seed, max_latches=6)
            explicit = find_violation(extract_stg(c), extract_stg(d))
            symbolic = SymbolicContainmentChecker(c, d).find_violation()
            assert (explicit is None) == (symbolic is None), (
                "engines disagree on seed %d" % seed
            )
            if explicit is not None:
                assert len(symbolic.input_symbols) == len(explicit.input_symbols)

    def test_structured_families(self):
        """Shift registers, pipelines and counters: reflexive safety and
        cross-family comparisons, both engines."""
        circuits = [
            shift_register(4),
            pipeline_circuit(3, width=2),
            counter_circuit(4),
        ]
        for circuit in circuits:
            assert SymbolicContainmentChecker(circuit, circuit).is_safe_replacement()
            assert SymbolicContainmentChecker(circuit, circuit).implies()
        for a, b in itertools.permutations(circuits, 2):
            if len(a.inputs) != len(b.inputs) or len(a.outputs) != len(b.outputs):
                continue
            stg_a, stg_b = extract_stg(a), extract_stg(b)
            assert SymbolicContainmentChecker(a, b).implies() == implies(stg_a, stg_b)
            assert SymbolicContainmentChecker(a, b).is_safe_replacement() == (
                find_violation(stg_a, stg_b) is None
            )


class TestGCUnderPressure:
    """With a tiny ``GC_NODE_LIMIT`` every frontier level collects.  A
    hand-built root set once left out the output-cube caches, and
    recycled slots then produced wrong verdicts, corrupt witnesses or
    RecursionErrors; live handles are the roots now."""

    @pytest.mark.parametrize("seed", [1, 7, 19, 23, 42, 77, 101, 123])
    def test_subset_fixpoint_survives_constant_collection(self, seed, monkeypatch):
        monkeypatch.setattr(symbolic_replaceability, "GC_NODE_LIMIT", 50)
        c, d = _random_pair(seed, max_latches=3)
        c_stg, d_stg = extract_stg(c), extract_stg(d)
        explicit = find_violation(c_stg, d_stg)
        checker = SymbolicContainmentChecker(c, d)
        symbolic = checker.find_violation(use_implication_shortcut=False)
        assert (explicit is None) == (symbolic is None)
        if symbolic is None:
            # The fixpoint ran every level, so it must have collected.
            assert checker.manager.stats["gc_runs"] > 0
        else:
            assert len(symbolic.input_symbols) == len(explicit.input_symbols)
            outputs, _ = c_stg.run(symbolic.c_state, symbolic.input_symbols)
            assert tuple(outputs) == symbolic.c_outputs


class TestModuleLevelWrappers:
    def test_one_shot_functions_match_checker(self):
        c, d = figure1_design_c(), figure1_design_d()
        assert SymbolicContainmentChecker(c, d).implies() is False
        assert SymbolicContainmentChecker(d, c).implies() is True
        assert (
            SymbolicContainmentChecker(c, d).implies()
            and SymbolicContainmentChecker(d, c).implies()
        ) is False
        assert SymbolicContainmentChecker(c, d).delayed_implies(1) is True
        assert symbolic_delay_needed_for_implication(c, d) == 1
        assert SymbolicContainmentChecker(d, c).is_safe_replacement() is True

    def test_delay_needed_respects_max_cycles(self):
        c, d = figure1_design_c(), figure1_design_d()
        assert symbolic_delay_needed_for_implication(c, d, max_cycles=0) is None
        assert symbolic_delay_needed_for_implication(c, d, max_cycles=1) == 1

    def test_interface_mismatch_rejected(self):
        a = random_sequential_circuit(0, num_inputs=1)
        b = random_sequential_circuit(0, num_inputs=2)
        with pytest.raises(ValueError):
            SymbolicContainmentChecker(a, b).implies()

    def test_negative_delay_rejected(self):
        c = figure1_design_c()
        with pytest.raises(ValueError):
            SymbolicContainmentChecker(c, c).delayed_implies(-1)


class TestEngineResolution:
    def test_explicit_and_symbolic_are_fixed(self):
        c = figure1_design_c()
        assert resolve_engine("explicit", c, c) == "explicit"
        assert resolve_engine("symbolic", c, c) == "symbolic"

    def test_auto_uses_latch_threshold(self):
        small = shift_register(2)
        large = shift_register(AUTO_SYMBOLIC_LATCH_THRESHOLD + 1)
        assert resolve_engine("auto", small, small) == "explicit"
        assert resolve_engine("auto", large, small) == "symbolic"
        assert resolve_engine("auto", small, large) == "symbolic"

    def test_default_engine_round_trip(self):
        previous = get_default_engine()
        try:
            set_default_engine("symbolic")
            assert get_default_engine() == "symbolic"
            assert resolve_engine(None, figure1_design_c(), None) == "symbolic"
        finally:
            set_default_engine(previous)

    def test_bad_engine_names_rejected(self):
        with pytest.raises(ValueError):
            set_default_engine("bogus")
        with pytest.raises(ValueError):
            resolve_engine("bogus")


class TestCircuitLevelEquivalenceDispatch:
    def test_decide_implication_both_engines(self):
        c, d = figure1_design_c(), figure1_design_d()
        for engine in ("explicit", "symbolic"):
            assert decide_implication(c, d, engine=engine) is False
            assert decide_implication(d, c, engine=engine) is True

    def test_fsm_equivalence(self):
        """FSM equivalence is implication both ways, on either engine."""

        def equivalent(a, b, engine):
            (forward,) = decide(a, b, "implies", engine=engine)
            (backward,) = decide(b, a, "implies", engine=engine)
            return forward.holds and backward.holds

        c, d = figure1_design_c(), figure1_design_d()
        for engine in ("explicit", "symbolic"):
            assert equivalent(c, d, engine) is False
            assert equivalent(c, c, engine) is True
