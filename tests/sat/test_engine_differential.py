"""Differential tests: SAT engine vs explicit STG vs symbolic BDDs.

Three decision procedures for the same orders (``⊑``, ``≼``,
``Cⁿ ⊑ D``), with no shared algorithmic machinery: enumerated STGs
plus subset construction, BDD fixpoints, and bounded CNF unrolling
under CDCL.  Every produced verdict must agree, every SAT violation
must carry a witness the stock simulators confirm, and minimal-length
guarantees must line up (the SAT deepening loop and the explicit BFS
both find shortest violations).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import (
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
)
from repro.decide import ENGINES, decide, resolve_engine
from repro.sat import (
    check_cls_equivalence,
    check_implication,
    check_safe_replacement,
    sat_delay_needed,
)
from repro.sat.replay import replay_witness
from repro.sat.witness import witness_from_json, witness_to_json
from repro.stg.delayed import delay_needed_for_implication, delayed_implies
from repro.stg.equivalence import (
    decide_implication,
    implies,
    machines_equivalent,
)
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import (
    SearchBudgetExceeded,
    find_safe_replacement_violation,
    find_violation,
)
from repro.stg.ternary_equiv import decide_cls_equivalence


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


def _random_pair(seed, *, max_latches=3):
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


def _assert_sat_agrees(c, d):
    """Full cross-check of every containment question on one pair."""
    c_stg, d_stg = extract_stg(c), extract_stg(d)

    assert check_implication(c, d).holds == implies(c_stg, d_stg)
    assert (
        check_implication(c, d).holds and check_implication(d, c).holds
    ) == machines_equivalent(c_stg, d_stg)

    explicit_violation = find_violation(c_stg, d_stg)
    try:
        result = check_safe_replacement(c, d)
    except SearchBudgetExceeded:
        # Safe-but-not-contained pairs have no cheap completeness
        # route (the subset bound is doubly exponential); the engine
        # must raise rather than guess -- but only on pairs that
        # really are safe: a violation would have been found well
        # within the frame cap.
        assert explicit_violation is None
        result = None
    if result is not None:
        assert result.holds == (explicit_violation is None)
    if result is not None and explicit_violation is not None:
        sat_violation = result.violation
        # Both searches deepen breadth-first, so both are minimal.
        assert len(sat_violation.input_symbols) == len(
            explicit_violation.input_symbols
        )
        # Replay the SAT witness on the explicit STG.
        outputs, _ = c_stg.run(sat_violation.c_state, sat_violation.input_symbols)
        assert tuple(outputs) == sat_violation.c_outputs
        for s in range(d_stg.num_states):
            d_outputs, _ = d_stg.run(s, sat_violation.input_symbols)
            assert tuple(d_outputs) != sat_violation.c_outputs
        # And independently with the stock simulators, end to end.
        replay = replay_witness(c, d, result.witness)
        assert replay.ok, replay.errors

    assert sat_delay_needed(c, d) == delay_needed_for_implication(c_stg, d_stg)
    for cycles in range(3):
        assert check_implication(c, d, k=cycles).holds == delayed_implies(
            c_stg, d_stg, cycles
        )


class TestPaperPairs:
    @pytest.mark.parametrize("index", range(8))
    def test_engines_agree(self, index):
        c, d = _paper_pairs()[index]
        _assert_sat_agrees(c, d)

    def test_figure1_exact_facts(self):
        """The paper's running example, fact for fact."""
        c, d = figure1_design_c(), figure1_design_d()
        assert check_implication(c, d).holds is False
        assert check_implication(d, c).holds is True
        assert (
            check_implication(c, d).holds and check_implication(d, c).holds
        ) is False
        assert check_implication(c, d, k=1).holds is True
        assert sat_delay_needed(c, d) == 1
        assert check_safe_replacement(d, c).holds is True
        violation = check_safe_replacement(c, d).violation
        assert violation.c_state == 2
        assert violation.input_symbols == (0, 1)
        assert violation.c_outputs == (0, 1)

    def test_figure1_witness_replays_and_round_trips(self):
        c, d = figure1_design_c(), figure1_design_d()
        result = check_safe_replacement(c, d)
        assert replay_witness(c, d, result.witness).ok
        restored = witness_from_json(witness_to_json(result.witness))
        assert restored == result.witness
        assert replay_witness(c, d, restored).ok

    def test_implication_witness_replays(self):
        c, d = figure1_design_c(), figure1_design_d()
        result = check_implication(c, d)
        assert not result.holds
        replay = replay_witness(c, d, result.witness)
        assert replay.ok, replay.errors
        # One distinguishing experiment per D power-up state.
        assert {p.d_state for p in result.witness.pairs} == set(
            range(1 << d.num_latches)
        )


class TestRandomPairs:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_engines_agree(self, seed):
        c, d = _random_pair(seed)
        _assert_sat_agrees(c, d)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_subset_path_agrees_without_shortcut(self, seed):
        """Force the full safe-replacement unrolling (no Prop 3.1
        shortcut) -- it must still agree with the explicit engine."""
        c, d = _random_pair(seed, max_latches=2)
        explicit = find_violation(extract_stg(c), extract_stg(d))
        result = check_safe_replacement(c, d, use_implication_shortcut=False)
        assert result.holds == (explicit is None)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_every_violation_witness_replays(self, seed):
        c, d = _random_pair(seed)
        try:
            result = check_safe_replacement(c, d)
        except SearchBudgetExceeded:
            return
        if result.witness is not None:
            replay = replay_witness(c, d, result.witness)
            assert replay.ok, replay.errors


class TestCLS:
    def test_figure1_pair_is_cls_equivalent(self):
        c, d = figure1_design_c(), figure1_design_d()
        result = check_cls_equivalence(c, d)
        assert result.holds and result.method == "complete-bound"

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_explicit_cls_walk(self, seed):
        c, d = _random_pair(seed, max_latches=2)
        explicit = decide_cls_equivalence(c, d)
        try:
            trace = check_cls_equivalence(c, d, max_frames=80).witness
        except SearchBudgetExceeded:
            return
        assert (trace is None) == (explicit is None)
        if trace is not None:
            replay = replay_witness(c, d, trace)
            assert replay.ok, replay.errors


class TestBudgets:
    def test_tiny_conflict_budget_raises_not_guesses(self):
        c, d = _random_pair(123, max_latches=3)
        with pytest.raises(SearchBudgetExceeded):
            check_safe_replacement(c, d, max_conflicts=0)

    def test_frame_cap_short_of_bound_raises(self):
        c, d = figure1_design_c(), figure1_design_d()
        # d ⊑ c holds, provable only at the full bound; capping the
        # frames below it must raise rather than report a guess.
        with pytest.raises(SearchBudgetExceeded):
            check_implication(d, c, max_frames=1)

    def test_interface_mismatch_rejected(self):
        a = random_sequential_circuit(0, num_inputs=1)
        b = random_sequential_circuit(0, num_inputs=2)
        with pytest.raises(ValueError):
            check_implication(a, b)


class TestDispatchers:
    def test_engine_name_is_registered(self):
        assert "sat" in ENGINES

    def test_auto_never_resolves_to_sat(self):
        c, d = figure1_design_c(), figure1_design_d()
        assert resolve_engine("auto", c, d) in ("explicit", "symbolic")
        assert resolve_engine("sat", c, d) == "sat"

    def test_decide_implication_all_three_engines(self):
        c, d = figure1_design_c(), figure1_design_d()
        for engine in ("explicit", "symbolic", "sat"):
            assert decide_implication(c, d, engine=engine) is False
            assert decide_implication(d, c, engine=engine) is True

    def test_fsm_equivalence_all_three_engines(self):
        """FSM equivalence is implication both ways, on every engine."""

        def equivalent(a, b, engine):
            (forward,) = decide(a, b, "implies", engine=engine)
            (backward,) = decide(b, a, "implies", engine=engine)
            return forward.holds and backward.holds

        c, d = figure1_design_c(), figure1_design_d()
        for engine in ("explicit", "symbolic", "sat"):
            assert equivalent(c, d, engine) is False
            assert equivalent(c, c, engine) is True

    def test_find_safe_replacement_violation_sat_engine(self):
        c, d = figure1_design_c(), figure1_design_d()
        violation = find_safe_replacement_violation(c, d, engine="sat")
        explicit = find_safe_replacement_violation(c, d, engine="explicit")
        assert violation == explicit

    def test_check_retiming_validity_sat_engine(self):
        """The end-to-end validity battery through the SAT engine."""
        from repro.retime.apply import lag_to_moves
        from repro.retime.graph import build_retiming_graph
        from repro.retime.leiserson_saxe import min_period_retiming
        from repro.retime.validity import check_retiming_validity

        circuit = random_sequential_circuit(
            11, num_inputs=2, num_gates=8, num_latches=2
        )
        session = lag_to_moves(
            circuit, min_period_retiming(build_retiming_graph(circuit)).lag
        )
        sat_report = check_retiming_validity(session, engine="sat")
        explicit_report = check_retiming_validity(session, engine="explicit")
        assert sat_report == explicit_report
        assert sat_report.consistent_with_paper()


class TestObsCounters:
    def test_sat_counters_land_in_the_tracer(self):
        from repro.obs.trace import TRACER

        state = TRACER.snapshot()
        try:
            TRACER.enabled = True
            TRACER.counters.clear()
            c, d = figure1_design_c(), figure1_design_d()
            check_safe_replacement(c, d)
            assert TRACER.counters.get("sat.checks", 0) >= 1
            assert TRACER.counters.get("sat.solves", 0) >= 1
            assert TRACER.counters.get("sat.violations", 0) >= 1
            assert any(key.startswith("stg.sat.") for key in TRACER.spans)
        finally:
            TRACER.restore(state)
