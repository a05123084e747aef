"""Differential tests: the symbolic engine must be reorder-invariant.

Dynamic variable reordering and transition-relation partitioning are
pure performance levers -- they change *how* the BDD fixpoints are
computed, never *what* they compute.  This suite pins that down the
strongest way available: every containment question (``C ⊑ D``,
``C ≼ D``, ``Cⁿ ⊑ D``) is decided once per engine configuration
(fixed order / auto sifting / manual up-front sift, each monolithic
and partitioned) and the verdicts -- and, where ``C ≼ D`` fails, the
**complete minimal-length witness, bit for bit** -- must be identical
across all of them.

Witness bit-identity is not luck: ``satisfy_one`` picks the
lexicographically smallest assignment by variable *registration*
order, which is invariant under any level permutation, so the
reconstruction walk makes the same choices no matter how sifting has
rearranged the levels.
"""

from __future__ import annotations

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import (
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
)
from repro.logic.bdd import BDDManager
from repro.stg.symbolic_replaceability import SymbolicContainmentChecker

#: (label, reorder mode, partitioned TR) -- the first entry is the
#: historical engine and serves as the baseline the rest must match.
CONFIGURATIONS = (
    ("fixed/monolithic", "off", False),
    ("fixed/partitioned", "off", True),
    ("auto/monolithic", "auto", False),
    ("auto/partitioned", "auto", True),
    ("manual/partitioned", "manual", True),
)

#: Threshold low enough that auto mode actually fires on these pairs.
SMALL_THRESHOLD = 256


def _checker(c, d, reorder, partitioned):
    manager = BDDManager(reorder=reorder, reorder_threshold=SMALL_THRESHOLD)
    return SymbolicContainmentChecker(c, d, manager=manager, partitioned=partitioned)


def _decide_all(c, d, reorder, partitioned):
    """Every verdict and the full ``C ≼ D`` witness for one config."""
    checker = _checker(c, d, reorder, partitioned)
    violation = checker.find_violation()
    witness = None
    if violation is not None:
        witness = (
            violation.c_state,
            violation.input_symbols,
            violation.c_outputs,
        )
    return {
        "implies": checker.implies(),
        "equivalent": checker.implies()
        and _checker(d, c, reorder, partitioned).implies(),
        "safe": checker.is_safe_replacement(),
        "delay": checker.delay_needed(max_cycles=6),
        "delayed_2": checker.delayed_implies(2),
        "witness": witness,
    }


def _paper_pairs():
    fig1_c, fig1_d = figure1_design_c(), figure1_design_d()
    fig3_c, fig3_d = figure3_design_c(), figure3_design_d()
    return [
        ("fig1 C,D", fig1_c, fig1_d),
        ("fig1 D,C", fig1_d, fig1_c),
        ("fig3 C,D", fig3_c, fig3_d),
        ("fig3 D,C", fig3_d, fig3_c),
    ]


def _random_pair(seed):
    import random

    rng = random.Random(seed)
    num_inputs = rng.randint(1, 2)
    num_outputs = rng.randint(1, 2)
    c = random_sequential_circuit(
        seed,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, 3),
    )
    d = random_sequential_circuit(
        seed + 59999,
        num_inputs=num_inputs,
        num_outputs=num_outputs,
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, 3),
    )
    return c, d


def _assert_reorder_invariant(c, d, context):
    baseline_label, reorder, partitioned = CONFIGURATIONS[0]
    baseline = _decide_all(c, d, reorder, partitioned)
    for label, reorder, partitioned in CONFIGURATIONS[1:]:
        got = _decide_all(c, d, reorder, partitioned)
        assert got == baseline, (
            "%s: %s disagrees with %s:\n  baseline %r\n  got      %r"
            % (context, label, baseline_label, baseline, got)
        )
    return baseline


@pytest.mark.parametrize(
    "name,c,d", _paper_pairs(), ids=[n for n, _, _ in _paper_pairs()]
)
def test_paper_pairs_reorder_invariant(name, c, d):
    _assert_reorder_invariant(c, d, name)


def test_paper_figure1_witness_is_bit_identical_everywhere():
    """Figure 1 of the paper: D ⋠ C, and every configuration must
    reconstruct the very same minimal counterexample."""
    c, d = figure1_design_d(), figure1_design_c()
    baseline = _assert_reorder_invariant(c, d, "fig1 D,C")
    if not baseline["safe"]:
        assert baseline["witness"] is not None


@pytest.mark.parametrize("seed", range(20))
def test_random_pairs_reorder_invariant(seed):
    c, d = _random_pair(seed)
    _assert_reorder_invariant(c, d, "seed %d" % seed)


def test_sweep_exercises_both_witness_polarities():
    """The invariance checks above must not be vacuous: the random
    sweep yields real witnesses, and reflexive pairs are really safe
    under every configuration."""
    c, _ = _random_pair(0)
    witnessed = any(
        _checker(*_random_pair(seed), reorder="auto", partitioned=True)
        .is_safe_replacement()
        is False
        for seed in range(3)
    )
    assert witnessed
    for _, reorder, partitioned in CONFIGURATIONS:
        assert _checker(c, c, reorder, partitioned).is_safe_replacement()


def test_auto_reordering_actually_fires_during_invariance_checking():
    """The invariance suite must genuinely exercise sifting: on a
    reorder-stress circuit with a low threshold, deciding safe
    replacement triggers auto reorders (and still agrees with the
    fixed-order verdict, per the suite above)."""
    from repro.bench.iscas import load

    circuit = load("mini_perm12")
    manager = BDDManager(reorder="auto", reorder_threshold=64)
    checker = SymbolicContainmentChecker(
        circuit, circuit, manager=manager, partitioned=True
    )
    assert checker.is_safe_replacement() is True
    assert manager.stats["reorder.auto_triggers"] > 0
    assert manager.stats["reorder.runs"] > 0
    assert manager.stats["reorder.swaps"] > 0


@pytest.mark.parametrize("mode", ["off", "manual"])
def test_a_passed_manager_sets_the_checkers_reorder_mode(mode):
    """A checker runs and reports its manager's mode: a ``manual``
    manager gets its one post-compile sift, an ``off`` one none."""
    manager = BDDManager(reorder=mode)
    checker = SymbolicContainmentChecker(
        figure1_design_c(), figure1_design_d(), manager=manager
    )
    assert checker.reorder == manager.reorder_mode == mode
    assert manager.stats["reorder.runs"] == (mode == "manual")


class TestAutoPartitioning:
    """``partitioned="auto"`` resolves per machine from the early
    quantification schedule's kill balance: chain-friendly shapes stay
    partitioned, entangled machines fall back to the monolith."""

    def test_structured_shapes_stay_partitioned(self):
        from repro.bench.generators import shift_register
        from repro.bench.iscas import load
        from repro.stg.symbolic import SymbolicMachine

        for circuit in (shift_register(4), load("mini_perm12"), load("s27")):
            assert SymbolicMachine(circuit).partitioned is True

    @staticmethod
    def _entangled():
        """A dense random machine: kills lag far behind introductions."""
        return random_sequential_circuit(
            7, num_inputs=2, num_outputs=2, num_gates=36, num_latches=12
        )

    def test_entangled_machines_fall_back_to_the_monolith(self):
        from repro.stg.symbolic import SymbolicMachine

        machine = SymbolicMachine(self._entangled())
        assert machine.partitioned is False

    def test_explicit_setting_overrides_the_heuristic(self):
        from repro.stg.symbolic import SymbolicMachine

        c, _ = _random_pair(3)
        assert SymbolicMachine(c, partitioned=True).partitioned is True
        assert SymbolicMachine(c, partitioned=False).partitioned is False

    def test_invalid_setting_rejected(self):
        from repro.stg.symbolic import SymbolicMachine

        c, _ = _random_pair(3)
        with pytest.raises(ValueError, match="partitioned"):
            SymbolicMachine(c, partitioned="sometimes")

    def test_checker_resolves_from_both_machines(self):
        from repro.bench.iscas import load

        entangled = self._entangled()
        structured = load("mini_perm12")
        assert SymbolicContainmentChecker(
            structured, structured
        ).partitioned is True
        assert SymbolicContainmentChecker(
            entangled, entangled
        ).partitioned is False
