"""Differential test: the lane-packed fault grader against a per-fault oracle.

:func:`repro.sim.fault.first_detections` grades a whole fault list in
packed sweeps of the forced compiled program: one lane per fault under
CLS, one block of ``2**n`` power-up lanes per fault under exact
semantics, with fault dropping between tests.  The oracle here grades
one fault at a time on the reference interpreter of
``tests/reference.py``, through its ``overrides=`` stuck-at contract:

* exact: one bit-parallel reference sweep over every power-up state per
  fault and test, read as 0 / 1 / X per output and cycle;
* CLS: one scalar ternary reference run from all-X per fault and test.

A fault is detected where the fault-free and faulty values are both
definite and differ.  ``FaultSimulator.run_test_set``,
``grade_test_set`` and ``generate_tests`` must reproduce the oracle's
verdicts, its insertion orders and its ``AtpgResult`` bookkeeping
exactly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from reference import exhaustive_masks, propagate_masks
from reference import step as reference_step
from repro import obs
from repro.bench.iscas import load
from repro.bench.paper_circuits import (
    figure1_design_c,
    figure1_design_d,
    figure3_design_c,
    figure3_design_d,
)
from repro.logic.functions import CellFunction, make_gate
from repro.logic.ternary import ONE, X, ZERO
from repro.netlist.circuit import Circuit
from repro.sim import fault as fault_module
from repro.sim.atpg import AtpgResult, generate_tests, grade_test_set
from repro.sim.fault import FaultSimulator, StuckAtFault, enumerate_faults

SEMANTICS = ("exact", "cls")


# ---------------------------------------------------------------------------
# The per-fault oracle.
# ---------------------------------------------------------------------------


def _exact_run(circuit: Circuit, test, overrides) -> List[Tuple]:
    """Exact 0/1/X outputs over every power-up state, on the reference."""
    all_lanes = (1 << (1 << circuit.num_latches)) - 1
    state = exhaustive_masks(circuit.num_latches)
    outputs = []
    for vector in test:
        values = propagate_masks(
            circuit, [all_lanes if bit else 0 for bit in vector], state, all_lanes, overrides
        )
        outputs.append(
            tuple(
                ONE if values[net] == all_lanes else ZERO if values[net] == 0 else X
                for net in circuit.outputs
            )
        )
        state = [values[latch.data_in] for latch in circuit.latches]
    return outputs


def _cls_run(circuit: Circuit, test, overrides) -> List[Tuple]:
    """CLS outputs from the all-X state, on the reference."""
    state = (X,) * circuit.num_latches
    outputs = []
    for vector in test:
        out, state = reference_step(
            circuit,
            state,
            tuple(ONE if bit else ZERO for bit in vector),
            ternary=True,
            overrides=overrides,
        )
        outputs.append(out)
    return outputs


class Oracle:
    """One fault at a time, with the fault-free run memoised per test."""

    def __init__(self, circuit: Circuit, semantics: str) -> None:
        self.circuit = circuit
        self.semantics = semantics
        self.run = _exact_run if semantics == "exact" else _cls_run
        self._good: Dict[Tuple, List[Tuple]] = {}

    def detects(self, fault: StuckAtFault, test) -> bool:
        test = tuple(tuple(vector) for vector in test)
        good = self._good.get(test)
        if good is None:
            good = self._good[test] = self.run(self.circuit, test, None)
        if self.semantics == "exact":
            stuck = {fault.net: fault.value}
        else:
            stuck = {fault.net: ONE if fault.value else ZERO}
        bad = self.run(self.circuit, test, stuck)
        return any(
            g is not X and b is not X and g is not b
            for good_vec, bad_vec in zip(good, bad)
            for g, b in zip(good_vec, bad_vec)
        )

    def first(self, tests, faults) -> List[Optional[int]]:
        verdicts: List[Optional[int]] = []
        for fault in faults:
            hit = None
            for index, test in enumerate(tests):
                if self.detects(fault, test):
                    hit = index
                    break
            verdicts.append(hit)
        return verdicts

    def grade(self, tests, faults) -> AtpgResult:
        """``grade_test_set``'s contract: ``detected`` fills test by
        test, in fault-list order within each test."""
        first = self.first(tests, faults)
        result = AtpgResult(tests=list(tests), attempts=len(tests))
        for index in range(len(tests)):
            for fault, hit in zip(faults, first):
                if hit == index:
                    result.detected[fault] = index
        result.undetected = [f for f, hit in zip(faults, first) if hit is None]
        return result

    def generate(self, faults, *, max_attempts, max_length, seed) -> AtpgResult:
        """``generate_tests``'s loop, grading each candidate on the oracle."""
        rng = random.Random(seed)
        result = AtpgResult(undetected=list(faults))
        width = len(self.circuit.inputs)
        for attempt in range(max_attempts):
            if len(result.detected) / len(faults) >= 1.0:
                break
            length = 2 + (attempt * (max_length - 2)) // max(1, max_attempts - 1)
            candidate = tuple(
                tuple(rng.random() < 0.5 for _ in range(width)) for _ in range(length)
            )
            result.attempts += 1
            caught = [f for f in result.undetected if self.detects(f, candidate)]
            if caught:
                result.tests.append(candidate)
                for fault in caught:
                    result.detected[fault] = len(result.tests) - 1
                result.undetected = [f for f in result.undetected if f not in caught]
        return result


# ---------------------------------------------------------------------------
# Circuits, faults and tests.
# ---------------------------------------------------------------------------


def _half_adder(inputs):
    a, b = inputs
    return (a != b, a and b)


HALF_ADDER = CellFunction("HA2-pack", 2, 2, _half_adder)


def generic_circuit() -> Circuit:
    """A GENERIC half adder whose carry is latched back into the sum."""
    circuit = Circuit("generic-pack")
    a = circuit.add_input("a")
    b = circuit.add_input("b")
    circuit.add_cell("ha", HALF_ADDER, (a, b), ("sum", "carry"))
    circuit.add_cell("mix", make_gate("XOR", 2), ("sum", "q"), ("out",))
    circuit.add_cell("keep", make_gate("OR", 2), ("carry", "out"), ("d",))
    circuit.add_latch("l0", "d", "q")
    circuit.add_output("out")
    return circuit


CIRCUITS = {
    "figure1_D": figure1_design_d,
    "figure1_C": figure1_design_c,
    "figure3_D": figure3_design_d,
    "figure3_C": figure3_design_c,
    "mini_traffic": lambda: load("mini_traffic"),
    "mini_handshake": lambda: load("mini_handshake"),
    "mini_gray": lambda: load("mini_gray"),
    "mini_seqdet": lambda: load("mini_seqdet"),
    "s27": lambda: load("s27"),
    "generic": generic_circuit,
}


def random_tests(circuit: Circuit, seed: int, count: int = 4, longest: int = 5):
    rng = random.Random(seed)
    width = len(circuit.inputs)
    return [
        tuple(
            tuple(rng.random() < 0.5 for _ in range(width))
            for _ in range(rng.randint(1, longest))
        )
        for _ in range(count)
    ]


def fault_sites(circuit: Circuit) -> Dict[str, set]:
    """The nets of each fault site kind the grader must force."""
    juncs = set()
    for cell in circuit.cells:
        if cell.function.family == "JUNC":
            juncs.update(cell.outputs)
    return {
        "inputs": set(circuit.inputs),
        "latch outputs": {latch.data_out for latch in circuit.latches},
        "JUNC branches": juncs,
        "outputs": set(circuit.outputs),
    }


def assert_grading_matches(circuit, tests, faults, semantics, oracle=None):
    oracle = oracle or Oracle(circuit, semantics)
    expected_first = oracle.first(tests, faults)
    verdicts = FaultSimulator(circuit, semantics=semantics).run_test_set(tests, faults)
    assert list(verdicts.items()) == list(dict(zip(faults, expected_first)).items())
    graded = grade_test_set(circuit, tests, faults=faults, semantics=semantics)
    expected = oracle.grade(tests, faults)
    assert list(graded.detected.items()) == list(expected.detected.items())
    assert graded.undetected == expected.undetected
    assert (graded.tests, graded.attempts) == (expected.tests, expected.attempts)


# ---------------------------------------------------------------------------
# The differential.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_packed_grading_matches_the_oracle_on_every_fault(name, semantics):
    circuit = CIRCUITS[name]()
    faults = list(enumerate_faults(circuit))
    # Duplicates keep their first position in the verdict map.
    faults += [faults[1], faults[0], faults[-1]]
    tests = random_tests(circuit, seed=len(name))
    assert_grading_matches(circuit, tests, faults, semantics)


def test_every_fault_site_kind_is_graded():
    # The every-fault circuits above force primary inputs, latch outputs,
    # JUNC fanout branches and primary outputs.
    s27 = load("s27")
    nets = {fault.net for fault in enumerate_faults(s27)}
    for kind, sites in fault_sites(s27).items():
        assert sites and sites <= nets, kind


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_packed_grading_matches_the_oracle_on_s386(semantics):
    s386 = load("s386")
    rng = random.Random(386)
    sites = fault_sites(s386)
    nets = sorted(set().union(*sites.values()))
    faults = [StuckAtFault(net, rng.random() < 0.5) for net in rng.sample(nets, 12)]
    faults += rng.sample(list(enumerate_faults(s386)), 12)
    tests = random_tests(s386, seed=3, count=3, longest=4)
    assert_grading_matches(s386, tests, faults, semantics)


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("name", ("figure3_D", "figure3_C", "s27"))
def test_generation_matches_the_oracle(name, semantics):
    circuit = CIRCUITS[name]()
    faults = list(enumerate_faults(circuit))
    got = generate_tests(
        circuit, faults=faults, semantics=semantics, max_attempts=10, max_length=5, seed=2
    )
    expected = Oracle(circuit, semantics).generate(
        faults, max_attempts=10, max_length=5, seed=2
    )
    assert got.tests == expected.tests
    assert list(got.detected.items()) == list(expected.detected.items())
    assert got.undetected == expected.undetected
    assert got.attempts == expected.attempts


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_empty_test_set_and_empty_fault_list(semantics):
    s27 = load("s27")
    faults = list(enumerate_faults(s27))[:6]
    verdicts = FaultSimulator(s27, semantics=semantics).run_test_set([], faults)
    assert list(verdicts.items()) == [(fault, None) for fault in faults]
    graded = grade_test_set(s27, [], faults=faults, semantics=semantics)
    assert (graded.detected, graded.undetected, graded.attempts) == ({}, faults, 0)
    tests = random_tests(s27, seed=1)
    assert FaultSimulator(s27, semantics=semantics).run_test_set(tests, []) == {}
    graded = grade_test_set(s27, tests, faults=[], semantics=semantics)
    assert (graded.detected, graded.undetected, graded.attempts) == ({}, [], len(tests))


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("lanes", (1, 5, 16))
def test_grading_split_over_several_packs(monkeypatch, semantics, lanes):
    # s27 has 3 latches, so an exact fault owns 8 lanes: a 16-lane cap
    # packs two faults a sweep, and caps of 1 and 5 still pack one.
    s27 = load("s27")
    faults = list(enumerate_faults(s27))
    tests = random_tests(s27, seed=5)
    oracle = Oracle(s27, semantics)
    monkeypatch.setattr(fault_module, "PACK_LANES", lanes)
    with obs.timed("packs") as run:
        assert_grading_matches(s27, tests, faults, semantics, oracle)
    counters = run.report.counters
    per_pack = lanes if semantics == "cls" else max(1, lanes // 8)
    # Both graders grade the first test against every fault.
    assert counters["sim.fault.packs"] >= 2 * -(-len(faults) // per_pack) > 2
    assert counters["sim.fault.evals"] >= 2 * len(faults)
