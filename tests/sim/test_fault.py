"""Tests for stuck-at faults and sequential test evaluation."""

from __future__ import annotations

import pytest

from repro.bench.paper_circuits import (
    FIGURE3_TEST_SEQUENCE,
    figure3_design_c,
    figure3_design_d,
    figure3_fault,
)
from repro.bench.iscas import load
from repro.netlist.circuit import CircuitError
from repro.sim.atpg import generate_tests, grade_test_set
from repro.sim.fault import (
    FaultSimulator,
    StuckAtFault,
    detects_cls,
    detects_exact,
    detection_time,
    enumerate_faults,
    faulty_overrides,
)


def test_fault_string_and_overrides():
    f = StuckAtFault("n1", True)
    assert str(f) == "n1/s-a-1"
    assert faulty_overrides(f) == {"n1": True}


def test_enumerate_faults_counts():
    d = figure3_design_d()
    faults = enumerate_faults(d)
    assert len(faults) == 2 * len(d.nets())
    subset = enumerate_faults(d, nets=("q2b",))
    assert subset == (StuckAtFault("q2b", False), StuckAtFault("q2b", True))


def test_figure3_test_works_on_original_design():
    """Section 2.2: test 0·1 detects the stuck-at-1 fault in D --
    fault-free outputs 0·0 from all power-up states, faulty 0·1."""
    d = figure3_design_d()
    verdict = detects_exact(d, figure3_fault(), FIGURE3_TEST_SEQUENCE)
    assert verdict.detected
    assert verdict.time_step == 1
    assert verdict.good_value is False


def test_figure3_test_lost_after_retiming():
    """Section 2.2's punchline: the same test no longer detects the same
    fault in the retimed C (fault-free C may output 0·1 itself)."""
    c = figure3_design_c()
    verdict = detects_exact(c, figure3_fault(), FIGURE3_TEST_SEQUENCE)
    assert not verdict.detected


def test_prefixed_tests_recover_detection_in_c():
    """Theorem 4.6's illustration: 0·0·1 and 1·0·1 both test the fault
    in C, distinguishing on the 3rd clock cycle."""
    c = figure3_design_c()
    for warmup in (False, True):
        test = ((warmup,),) + FIGURE3_TEST_SEQUENCE
        verdict = detects_exact(c, figure3_fault(), test)
        assert verdict.detected
        assert verdict.time_step == 2  # the 3rd cycle, 0-based


def test_detection_time_api():
    d = figure3_design_d()
    assert detection_time(d, figure3_fault(), FIGURE3_TEST_SEQUENCE) == 1
    c = figure3_design_c()
    assert detection_time(c, figure3_fault(), FIGURE3_TEST_SEQUENCE) is None
    with pytest.raises(ValueError):
        detection_time(d, figure3_fault(), FIGURE3_TEST_SEQUENCE, semantics="bogus")


def test_cls_detection_implies_exact_detection():
    """CLS-based detection is sound: whatever the CLS can distinguish,
    the exhaustive sweep distinguishes too."""
    d = figure3_design_d()
    for fault in enumerate_faults(d):
        for test in ([(False,), (True,)], [(True,), (True,), (False,)]):
            if detects_cls(d, fault, test).detected:
                assert detects_exact(d, fault, test).detected, (fault, test)


def test_fault_simulator_with_dropping():
    d = figure3_design_d()
    tests = [FIGURE3_TEST_SEQUENCE, ((False,), (True,), (True,))]
    sim = FaultSimulator(d, semantics="exact")
    verdicts = sim.run_test_set(tests, faults=[figure3_fault(), StuckAtFault("O", False)])
    assert verdicts[figure3_fault()] == 0  # first test catches it
    # O stuck-at-0: output always 0; test 0·1 gives good 0·0 == faulty, so
    # the first test misses it, but 0·1·1 drives the good output to a
    # definite 1 on the 3rd cycle and catches it.
    assert verdicts[StuckAtFault("O", False)] == 1


def test_fault_simulator_coverage():
    d = figure3_design_d()
    sim = FaultSimulator(d)
    tests = [FIGURE3_TEST_SEQUENCE]
    cov = sim.coverage(tests, faults=[figure3_fault()])
    assert cov == 1.0
    cov_all = sim.coverage(tests)
    assert 0.0 < cov_all < 1.0  # one short test cannot catch everything


def test_fault_simulator_rejects_bad_semantics():
    with pytest.raises(ValueError):
        FaultSimulator(figure3_design_d(), semantics="quantum")


def test_undetectable_fault_reports_none():
    d = figure3_design_d()
    sim = FaultSimulator(d)
    # A fault on the *output* net stuck at the value the good circuit
    # produces at every observed step of this trivial test.
    verdicts = sim.run_test_set([((False,),)], faults=[StuckAtFault("O", False)])
    assert verdicts[StuckAtFault("O", False)] is None


@pytest.mark.parametrize("semantics", ("exact", "cls"))
def test_grading_rejects_vectors_of_the_wrong_width(semantics):
    # s27 has 4 inputs; a 5-bit vector used to grade "3 detected faults"
    # under exact semantics, and a 3-bit one raised a bare IndexError.
    s27 = load("s27")
    good = ((False, True, True, False),)
    for width in (5, 3):
        bad = (tuple(i % 2 == 0 for i in range(width)),)
        message = "circuit s27 has 4 inputs, got %d values" % width
        with pytest.raises(ValueError, match=message):
            FaultSimulator(s27, semantics=semantics).run_test_set([good, bad])
        with pytest.raises(ValueError, match=message):
            grade_test_set(s27, [good, bad], semantics=semantics)


@pytest.mark.parametrize("semantics", ("exact", "cls"))
def test_fault_on_a_missing_net_is_a_circuit_error(semantics):
    d = figure3_design_d()
    nope = StuckAtFault("nope", True)
    pattern = "circuit %s has no net 'nope'" % d.name
    with pytest.raises(CircuitError, match=pattern):
        FaultSimulator(d, semantics=semantics).run_test_set(
            [FIGURE3_TEST_SEQUENCE], faults=[figure3_fault(), nope]
        )
    with pytest.raises(CircuitError, match=pattern):
        grade_test_set(d, [FIGURE3_TEST_SEQUENCE], faults=[nope], semantics=semantics)
    with pytest.raises(CircuitError, match=pattern):
        generate_tests(d, faults=[nope], semantics=semantics, max_attempts=2)
    detect = detects_exact if semantics == "exact" else detects_cls
    with pytest.raises(CircuitError, match=pattern):
        detect(d, nope, FIGURE3_TEST_SEQUENCE)
