"""Sequential ATPG (automatic test pattern generation), simulation based.

The testing half of the paper (Section 2.2, Theorem 4.6) talks about
*test sets* for single stuck-at faults under unknown power-up.  This
module generates such test sets, so the preservation experiments can
run on machine-generated suites rather than hand-picked sequences.

The generator is the classic simulation-based loop used for sequential
ATPG when no reset line exists:

1. draw a candidate input sequence (seeded RNG, growing lengths),
2. grade it against the remaining fault list with the chosen detection
   semantics (``exact`` = all-power-up-state sweep, ``cls`` =
   conservative three-valued from all-X -- the methodology the paper
   advocates),
3. keep sequences that detect at least one new fault, drop detected
   faults, stop at the coverage target or the attempt budget.

Some faults are sequentially untestable under unknown power-up (the
fault-free circuit may never produce a definite value at an output),
so 100% coverage is not generally reachable; callers set the target.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .fault import StuckAtFault, enumerate_faults, first_detections

__all__ = ["AtpgResult", "generate_tests", "grade_test_set"]

BoolVec = Tuple[bool, ...]
Test = Tuple[BoolVec, ...]


@dataclass
class AtpgResult:
    """Outcome of a generation run.

    Attributes
    ----------
    tests:
        The kept test sequences, in generation order.
    detected:
        Fault -> index of the detecting test.
    undetected:
        Faults the run failed to cover.
    attempts:
        Candidate sequences graded (kept + discarded).
    """

    tests: List[Test] = field(default_factory=list)
    detected: Dict[StuckAtFault, int] = field(default_factory=dict)
    undetected: List[StuckAtFault] = field(default_factory=list)
    attempts: int = 0

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return 1.0 if total == 0 else len(self.detected) / total

    def summary(self) -> str:
        return "%d tests, %d/%d faults detected (%.1f%%), %d candidates graded" % (
            len(self.tests),
            len(self.detected),
            len(self.detected) + len(self.undetected),
            self.coverage * 100,
            self.attempts,
        )


def generate_tests(
    circuit: Circuit,
    *,
    faults: Optional[Sequence[StuckAtFault]] = None,
    semantics: str = "exact",
    target_coverage: float = 1.0,
    max_attempts: int = 200,
    max_length: int = 8,
    seed: int = 0,
) -> AtpgResult:
    """Generate a test set for *circuit*'s stuck-at faults.

    Parameters
    ----------
    faults:
        Fault list (default: every stuck-at fault on every net).
    semantics:
        ``"exact"`` or ``"cls"`` detection (see module docstring).
    target_coverage:
        Stop once this fraction of the fault list is detected.
    max_attempts:
        Candidate-sequence budget.
    max_length:
        Longest candidate sequence; lengths ramp up as attempts grow.
    seed:
        RNG seed -- runs are fully deterministic.
    """
    if semantics not in ("exact", "cls"):
        raise ValueError("semantics must be 'exact' or 'cls'")
    if not 0.0 <= target_coverage <= 1.0:
        raise ValueError("target_coverage must be within [0, 1]")
    rng = random.Random(seed)
    fault_list = list(faults) if faults is not None else list(enumerate_faults(circuit))
    result = AtpgResult(undetected=list(fault_list))
    total = len(fault_list)
    if total == 0:
        return result

    width = len(circuit.inputs)
    with _span("sim.atpg.generate"):
        for attempt in range(max_attempts):
            if len(result.detected) / total >= target_coverage:
                break
            length = 2 + (attempt * (max_length - 2)) // max(1, max_attempts - 1)
            candidate: Test = tuple(
                tuple(rng.random() < 0.5 for _ in range(width)) for _ in range(length)
            )
            result.attempts += 1
            first = first_detections(
                circuit, [candidate], result.undetected, semantics=semantics
            )
            if any(hit is not None for hit in first):
                index = len(result.tests)
                result.tests.append(candidate)
                still: List[StuckAtFault] = []
                for fault, hit in zip(result.undetected, first):
                    if hit is None:
                        still.append(fault)
                    else:
                        result.detected[fault] = index
                result.undetected = still
    if _TRACE.enabled:
        counters = _TRACE.counters
        counters["sim.atpg.candidates"] = (
            counters.get("sim.atpg.candidates", 0) + result.attempts
        )
        counters["sim.atpg.tests_kept"] = (
            counters.get("sim.atpg.tests_kept", 0) + len(result.tests)
        )
    return result


def grade_test_set(
    circuit: Circuit,
    tests: Sequence[Test],
    *,
    faults: Optional[Sequence[StuckAtFault]] = None,
    semantics: str = "exact",
) -> AtpgResult:
    """Grade an existing test set (e.g. one generated for the original
    design, replayed on the retimed design).

    ``detected`` fills test by test, in fault-list order within a test,
    and ``attempts`` counts every test of the set.
    """
    fault_list = list(faults) if faults is not None else list(enumerate_faults(circuit))
    result = AtpgResult(tests=list(tests))
    result.attempts = len(result.tests)
    if _TRACE.enabled:
        _TRACE.incr("sim.atpg.faults_graded", len(fault_list))
    with _span("sim.atpg.grade"):
        first = first_detections(circuit, result.tests, fault_list, semantics=semantics)
    for hit, pos in sorted((hit, pos) for pos, hit in enumerate(first) if hit is not None):
        result.detected[fault_list[pos]] = hit
    result.undetected = [fault for fault, hit in zip(fault_list, first) if hit is None]
    return result
