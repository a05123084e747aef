"""Stuck-at faults and sequential test evaluation.

Section 2.2 of the paper shows that a sequential test for a single
stuck-at fault can stop working after retiming; Theorem 4.6 restores the
result for sufficiently delayed designs.  This module provides the
machinery those arguments run on:

* :class:`StuckAtFault` -- a net stuck at 0 or 1.  In single-fanout
  normal form every cell pin has its own net, so net faults subsume the
  classical pin faults (fanout branches are separate nets behind the
  ``JUNC`` cell, exactly as fanout-branch faults require).
* fault injection via simulator overrides,
* two detection semantics for a test sequence under unknown power-up:

  ``detects_exact``
      there is a time step and output where the fault-free circuit
      produces one definite value **from every power-up state** and the
      faulty circuit produces the complementary definite value from
      every power-up state.  This is the criterion used for the
      Figure 3 discussion ("the fault-free version of D produces the
      output 0·0 from all power-up states whereas the faulty version
      produces 0·1").

  ``detects_cls``
      the same, but with the conservative three-valued simulator as the
      yardstick (both circuits started all-X).  Because the CLS is
      conservative, CLS-detection implies exact-detection; the converse
      fails, which is the price a 3-valued test methodology pays.

* a small fault simulator with fault dropping for whole test sets --
  optionally fault-partitioned across worker processes
  (:mod:`repro.sim.parallel`): each fault's verdict (the index of the
  first detecting test) is independent of every other fault's, so the
  fault list shards freely and the merged verdict map is bit-for-bit
  the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.ternary import ONE, T, X, ZERO, from_bool, is_definite
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .exact import ExactSimulator
from .parallel import resolve_jobs, run_sharded
from .ternary_sim import TernarySimulator, all_x_state

__all__ = [
    "StuckAtFault",
    "enumerate_faults",
    "faulty_overrides",
    "good_outputs",
    "detects_exact",
    "detects_cls",
    "detection_time",
    "FaultSimulator",
    "TestEvaluation",
]

BoolVec = Tuple[bool, ...]


@dataclass(frozen=True)
class StuckAtFault:
    """A single stuck-at fault: *net* permanently holds *value*."""

    net: str
    value: bool

    def __str__(self) -> str:
        return "%s/s-a-%d" % (self.net, int(self.value))


def enumerate_faults(circuit: Circuit, nets: Optional[Iterable[str]] = None) -> Tuple[StuckAtFault, ...]:
    """All stuck-at-0/1 faults on the given nets (default: every net)."""
    targets = tuple(nets) if nets is not None else circuit.nets()
    faults: List[StuckAtFault] = []
    for net in targets:
        faults.append(StuckAtFault(net, False))
        faults.append(StuckAtFault(net, True))
    return tuple(faults)


def faulty_overrides(fault: StuckAtFault) -> Dict[str, bool]:
    """Simulator override map injecting *fault*."""
    return {fault.net: fault.value}


def _ternary_overrides(fault: StuckAtFault) -> Dict[str, T]:
    return {fault.net: ONE if fault.value else ZERO}


@dataclass(frozen=True)
class TestEvaluation:
    """Outcome of evaluating one test sequence against one fault.

    ``detected`` is the verdict; ``time_step``/``output_index`` locate
    the first distinguishing observation (both ``None`` if undetected);
    ``good_value`` is the definite fault-free value observed there.
    """

    detected: bool
    time_step: Optional[int] = None
    output_index: Optional[int] = None
    good_value: Optional[bool] = None


def _first_distinguishing(
    good: Sequence[Sequence[T]], bad: Sequence[Sequence[T]]
) -> TestEvaluation:
    for t, (good_vec, bad_vec) in enumerate(zip(good, bad)):
        for o, (g, b) in enumerate(zip(good_vec, bad_vec)):
            if is_definite(g) and is_definite(b) and g is not b:
                return TestEvaluation(True, t, o, g is ONE)
    return TestEvaluation(False)


def good_outputs(
    circuit: Circuit,
    test: Sequence[Sequence[bool]],
    *,
    semantics: str = "exact",
    max_latches: int = 20,
) -> Tuple[Tuple[T, ...], ...]:
    """Fault-free reference outputs of *circuit* for *test*.

    Fault grading compares every fault against the same fault-free run;
    computing it once per test (instead of once per fault-test pair)
    and passing it via the ``good=`` parameter of :func:`detects_exact`
    / :func:`detects_cls` halves the simulation work of a grading sweep.
    """
    if semantics == "exact":
        return ExactSimulator(circuit, max_latches=max_latches).outputs(test)
    if semantics == "cls":
        return tuple(TernarySimulator(circuit).run_from_unknown(test).outputs)
    raise ValueError("semantics must be 'exact' or 'cls', not %r" % semantics)


def detects_exact(
    circuit: Circuit,
    fault: StuckAtFault,
    test: Sequence[Sequence[bool]],
    *,
    max_latches: int = 20,
    good: Optional[Sequence[Sequence[T]]] = None,
) -> TestEvaluation:
    """Exact-semantics detection verdict (all power-up states swept)."""
    if _TRACE.enabled:
        _TRACE.incr("sim.fault.evals")
    if good is None:
        good = good_outputs(circuit, test, semantics="exact", max_latches=max_latches)
    faulty_sim = ExactSimulator(
        circuit, max_latches=max_latches, overrides=faulty_overrides(fault)
    )
    bad = faulty_sim.outputs(test)
    return _first_distinguishing(good, bad)


def detects_cls(
    circuit: Circuit,
    fault: StuckAtFault,
    test: Sequence[Sequence[T]],
    *,
    good: Optional[Sequence[Sequence[T]]] = None,
) -> TestEvaluation:
    """CLS-semantics detection verdict (both circuits started all-X)."""
    if _TRACE.enabled:
        _TRACE.incr("sim.fault.evals")
    if good is None:
        good = good_outputs(circuit, test, semantics="cls")
    bad_sim = TernarySimulator(circuit, overrides=_ternary_overrides(fault))
    bad = bad_sim.run_from_unknown(test).outputs
    return _first_distinguishing(good, bad)


def detection_time(
    circuit: Circuit,
    fault: StuckAtFault,
    test: Sequence[Sequence[bool]],
    *,
    semantics: str = "exact",
) -> Optional[int]:
    """Cycle index (0-based) at which *test* first detects *fault*, or
    ``None``.  ``semantics`` is ``"exact"`` or ``"cls"``."""
    if semantics == "exact":
        verdict = detects_exact(circuit, fault, test)
    elif semantics == "cls":
        verdict = detects_cls(circuit, fault, test)
    else:
        raise ValueError("semantics must be 'exact' or 'cls', not %r" % semantics)
    return verdict.time_step if verdict.detected else None


#: Shared worker context for fault-partitioned grading: the circuit, the
#: test set, the per-test fault-free reference outputs (computed once in
#: the parent) and the semantics.  It is pickled inline; ``T`` is an
#: ``IntEnum``, so the reference outputs unpickle as the module's
#: ``ZERO``/``ONE``/``X`` singletons that detection compares with ``is``.
GradingPayload = Tuple[Circuit, Tuple, Tuple, str]


def _first_detecting_index(
    payload: GradingPayload, faults: Sequence[StuckAtFault]
) -> List[Optional[int]]:
    """Worker task: first detecting test index per fault (or ``None``).

    Must stay a module-level function so :func:`repro.sim.parallel.run_sharded`
    can pickle it by reference.
    """
    circuit, tests, goods, semantics = payload
    detect = detects_exact if semantics == "exact" else detects_cls
    verdicts: List[Optional[int]] = []
    for fault in faults:
        found: Optional[int] = None
        for index, (test, good) in enumerate(zip(tests, goods)):
            if detect(circuit, fault, test, good=good).detected:
                found = index
                break
        verdicts.append(found)
    return verdicts


class FaultSimulator:
    """Evaluate test sets against fault lists, with fault dropping.

    Parameters
    ----------
    circuit:
        Fault-free reference circuit.
    semantics:
        ``"exact"`` (power-up sweep) or ``"cls"`` (conservative
        three-valued, all-X start).
    jobs:
        Worker processes for fault-partitioned grading (``None`` -> the
        process default of :mod:`repro.sim.parallel`; ``1`` = serial).
        The verdicts are identical either way -- each fault's first
        detecting test does not depend on any other fault.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        semantics: str = "exact",
        jobs: Optional[int] = None,
    ) -> None:
        if semantics not in ("exact", "cls"):
            raise ValueError("semantics must be 'exact' or 'cls'")
        self.circuit = circuit
        self.semantics = semantics
        self.jobs = jobs

    def _detects(
        self,
        fault: StuckAtFault,
        test: Sequence[Sequence[bool]],
        good: Optional[Sequence[Sequence[T]]] = None,
    ) -> bool:
        if self.semantics == "exact":
            return detects_exact(self.circuit, fault, test, good=good).detected
        return detects_cls(self.circuit, fault, test, good=good).detected

    def run_test_set(
        self,
        tests: Sequence[Sequence[Sequence[bool]]],
        faults: Optional[Sequence[StuckAtFault]] = None,
    ) -> Dict[StuckAtFault, Optional[int]]:
        """Map each fault to the index of the first detecting test
        (``None`` if the whole set misses it).  Detected faults are
        dropped from later tests (classical fault dropping).

        With ``jobs > 1`` the fault list is sharded across worker
        processes; the fault-free reference outputs are computed once
        here and shipped to every worker, and per-fault dropping (stop
        at the first detecting test) happens inside each shard.  The
        returned map is identical to the serial one.
        """
        fault_list = list(faults) if faults is not None else list(enumerate_faults(self.circuit))
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.fault.faults"] = (
                counters.get("sim.fault.faults", 0) + len(fault_list)
            )
            counters["sim.fault.tests"] = counters.get("sim.fault.tests", 0) + len(tests)
        jobs = resolve_jobs(self.jobs)
        if jobs > 1 and len(fault_list) > 1:
            frozen_tests = tuple(tuple(tuple(v) for v in test) for test in tests)
            goods = tuple(
                good_outputs(self.circuit, test, semantics=self.semantics)
                for test in frozen_tests
            )
            payload: GradingPayload = (self.circuit, frozen_tests, goods, self.semantics)
            with _span("sim.fault.grade"):
                first = run_sharded(
                    _first_detecting_index,
                    payload,
                    fault_list,
                    jobs=jobs,
                    label="fault-grading",
                )
            if _TRACE.enabled:
                _TRACE.incr(
                    "sim.fault.detected", sum(1 for v in first if v is not None)
                )
            return dict(zip(fault_list, first))
        verdicts: Dict[StuckAtFault, Optional[int]] = {f: None for f in fault_list}
        remaining = list(fault_list)
        with _span("sim.fault.grade"):
            for index, test in enumerate(tests):
                good = good_outputs(self.circuit, test, semantics=self.semantics)
                still: List[StuckAtFault] = []
                for fault in remaining:
                    if self._detects(fault, test, good):
                        verdicts[fault] = index
                    else:
                        still.append(fault)
                remaining = still
                if not remaining:
                    break
        if _TRACE.enabled:
            _TRACE.incr(
                "sim.fault.detected",
                sum(1 for v in verdicts.values() if v is not None),
            )
        return verdicts

    def coverage(
        self,
        tests: Sequence[Sequence[Sequence[bool]]],
        faults: Optional[Sequence[StuckAtFault]] = None,
    ) -> float:
        """Fraction of faults detected by the test set."""
        verdicts = self.run_test_set(tests, faults)
        if not verdicts:
            return 1.0
        detected = sum(1 for v in verdicts.values() if v is not None)
        return detected / float(len(verdicts))
