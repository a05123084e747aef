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

* a parallel-fault grader for whole test sets, with fault dropping:
  before each test the faults still undetected are packed into the
  lanes of one forced sweep of the compiled program
  (:meth:`~repro.sim.compiled.CompiledCircuit.binary_forcing`).  Under
  CLS a lane carries one fault from the all-X state; under exact
  semantics a fault owns a block of ``2**n`` lanes, one per power-up
  state.  A fault's verdict (the index of the first detecting test)
  equals what :func:`detects_exact` / :func:`detects_cls` report for it
  alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.ternary import ONE, T, ZERO, is_definite, to_ternary
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .compiled import (
    CompiledCircuit,
    check_width,
    compile_circuit,
    exhaustive_state_masks,
)
from .exact import ExactSimulator
from .ternary_sim import TernarySimulator

__all__ = [
    "StuckAtFault",
    "enumerate_faults",
    "faulty_overrides",
    "good_outputs",
    "detects_exact",
    "detects_cls",
    "detection_time",
    "FaultSimulator",
    "PACK_LANES",
    "TestEvaluation",
    "first_detections",
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


#: Lanes per packed sweep.  A CLS pack gives each fault one lane; an
#: exact pack gives each fault a block of ``2**n`` power-up lanes and
#: holds at least one fault, however wide its block.  8192 lanes keep a
#: net's mask near 1 KiB; 65536-lane packs measured several MB more peak
#: memory on faultsim for no gain in speed.
PACK_LANES = 8192


def _slot_any(mask: int, width: int) -> int:
    """Fold each *width*-lane block onto its lowest lane: afterwards bit
    ``k * width`` is set iff some lane of block ``k`` was (*width* is a
    power of two; the other bits are left over)."""
    shift = 1
    while shift < width:
        mask |= mask >> shift
        shift <<= 1
    return mask


def _pack_detections(
    compiled: CompiledCircuit,
    semantics: str,
    width: int,
    test: Sequence[Sequence[bool]],
    good: Sequence[Sequence[T]],
    faults: Sequence[Tuple[int, bool]],
) -> int:
    """One forced sweep of *test* with ``faults[k] = (net id, value)``
    in slot ``k`` of *width* lanes (1 under CLS, ``2**n`` under exact
    semantics).  Returns bit ``k * width`` set for every slot whose
    outputs contradict a definite fault-free value."""
    block = (1 << width) - 1
    lows = ((1 << (width * len(faults))) - 1) // block  # lane 0 of every slot
    M = block * lows
    stuck: Dict[int, Tuple[int, int]] = {}
    for k, (net, value) in enumerate(faults):
        lanes = block << (k * width)
        zeros, ones = stuck.get(net, (0, 0))
        stuck[net] = (zeros, ones | lanes) if value else (zeros | lanes, ones)
    caught = 0
    if semantics == "exact":
        forcing = compiled.binary_forcing(stuck)
        state = [mask * lows for mask in exhaustive_state_masks(compiled.num_latches)]
        for vector, good_vec in zip(test, good):
            outs, state = compiled.step_binary_masks(
                state, [M if bit else 0 for bit in vector], M, forcing
            )
            for mask, g in zip(outs, good_vec):
                if g is ONE:  # detected where every power-up state gives 0
                    caught |= ~_slot_any(mask, width)
                elif g is ZERO:
                    caught |= ~_slot_any(M ^ mask, width)
        if _TRACE.enabled:
            _TRACE.incr("sim.exact.sweeps")
            _TRACE.incr("sim.exact.lanes", M.bit_length())
            _TRACE.incr("sim.exact.cycles", len(test))
    else:
        forcing = compiled.ternary_forcing(stuck)
        state = [(M, M)] * compiled.num_latches  # all-X power-up
        for vector, good_vec in zip(test, good):
            rails = []
            for value in vector:
                t = to_ternary(value)
                rails.append((0 if t is ONE else M, 0 if t is ZERO else M))
            outs, state = compiled.step_ternary_masks(state, rails, M, forcing)
            for (can0, can1), g in zip(outs, good_vec):
                if g is ZERO:  # detected where the faulty output is a definite 1
                    caught |= can1 & ~can0
                elif g is ONE:
                    caught |= can0 & ~can1
    return caught & lows


def first_detections(
    circuit: Circuit,
    tests: Sequence[Sequence[Sequence[bool]]],
    faults: Sequence[StuckAtFault],
    *,
    semantics: str,
) -> List[Optional[int]]:
    """Index of the first test in *tests* that detects each fault of
    *faults*, in order (``None`` if none does), with fault dropping.

    Before each test the faults not yet detected are packed into lanes
    (at most :data:`PACK_LANES` a sweep) of the forced compiled program,
    and read off against one fault-free run; each fault's verdict is the
    one :func:`detects_exact` / :func:`detects_cls` give it alone.
    Every fault net and test width is checked before any simulation.
    """
    if semantics not in ("exact", "cls"):
        raise ValueError("semantics must be 'exact' or 'cls', not %r" % semantics)
    compiled = compile_circuit(circuit)
    slots = [(compiled.net_id(fault.net), fault.value) for fault in faults]
    frozen = [tuple(tuple(vector) for vector in test) for test in tests]
    for test in frozen:
        for vector in test:
            check_width(compiled, vector)
    width = 1 << compiled.num_latches if semantics == "exact" else 1
    per_pack = max(1, PACK_LANES // width)
    first: List[Optional[int]] = [None] * len(slots)
    remaining = list(range(len(slots)))
    for index, test in enumerate(frozen):
        if not remaining:
            break
        good = good_outputs(circuit, test, semantics=semantics)
        if _TRACE.enabled:
            _TRACE.incr("sim.fault.evals", len(remaining))
        for start in range(0, len(remaining), per_pack):
            if _TRACE.enabled:
                _TRACE.incr("sim.fault.packs")
            pack = remaining[start : start + per_pack]
            caught = _pack_detections(
                compiled, semantics, width, test, good, [slots[pos] for pos in pack]
            )
            for k, pos in enumerate(pack):
                if caught >> (k * width) & 1:
                    first[pos] = index
        remaining = [pos for pos in remaining if first[pos] is None]
    return first


class FaultSimulator:
    """Evaluate test sets against fault lists, with fault dropping.

    Parameters
    ----------
    circuit:
        Fault-free reference circuit.
    semantics:
        ``"exact"`` (power-up sweep) or ``"cls"`` (conservative
        three-valued, all-X start).
    """

    def __init__(self, circuit: Circuit, *, semantics: str = "exact") -> None:
        if semantics not in ("exact", "cls"):
            raise ValueError("semantics must be 'exact' or 'cls'")
        self.circuit = circuit
        self.semantics = semantics

    def run_test_set(
        self,
        tests: Sequence[Sequence[Sequence[bool]]],
        faults: Optional[Sequence[StuckAtFault]] = None,
    ) -> Dict[StuckAtFault, Optional[int]]:
        """Map each fault to the index of the first detecting test
        (``None`` if the whole set misses it).  Detected faults are
        dropped from later tests (classical fault dropping); see
        :func:`first_detections`.
        """
        fault_list = list(faults) if faults is not None else list(enumerate_faults(self.circuit))
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.fault.faults"] = (
                counters.get("sim.fault.faults", 0) + len(fault_list)
            )
            counters["sim.fault.tests"] = counters.get("sim.fault.tests", 0) + len(tests)
        with _span("sim.fault.grade"):
            first = first_detections(
                self.circuit, tests, fault_list, semantics=self.semantics
            )
        verdicts = dict(zip(fault_list, first))
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
