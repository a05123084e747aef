"""End-to-end retiming validity checking -- the paper, executable.

This module ties the whole library together.  Given an original design
D and a retiming (a move sequence or a lag assignment), it verifies the
paper's claims on the concrete pair:

* **Corollary 4.4**: no hazardous moves  ==>  ``C ⊑ D`` (hence safe
  replacement, Proposition 3.1);
* **Theorem 4.5**: at most k net forward crossings of any
  non-justifiable element  ==>  ``C^k ⊑ D``;
* **Corollary 5.3**: regardless of hazard, the conservative
  three-valued simulator started all-X produces identical output
  sequences for C and D on every input sequence (checked on supplied or
  randomly sampled ternary sequences).

Implication checks run either on explicit STGs (small state spaces) or
through the symbolic BDD engine of
:mod:`repro.stg.symbolic_replaceability` (``engine="symbolic"``, or
``"auto"`` above the latch threshold); CLS invariance checks are pure
simulation and scale to any circuit the simulators handle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from ..sim.ternary_multi import BatchedTernarySimulator
from ..stg.delayed import delay_needed_for_implication, delayed_implies
from ..stg.equivalence import implies
from ..stg.explicit import extract_stg
from ..stg.replaceability import SearchBudgetExceeded, is_safe_replacement
from .engine import RetimingSession

__all__ = [
    "random_ternary_sequences",
    "cls_equivalent",
    "first_cls_difference",
    "first_difference",
    "ValidityReport",
    "check_retiming_validity",
]


def random_ternary_sequences(
    num_inputs: int,
    *,
    count: int = 20,
    length: int = 12,
    seed: int = 0,
    x_bias: float = 0.25,
) -> Tuple[Tuple[Tuple[T, ...], ...], ...]:
    """Random three-valued input sequences for invariance checking.

    ``x_bias`` is the probability of an X at each position; the rest is
    split evenly between 0 and 1.
    """
    rng = random.Random(seed)
    sequences: List[Tuple[Tuple[T, ...], ...]] = []
    for _ in range(count):
        seq: List[Tuple[T, ...]] = []
        for _ in range(length):
            vector = tuple(
                X if rng.random() < x_bias else (ONE if rng.random() < 0.5 else ZERO)
                for _ in range(num_inputs)
            )
            seq.append(vector)
        sequences.append(tuple(seq))
    return tuple(sequences)


def cls_equivalent(
    original: Circuit,
    retimed: Circuit,
    sequences: Optional[Sequence[Sequence[Sequence[T]]]] = None,
    **kwargs,
) -> bool:
    """Check Corollary 5.3 on concrete sequences (default: random).

    Extra keyword arguments are forwarded to
    :func:`random_ternary_sequences`.
    """
    return first_cls_difference(original, retimed, sequences, **kwargs) is None


def first_difference(outs_a, outs_b) -> Optional[Tuple[int, int]]:
    """The first ``(sequence index, cycle)`` at which two batches of
    per-sequence output traces differ, or ``None`` if none does.

    ``outs_a[i][t]`` is the output vector of sequence *i* at cycle *t*.
    """
    for index, (trace_a, trace_b) in enumerate(zip(outs_a, outs_b)):
        for cycle, (va, vb) in enumerate(zip(trace_a, trace_b)):
            if va != vb:
                return index, cycle
    return None


def _cls_sweep(circuit: Circuit, sequences) -> List[List[Tuple[T, ...]]]:
    """CLS outputs of every sequence from all-X, in input order.

    Sequences of equal length share one batched dual-rail pass; a
    ragged batch costs one pass per distinct length.
    """
    by_length: Dict[int, List[int]] = {}
    for index, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(index)
    simulator = BatchedTernarySimulator(circuit)
    outs: List[List[Tuple[T, ...]]] = [[] for _ in sequences]
    for indices in by_length.values():
        batch = simulator.run_sequences([sequences[i] for i in indices])
        for index, trace in zip(indices, batch):
            outs[index] = trace
    return outs


def first_cls_difference(
    original: Circuit,
    retimed: Circuit,
    sequences: Optional[Sequence[Sequence[Sequence[T]]]] = None,
    **kwargs,
) -> Optional[Tuple[int, int]]:
    """The first (sequence index, cycle) where CLS outputs differ, or
    ``None`` when all checked sequences agree.

    Every sequence runs through the batched dual-rail simulator (one
    compiled lane-mask pass per cycle for all sequences of one length).
    """
    if sequences is None:
        sequences = random_ternary_sequences(len(original.inputs), **kwargs)
    sequences = list(sequences)
    if not sequences:
        return None
    if _TRACE.enabled:
        _TRACE.incr("retime.validity.cls_checks")
        _TRACE.incr("retime.validity.cls_sequences", len(sequences))
    return first_difference(
        _cls_sweep(original, sequences), _cls_sweep(retimed, sequences)
    )


@dataclass(frozen=True)
class ValidityReport:
    """Everything the paper's theorems say about one retiming session.

    Attributes
    ----------
    hazardous_moves:
        Count of kind-(iv) moves (forward across non-justifiable).
    theorem45_k:
        The delay bound k from the move accounting.
    implication_holds:
        ``C ⊑ D`` (None when STGs were too large to build).
    safe_replacement_holds:
        ``C ≼ D`` (None likewise).
    delayed_implication_holds:
        ``C^k ⊑ D`` for the computed k (None likewise).
    min_delay:
        The least n with ``C^n ⊑ D`` (None if skipped/not found).
    cls_invariant:
        Corollary 5.3 verified on the sampled input sequences.
    """

    hazardous_moves: int
    theorem45_k: int
    implication_holds: Optional[bool]
    safe_replacement_holds: Optional[bool]
    delayed_implication_holds: Optional[bool]
    min_delay: Optional[int]
    cls_invariant: bool

    def consistent_with_paper(self) -> bool:
        """Do the observations match the theorems?

        - Corollary 5.3 must always hold.
        - If no hazardous move was made, implication (and hence safe
          replacement) must hold.
        - Delayed implication at k must hold whenever checked.
        """
        if not self.cls_invariant:
            return False
        if self.hazardous_moves == 0:
            for verdict in (self.implication_holds, self.safe_replacement_holds):
                if verdict is False:
                    return False
        if self.delayed_implication_holds is False:
            return False
        if self.min_delay is not None and self.min_delay > self.theorem45_k:
            return False
        return True


def check_retiming_validity(
    session: RetimingSession,
    *,
    check_stg: bool = True,
    max_stg_bits: int = 16,
    sequences: Optional[Sequence[Sequence[Sequence[T]]]] = None,
    seed: int = 0,
    engine: Optional[str] = None,
    reorder: Optional[str] = None,
) -> ValidityReport:
    """Run the full battery of paper checks on a retiming session.

    ``engine`` selects the containment engine (``"explicit"``,
    ``"symbolic"``, ``"sat"`` or ``"auto"``; ``None`` = process
    default).  The symbolic and SAT engines have no ``max_stg_bits``
    gate -- that gate exists precisely because STG enumeration is
    exponential, which BDD fixpoints and CNF unrolling avoid.  SAT
    verdicts that exhaust their budgets are reported as ``None``, the
    same "could not decide" the explicit engine uses for oversized
    STGs.

    ``reorder`` sets the symbolic engine's dynamic-variable-reordering
    mode (``"off"``, ``"auto"`` or ``"manual"``; ``None`` = process
    default, see ``--reorder``).  Verdicts are identical in every mode;
    only BDD sizes and wall time differ.
    """
    from ..stg.symbolic_replaceability import (
        SymbolicContainmentChecker,
        resolve_engine,
    )

    original, retimed = session.original, session.current
    k = session.theorem45_k
    if _TRACE.enabled:
        _TRACE.incr("retime.validity.reports")

    implication = safe = delayed = None
    min_delay = None
    bits = max(
        original.num_latches + len(original.inputs),
        retimed.num_latches + len(retimed.inputs),
    )
    resolved = resolve_engine(engine, original, retimed)
    with _span("retime.validity"):
        if check_stg and resolved == "symbolic":
            checker = SymbolicContainmentChecker(retimed, original, reorder=reorder)
            implication = checker.implies()
            try:
                safe = checker.is_safe_replacement()
            except SearchBudgetExceeded:
                safe = None
            delayed = checker.delayed_implies(k)
            min_delay = checker.delay_needed()
        elif check_stg and resolved == "sat":
            from ..sat import (
                sat_delay_needed,
                sat_delayed_implies,
                sat_implies,
                sat_is_safe_replacement,
            )

            # Every SAT verdict is definitive or budget-exhausted; the
            # latter degrades to None, never to a guess.  When plain
            # implication holds, the rest follows without further
            # solving: C ⊑ D ⇒ C ≼ D (Prop 3.1), Cᵏ ⊑ D for all k
            # (the delayed chain shrinks) and min_delay = 0.
            try:
                implication = sat_implies(retimed, original)
            except SearchBudgetExceeded:
                implication = None
            if implication:
                safe, delayed, min_delay = True, True, 0
            else:
                try:
                    safe = sat_is_safe_replacement(retimed, original)
                except SearchBudgetExceeded:
                    safe = None
                try:
                    delayed = sat_delayed_implies(retimed, original, k)
                except SearchBudgetExceeded:
                    delayed = None
                try:
                    min_delay = sat_delay_needed(retimed, original)
                except SearchBudgetExceeded:
                    min_delay = None
        elif check_stg and bits <= max_stg_bits:
            d_stg = extract_stg(original)
            c_stg = extract_stg(retimed)
            implication = implies(c_stg, d_stg)
            try:
                safe = is_safe_replacement(c_stg, d_stg)
            except SearchBudgetExceeded:
                safe = None
            delayed = delayed_implies(c_stg, d_stg, k)
            min_delay = delay_needed_for_implication(c_stg, d_stg)

        invariant = cls_equivalent(original, retimed, sequences, seed=seed)
    return ValidityReport(
        hazardous_moves=session.hazardous_move_count,
        theorem45_k=k,
        implication_holds=implication,
        safe_replacement_holds=safe,
        delayed_implication_holds=delayed,
        min_delay=min_delay,
        cls_invariant=invariant,
    )
