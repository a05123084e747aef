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
  randomly sampled ternary sequences) -- provided every crossed cell
  maps all-X inputs to all-X outputs, Theorem 5.1's premise, which a
  constant cell breaks.

The containment questions go through :func:`repro.decide.decide` with
the session as evidence, so ``auto`` first tries the move certificate
(:mod:`repro.stg.certificate`) and otherwise picks an engine; a blown
budget or an oversized STG is undecided -- ``None`` in the report.
CLS invariance checks are pure simulation and scale to any circuit the
simulators handle: :func:`first_cls_difference` steps both circuits'
compiled dual-rail programs in lock-step, one lane per sequence, and
compares the output rails without decoding a lane.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..decide import decide
from ..logic.ternary import ONE, T, TernaryLike, X, ZERO, to_ternary
from ..netlist.circuit import Circuit
from ..netlist.validate import check_interfaces
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from ..sim.compiled import CompiledCircuit, check_width, compile_circuit
from .engine import RetimingSession

__all__ = [
    "random_ternary_sequences",
    "cls_equivalent",
    "first_cls_difference",
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


def _input_rails(
    compiled: CompiledCircuit, vectors: Sequence[Sequence[TernaryLike]]
) -> List[Tuple[int, int]]:
    """The ``(can0, can1)`` rail masks of each input pin, lane *k*
    carrying ``vectors[k]``; values are read as :func:`to_ternary`
    reads them, and a vector of the wrong width is a ``ValueError``."""
    can0 = [0] * compiled.num_inputs
    can1 = [0] * compiled.num_inputs
    lane = 1
    for vector in vectors:
        check_width(compiled, vector)
        for pin, value in enumerate(vector):
            value = to_ternary(value)
            if value is not ONE:
                can0[pin] |= lane
            if value is not ZERO:
                can1[pin] |= lane
        lane <<= 1
    return list(zip(can0, can1))


def first_cls_difference(
    original: Circuit,
    retimed: Circuit,
    sequences: Optional[Sequence[Sequence[Sequence[T]]]] = None,
    **kwargs,
) -> Optional[Tuple[int, int]]:
    """The first (sequence index, cycle) where CLS outputs differ, or
    ``None`` when all checked sequences agree.

    "First" is the lowest differing sequence index, then that
    sequence's first differing cycle.  Sequences of one length run as
    the lanes of one dual-rail sweep from all-X: each cycle packs their
    vectors into input rails once and steps both circuits' compiled
    programs, and a lane differs where some output rail does.  Raises
    :class:`ValueError` when the circuits' interfaces differ or a
    vector's width is not the input count.
    """
    check_interfaces(original, retimed)
    if sequences is None:
        sequences = random_ternary_sequences(len(original.inputs), **kwargs)
    sequences = list(sequences)
    if not sequences:
        return None
    if _TRACE.enabled:
        _TRACE.incr("retime.validity.cls_checks")
        _TRACE.incr("retime.validity.cls_sequences", len(sequences))
    programs = compile_circuit(original), compile_circuit(retimed)
    by_length: Dict[int, List[int]] = {}
    for index, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(index)
    first: Optional[Tuple[int, int]] = None
    for length, indices in by_length.items():
        lanes = (1 << len(indices)) - 1
        states = [[(lanes, lanes)] * p.num_latches for p in programs]  # all-X
        differs = []  # per cycle, the lanes whose outputs differ
        seen = 0
        for cycle in range(length):
            rails = _input_rails(programs[0], [sequences[i][cycle] for i in indices])
            outs_a, states[0] = programs[0].step_ternary_masks(states[0], rails, lanes)
            outs_b, states[1] = programs[1].step_ternary_masks(states[1], rails, lanes)
            diff = 0
            for (a0, a1), (b0, b1) in zip(outs_a, outs_b):
                diff |= (a0 ^ b0) | (a1 ^ b1)
            differs.append(diff)
            seen |= diff
        if seen:
            lowest = seen & -seen  # the group's lowest differing sequence
            cycle = next(t for t, diff in enumerate(differs) if diff & lowest)
            found = (indices[lowest.bit_length() - 1], cycle)
            if first is None or found < first:
                first = found
    return first


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
    cls_premise:
        Theorem 5.1's premise: every cell a move crossed maps all-X
        inputs to all-X outputs (:attr:`CellFunction.all_x_to_all_x`).
    decided_by:
        What decided the containment verdicts: ``"certificate"`` or an
        engine name (None when ``check_stg`` was off).  Provenance, not
        a verdict: reports compare equal without it.
    """

    hazardous_moves: int
    theorem45_k: int
    implication_holds: Optional[bool]
    safe_replacement_holds: Optional[bool]
    delayed_implication_holds: Optional[bool]
    min_delay: Optional[int]
    cls_invariant: bool
    cls_premise: bool
    decided_by: Optional[str] = field(default=None, compare=False)

    def consistent_with_paper(self) -> bool:
        """Do the observations match the theorems?

        - Corollary 5.3 must hold wherever Theorem 5.1's premise does.
        - If no hazardous move was made, implication (and hence safe
          replacement) must hold.
        - Delayed implication at k must hold whenever checked.
        """
        if self.cls_premise and not self.cls_invariant:
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

    The four containment verdicts come from one
    :func:`repro.decide.decide` call, which gets the session as
    evidence: ``engine`` and ``reorder`` are its engine and BDD
    reordering mode (``None``: the process defaults; under ``auto`` the
    move certificate is tried first), and ``max_stg_bits`` its
    explicit-engine gate on ``latches + inputs``.  An undecided verdict
    -- a blown budget, or an STG over the gate -- is reported as
    ``None``, never a guess.
    """
    original, retimed = session.original, session.current
    k = session.theorem45_k
    if _TRACE.enabled:
        _TRACE.incr("retime.validity.reports")

    implication = safe = delayed = least = None
    with _span("retime.validity"):
        if check_stg:
            implication, safe, delayed, least = decide(
                retimed,
                original,
                "implies",
                "safe",
                "delayed",
                "least-delay",
                k=k,
                engine=engine,
                reorder=reorder,
                max_stg_bits=max_stg_bits,
                session=session,
            )
        invariant = cls_equivalent(original, retimed, sequences, seed=seed)
    return ValidityReport(
        hazardous_moves=session.hazardous_move_count,
        theorem45_k=k,
        implication_holds=implication and implication.holds,
        safe_replacement_holds=safe and safe.holds,
        delayed_implication_holds=delayed and delayed.holds,
        min_delay=least and least.least_n,
        cls_invariant=invariant,
        cls_premise=all(
            applied.function.all_x_to_all_x for applied in session.history
        ),
        decided_by=implication and implication.engine,
    )
