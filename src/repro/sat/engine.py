"""The bounded-containment driver: paper verdicts out of miters + CDCL.

Each check unrolls a miter to growing depths and stops at a
satisfiable one or at a *completeness bound* -- a frame count at which
UNSAT proves the property outright.  ``≼`` and CLS witnesses have
**minimal length**, the same guarantee the explicit BFS and the symbolic
frontier chain give:

* ``Cᵏ ⊑ D`` (:func:`check_implication`): state equivalence of machines
  with ``N_C`` / ``N_D`` states is settled by input words of length
  ``N_C + N_D - 1`` (joint partition refinement stabilizes in fewer
  splits than there are states), so UNSAT there is a **proof**.
* ``C ≼ D`` (:func:`check_safe_replacement`): the subset-machine walk
  revisits a ``(c_state, matcher set)`` pair within
  ``N_C * 2**N_D`` steps, so violations longer than that cannot be
  minimal.  That bound is exponential, so the driver first tries the
  Prop 3.1 shortcut (``C ⊑ D ⇒ C ≼ D`` -- and the implication bound is
  merely linear in states); pairs that are safe but *not* contained are
  the only ones that need the full unroll.
* CLS difference (:func:`check_cls_equivalence`): the product of the
  two three-valued machines has at most ``3**(n_c+n_d)`` states
  reachable from all-X, bounding the first differing cycle.  The miter
  asserts a difference at *any* of its frames, so satisfiability is
  monotone in depth: the check solves at depths 1, 2 and its frame cap
  only, and bisects a satisfiable depth down to the least one.

A check either returns a definitive :class:`SatResult` or raises
:class:`~repro.stg.replaceability.SearchBudgetExceeded` -- the SAT
engine never guesses, which is what lets :func:`repro.decide.decide`
treat its answers exactly like the other two engines' and turn
exhaustion into an undecided verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..logic.ternary import ONE, T, ZERO
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from ..stg.replaceability import SafeReplacementViolation, SearchBudgetExceeded
from .miter import CLSMiter, ImplicationMiter, SafeReplacementMiter, _MiterBase
from .solver import Solver
from .witness import ImplicationPair, WitnessTrace

__all__ = [
    "SAT_CONFLICT_LIMIT",
    "SAT_FRAME_LIMIT",
    "SatResult",
    "check_cls_equivalence",
    "check_implication",
    "check_safe_replacement",
    "sat_delay_needed",
]

#: Default cap on unrolled frames per check (over all deepening steps the
#: *deepest* miter built, not the sum).
SAT_FRAME_LIMIT = 64

#: Default total conflict budget per check, shared across every solver
#: call the deepening loop makes.
SAT_CONFLICT_LIMIT = 200000

#: Frames to hunt for short ``≼`` violations before trying the
#: (possibly more expensive) Prop 3.1 implication shortcut.  Each
#: probed depth that finds nothing is an UNSAT proof the solver must
#: finish, so the probe is shallow; real violations are overwhelmingly
#: short (the explicit engine's BFS depths on the paper and random
#: pairs are 1-3).
_PROBE_FRAMES = 3


class _Budget:
    """Total-conflict budget threaded through a deepening loop."""

    def __init__(self, max_conflicts: Optional[int]) -> None:
        self.max_conflicts = max_conflicts
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0
        self.solves = 0

    def remaining(self) -> Optional[int]:
        if self.max_conflicts is None:
            return None
        left = self.max_conflicts - self.conflicts
        if left <= 0:
            raise SearchBudgetExceeded(
                "SAT search exceeded %d conflicts" % self.max_conflicts
            )
        return left

    def absorb(self, solver: Solver) -> None:
        stats = solver.stats
        self.conflicts += stats.conflicts
        self.decisions += stats.decisions
        self.propagations += stats.propagations
        self.learned += stats.learned
        self.restarts += stats.restarts
        self.solves += 1

    def publish(self) -> None:
        if not _TRACE.enabled:
            return
        for name in ("conflicts", "decisions", "propagations", "learned", "restarts", "solves"):
            value = getattr(self, name)
            if value:
                _TRACE.incr("sat.%s" % name, value)


@dataclass
class SatResult:
    """A definitive verdict plus everything a certificate needs.

    ``holds`` answers the positive property of ``kind`` (``C ≼ D``,
    ``Cᵏ ⊑ D``, CLS equivalence).  ``method`` records how it was
    decided: ``"unrolled"`` (a satisfiable miter -- see ``witness``),
    ``"complete-bound"`` (UNSAT at the completeness depth) or
    ``"implication-shortcut"`` (Prop 3.1).  ``miter`` is the deciding
    miter -- the satisfiable one for violations, the deepest UNSAT one
    for proofs -- and is what :mod:`repro.sat.certificates` exports.
    """

    kind: str
    holds: bool
    frames: int
    method: str
    k: int = 0
    violation: Optional[SafeReplacementViolation] = None
    witness: Optional[WitnessTrace] = None
    miter: Optional[_MiterBase] = None
    model: Optional[Dict[int, bool]] = None
    stats: Dict[str, int] = field(default_factory=dict)


def _bits_to_vector(bits: Iterable[bool]) -> Tuple[T, ...]:
    return tuple(ONE if bit else ZERO for bit in bits)


def _solve(miter: _MiterBase, budget: _Budget) -> Optional[Dict[int, bool]]:
    remaining = budget.remaining()
    solver = Solver(
        miter.cnf.num_vars, miter.cnf.clauses, max_conflicts=remaining
    )
    if _TRACE.enabled:
        _TRACE.incr("sat.vars", miter.cnf.num_vars)
        _TRACE.incr("sat.clauses", len(miter.cnf.clauses))
    try:
        return solver.solve()
    finally:
        budget.absorb(solver)


def _finish(result: SatResult, budget: _Budget) -> SatResult:
    result.stats = {
        "solves": budget.solves,
        "conflicts": budget.conflicts,
        "decisions": budget.decisions,
        "propagations": budget.propagations,
        "learned": budget.learned,
        "restarts": budget.restarts,
    }
    budget.publish()
    if _TRACE.enabled:
        _TRACE.incr("sat.checks")
        _TRACE.incr("sat.frames", result.frames)
        if not result.holds:
            _TRACE.incr("sat.violations")
    return result


def _deepening_schedule(limit: int) -> List[int]:
    """1, 2, *limit* (those of them within 1..*limit*): shallow probes
    for quick refutations, then the completeness depth.

    Intermediate depths -- each an UNSAT proof the solver must complete
    when the property holds -- are pure overhead beyond a cheap probe
    for the common shallow-counterexample case.  Implication
    refutations need no minimal-length guarantee (each per-D-state
    experiment is independent); the CLS check bisects a satisfiable
    depth for its minimal witness.
    """
    return sorted({depth for depth in (1, 2, limit) if depth <= limit})


# ---------------------------------------------------------------------------
# Implication  Cᵏ ⊑ D.
# ---------------------------------------------------------------------------


def _implication_bound(c: Circuit, d: Circuit) -> int:
    return (1 << c.num_latches) + (1 << d.num_latches) - 1


def check_implication(
    c: Circuit,
    d: Circuit,
    *,
    k: int = 0,
    max_frames: Optional[int] = None,
    max_conflicts: Optional[int] = SAT_CONFLICT_LIMIT,
    _budget: Optional[_Budget] = None,
) -> SatResult:
    """Decide the paper's ``Cᵏ ⊑ D`` (``k=0``: plain implication).

    Deepens the distinguisher length on a doubling schedule; a model at
    any depth refutes, UNSAT at ``N_C + N_D - 1`` proves.  Raises
    :class:`SearchBudgetExceeded` when ``max_frames`` stops the loop
    short of that bound without finding a refutation.
    """
    budget = _budget if _budget is not None else _Budget(max_conflicts)
    bound = _implication_bound(c, d)
    cap = max_frames if max_frames is not None else max(SAT_FRAME_LIMIT, bound)
    limit = min(bound, cap)
    with _span("stg.sat.implication"):
        miter: Optional[ImplicationMiter] = None
        for depth in _deepening_schedule(limit):
            miter = ImplicationMiter(c, d, depth, warmup=k)
            model = _solve(miter, budget)
            if model is not None:
                c_init, _c0, raw_pairs = miter.decode(model)
                warmup_inputs = tuple(
                    _bits_to_vector(miter._decode_bits(model, vars_))
                    for vars_ in miter.warmup_input_vars
                )
                pairs = tuple(
                    ImplicationPair(
                        d_state=entry["d_state"],
                        inputs=tuple(_bits_to_vector(v) for v in entry["inputs"]),
                        c_outputs=tuple(
                            _bits_to_vector(v) for v in entry["c_outputs"]
                        ),
                        d_outputs=tuple(
                            _bits_to_vector(v) for v in entry["d_outputs"]
                        ),
                    )
                    for entry in raw_pairs
                )
                witness = WitnessTrace(
                    kind="implication",
                    c_name=c.name,
                    d_name=d.name,
                    frames=depth,
                    c_state=c_init,
                    inputs=warmup_inputs,
                    pairs=pairs,
                )
                return _finish(
                    SatResult(
                        kind="implication",
                        holds=False,
                        frames=depth,
                        method="unrolled",
                        k=k,
                        witness=witness,
                        miter=miter,
                        model=model,
                    ),
                    budget,
                )
        if limit >= bound:
            return _finish(
                SatResult(
                    kind="implication",
                    holds=True,
                    frames=limit,
                    method="complete-bound",
                    k=k,
                    miter=miter,
                ),
                budget,
            )
    raise SearchBudgetExceeded(
        "implication undecided within %d frames (complete at %d)" % (limit, bound)
    )


# ---------------------------------------------------------------------------
# Safe replacement  C ≼ D.
# ---------------------------------------------------------------------------


def _safe_replacement_bound(c: Circuit, d: Circuit) -> Optional[int]:
    """Frames at which UNSAT proves ``C ≼ D``, or None when it is too
    large to ever unroll (the subset space is doubly exponential)."""
    if d.num_latches > 5:
        return None
    return (1 << c.num_latches) * (1 << (1 << d.num_latches))


def check_safe_replacement(
    c: Circuit,
    d: Circuit,
    *,
    max_frames: Optional[int] = None,
    max_conflicts: Optional[int] = SAT_CONFLICT_LIMIT,
    use_implication_shortcut: bool = True,
) -> SatResult:
    """Decide the paper's ``C ≼ D`` with minimal-length witnesses.

    Deepens one frame at a time (so the first model is a
    minimal-length violation, matching the other engines), probing a
    few shallow frames before attempting the Prop 3.1 shortcut for the
    common safe case.
    """
    budget = _Budget(max_conflicts)
    cap = max_frames if max_frames is not None else SAT_FRAME_LIMIT
    bound = _safe_replacement_bound(c, d)
    limit = cap if bound is None else min(cap, bound)
    shortcut_failed = False
    with _span("stg.sat.safe_replacement"):
        for depth in range(1, limit + 1):
            if depth == _PROBE_FRAMES + 1 and use_implication_shortcut:
                # No short violation: try to *prove* safety the cheap way.
                imp = check_implication(c, d, _budget=budget)
                if imp.holds:
                    return _finish(
                        SatResult(
                            kind="safe-replacement",
                            holds=True,
                            frames=imp.frames,
                            method="implication-shortcut",
                            miter=imp.miter,
                        ),
                        budget,
                    )
                shortcut_failed = True
            miter = SafeReplacementMiter(c, d, depth)
            model = _solve(miter, budget)
            if model is not None:
                c_state, symbols, outputs, input_bits, output_bits = miter.decode(
                    model
                )
                violation = SafeReplacementViolation(
                    c_state=c_state,
                    input_symbols=symbols,
                    c_outputs=outputs,
                )
                witness = WitnessTrace(
                    kind="safe-replacement",
                    c_name=c.name,
                    d_name=d.name,
                    frames=depth,
                    c_state=c_state,
                    inputs=tuple(_bits_to_vector(v) for v in input_bits),
                    c_outputs=tuple(_bits_to_vector(v) for v in output_bits),
                )
                return _finish(
                    SatResult(
                        kind="safe-replacement",
                        holds=False,
                        frames=depth,
                        method="unrolled",
                        violation=violation,
                        witness=witness,
                        miter=miter,
                        model=model,
                    ),
                    budget,
                )
        if bound is not None and limit >= bound:
            return _finish(
                SatResult(
                    kind="safe-replacement",
                    holds=True,
                    frames=limit,
                    method="complete-bound",
                    miter=miter,
                ),
                budget,
            )
        if use_implication_shortcut and not shortcut_failed and limit <= _PROBE_FRAMES:
            # The frame cap ended the loop before the shortcut fired.
            imp = check_implication(c, d, _budget=budget)
            if imp.holds:
                return _finish(
                    SatResult(
                        kind="safe-replacement",
                        holds=True,
                        frames=imp.frames,
                        method="implication-shortcut",
                        miter=imp.miter,
                    ),
                    budget,
                )
    raise SearchBudgetExceeded(
        "safe replacement undecided within %d frames (complete at %s)"
        % (limit, "unreachable" if bound is None else bound)
    )


# ---------------------------------------------------------------------------
# CLS equivalence (bounded).
# ---------------------------------------------------------------------------


def check_cls_equivalence(
    c: Circuit,
    d: Circuit,
    *,
    max_frames: Optional[int] = None,
    max_conflicts: Optional[int] = SAT_CONFLICT_LIMIT,
) -> SatResult:
    """Hunt for a ternary word on which the all-X CLS traces differ.

    The dual-rail encoding carries the Xs natively; a model decodes to
    a replayable **ternary** input trace with the first differing cycle
    at its final frame.  UNSAT at ``3**(n_c+n_d)`` frames (every
    reachable pair of three-valued states revisited) proves CLS
    equivalence -- the bounded twin of
    :func:`repro.stg.ternary_equiv.decide_cls_equivalence`.
    """
    budget = _Budget(max_conflicts)
    bound = 3 ** (c.num_latches + d.num_latches)
    cap = max_frames if max_frames is not None else SAT_FRAME_LIMIT
    limit = min(cap, bound)
    with _span("stg.sat.cls"):
        miter: Optional[CLSMiter] = None
        model: Optional[Dict[int, bool]] = None
        unsat = 0  # the deepest depth proved UNSAT
        for depth in _deepening_schedule(limit):
            miter = CLSMiter(c, d, depth)
            model = _solve(miter, budget)
            if model is not None:
                break
            unsat = depth
        if model is not None:
            # Bisect down to the least satisfiable depth, whose model is
            # the one a frame-by-frame walk would have stopped on.
            while miter.frames - unsat > 1:
                probe = CLSMiter(c, d, (unsat + miter.frames) // 2)
                probe_model = _solve(probe, budget)
                if probe_model is None:
                    unsat = probe.frames
                else:
                    miter, model = probe, probe_model
            inputs, c_outputs, d_outputs, _first = miter.decode(model)
            witness = WitnessTrace(
                kind="cls",
                c_name=c.name,
                d_name=d.name,
                frames=miter.frames,
                c_state=None,
                inputs=tuple(inputs),
                c_outputs=tuple(c_outputs),
                d_outputs=tuple(d_outputs),
            )
            return _finish(
                SatResult(
                    kind="cls",
                    holds=False,
                    frames=miter.frames,
                    method="unrolled",
                    witness=witness,
                    miter=miter,
                    model=model,
                ),
                budget,
            )
        if limit >= bound:
            return _finish(
                SatResult(
                    kind="cls",
                    holds=True,
                    frames=limit,
                    method="complete-bound",
                    miter=miter,
                ),
                budget,
            )
    raise SearchBudgetExceeded(
        "CLS equivalence undecided within %d frames (complete at %d)" % (limit, bound)
    )


# ---------------------------------------------------------------------------
# The least delay  min { n : Cⁿ ⊑ D }.
# ---------------------------------------------------------------------------


def sat_delay_needed(
    c: Circuit,
    d: Circuit,
    *,
    max_cycles: Optional[int] = None,
    **kwargs,
) -> Optional[int]:
    """The least n with ``Cⁿ ⊑ D``, or None when no delay ever works.

    ``Cⁿ ⊑ D`` is monotone in n (the delayed image chain shrinks), and
    the chain stabilizes within ``2**latches(C)`` steps, so checking the
    stabilized depth settles the None case and a binary search finds
    the least n with O(log) implication checks.  ``n = 0`` is probed
    first: valid retimings (no hazardous moves) satisfy plain
    implication, making one check the common total cost.
    """
    if check_implication(c, d, k=0, **kwargs).holds:
        return 0
    ceiling = 1 << c.num_latches
    if max_cycles is not None:
        ceiling = min(ceiling, max_cycles)
    if ceiling <= 0:
        return None
    if not check_implication(c, d, k=ceiling, **kwargs).holds:
        return None
    low, high = 1, ceiling
    while low < high:
        mid = (low + high) // 2
        if check_implication(c, d, k=mid, **kwargs).holds:
            high = mid
        else:
            low = mid + 1
    return low
