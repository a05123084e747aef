"""One decision entry point for the paper's containment relations.

:func:`decide` answers ``C ⊑ D`` (``implies``), ``C ≼ D`` (``safe``),
``Cᵏ ⊑ D`` (``delayed``) and the least n with ``Cⁿ ⊑ D``
(``least-delay``) with one :class:`Verdict` each.  It is the one place
that picks the engine (:func:`resolve_engine`), builds the per-pair
work once, maps ``budget`` onto the engine's own limit and turns a
blown budget or an STG too large to enumerate into *undecided*.  A
proved ``C ⊑ D`` settles the rest of the same call without more engine
work: ``C ≼ D`` (Prop 3.1), every ``Cᵏ ⊑ D`` and a least n of 0, since
the delayed state chain only shrinks.

A caller holding the :class:`~repro.retime.engine.RetimingSession` that
derived C from D passes it as ``session``.  When the engine resolves
from ``auto``, the move certificate (:mod:`repro.stg.certificate`) runs
first: a proof settles every relation through the same rule, with
``engine="certificate"``; a failed certificate decides nothing, and
``auto`` runs its engine as it would have without one.  A named engine
skips the certificate, so ``--engine X`` always measures engine X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from .netlist.circuit import Circuit
from .netlist.validate import check_interfaces
from .stg.delayed import delay_needed_for_implication, delayed_implies
from .stg.equivalence import implies as stg_implies
from .stg.explicit import MAX_STG_BITS, StateSpaceTooLarge, check_stg_size, extract_stg
from .stg.replaceability import (
    SafeReplacementViolation,
    SearchBudgetExceeded,
    find_violation,
)
from .stg.symbolic_replaceability import SymbolicContainmentChecker

if TYPE_CHECKING:  # pragma: no cover
    from .retime.engine import RetimingSession
    from .sat.engine import SatResult

__all__ = [
    "AUTO_SYMBOLIC_LATCH_THRESHOLD",
    "ENGINES",
    "RELATIONS",
    "Verdict",
    "decide",
    "get_default_engine",
    "resolve_engine",
    "set_default_engine",
]

#: The ``--engine`` values.  ``auto`` never picks ``sat``, which is
#: opt-in: it decides with exportable certificates, or answers undecided.
ENGINES = ("explicit", "symbolic", "sat", "auto")

#: ``auto`` switches to the symbolic engine strictly above this many
#: latches (on either machine); below it the tabulated STG is small and
#: the explicit engine is faster to first answer.
AUTO_SYMBOLIC_LATCH_THRESHOLD = 9

RELATIONS = ("implies", "safe", "delayed", "least-delay")

HOLDS, VIOLATED, UNDECIDED = "holds", "violated", "undecided"

_JSON_FIELDS = ("relation", "status", "engine", "reason", "limit", "message", "least_n")

_DEFAULT_ENGINE = "auto"


def get_default_engine() -> str:
    """The process-wide containment engine (``--engine`` default)."""
    return _DEFAULT_ENGINE


def set_default_engine(name: str) -> None:
    """Install the process-wide containment engine default."""
    global _DEFAULT_ENGINE
    _choose(name, None, None)
    _DEFAULT_ENGINE = name


def _choose(
    engine: Optional[str], c: Optional[Circuit], d: Optional[Circuit]
) -> Tuple[str, str]:
    """The concrete engine for the pair, and why it was chosen."""
    name = engine if engine is not None else _DEFAULT_ENGINE
    if name not in ENGINES:
        raise ValueError("unknown engine %r (choose from %s)" % (name, ENGINES))
    if name != "auto":
        return name, "requested"
    latches = max((x.num_latches for x in (c, d) if x is not None), default=0)
    above = latches > AUTO_SYMBOLIC_LATCH_THRESHOLD
    reason = "auto: %d latches %s %d" % (
        latches, ">" if above else "<=", AUTO_SYMBOLIC_LATCH_THRESHOLD
    )
    return ("symbolic" if above else "explicit"), reason


def resolve_engine(
    engine: Optional[str], c: Optional[Circuit] = None, d: Optional[Circuit] = None
) -> str:
    """Map an ``--engine`` value (or ``None`` = process default) to a
    concrete engine name for the given circuit pair."""
    return _choose(engine, c, d)[0]


@dataclass(frozen=True)
class Verdict:
    """One relation's answer: ``status`` is ``"holds"``, ``"violated"``
    or ``"undecided"``, then stopped by ``limit`` (``"budget"`` or
    ``"state-space"``) with ``message``.  ``least_n`` answers
    ``least-delay`` (``None``, violated, when no delay suffices).
    ``reason`` says why ``engine`` ran: ``"requested"``, or ``auto``'s
    latch count (and why a tried certificate failed); with
    ``engine="certificate"`` it counts the moves the proof composed.
    ``violation`` is the minimal ``C ⋠ D`` witness;
    ``sat_result``, ``reorder`` and ``bdd_stats`` are engine detail.
    """

    relation: str
    status: str
    engine: str
    reason: str
    limit: Optional[str] = None
    message: Optional[str] = None
    least_n: Optional[int] = None
    violation: Optional[SafeReplacementViolation] = None
    sat_result: Optional[SatResult] = None
    reorder: Optional[str] = None
    bdd_stats: Optional[Dict[str, int]] = None

    @property
    def holds(self) -> Optional[bool]:
        """``True``/``False`` when decided, ``None`` when undecided."""
        return None if self.status == UNDECIDED else self.status == HOLDS

    @property
    def undecided(self) -> bool:
        return self.status == UNDECIDED

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready data; the witness in the service's shape."""
        data = {name: getattr(self, name) for name in _JSON_FIELDS}
        data["witness"] = None if self.violation is None else self.violation.to_json()
        return data


# The engines: each builds the per-pair work once and returns one callable
# per relation (taking k, giving Verdict fields), plus one giving the
# fields that every verdict of the call shares.


def _holds(value: bool, **fields: Any) -> Dict[str, Any]:
    return dict(fields, status=HOLDS if value else VIOLATED)


def _least(n: Optional[int]) -> Dict[str, Any]:
    return _holds(n is not None, least_n=n)


def _contained(relation: str) -> Dict[str, Any]:
    """The answer a proved ``C ⊑ D`` gives *relation*."""
    return _least(0) if relation == "least-delay" else _holds(True)


def _witness(violation: Optional[SafeReplacementViolation]) -> Dict[str, Any]:
    return _holds(violation is None, violation=violation)


def _sat(result: SatResult) -> Dict[str, Any]:
    return _holds(result.holds, violation=result.violation, sat_result=result)


def _explicit(c, d, budget, reorder, max_stg_bits):
    for circuit in (c, d):
        check_stg_size(circuit, min(max_stg_bits, MAX_STG_BITS))
    stgs = extract_stg(c), extract_stg(d)
    limit = {} if budget is None else {"max_states": budget}
    return {
        "implies": lambda k: _holds(stg_implies(*stgs)),
        "safe": lambda k: _witness(find_violation(*stgs, **limit)),
        "delayed": lambda k: _holds(delayed_implies(*stgs, k)),
        "least-delay": lambda k: _least(delay_needed_for_implication(*stgs)),
    }, dict


def _symbolic(c, d, budget, reorder, max_stg_bits):
    checker = SymbolicContainmentChecker(c, d, reorder=reorder)
    limit = {} if budget is None else {"max_buckets": budget}
    return {
        "implies": lambda k: _holds(checker.implies()),
        "safe": lambda k: _witness(checker.find_violation(**limit)),
        "delayed": lambda k: _holds(checker.delayed_implies(k)),
        "least-delay": lambda k: _least(checker.delay_needed()),
    }, lambda: {"reorder": checker.reorder, "bdd_stats": dict(checker.manager.stats)}


def _sat_engine(c, d, budget, reorder, max_stg_bits):
    # Imported on first use: ``auto`` never picks the SAT engine.
    from .sat.engine import check_implication, check_safe_replacement, sat_delay_needed

    limit = {} if budget is None else {"max_conflicts": budget}
    return {
        "implies": lambda k: _sat(check_implication(c, d, **limit)),
        "safe": lambda k: _sat(check_safe_replacement(c, d, **limit)),
        "delayed": lambda k: _sat(check_implication(c, d, k=k, **limit)),
        "least-delay": lambda k: _least(sat_delay_needed(c, d, **limit)),
    }, dict


_ENGINES = {"explicit": _explicit, "symbolic": _symbolic, "sat": _sat_engine}


def _undecided(exc: Exception) -> Dict[str, Any]:
    limit = "state-space" if isinstance(exc, StateSpaceTooLarge) else "budget"
    return {"status": UNDECIDED, "limit": limit, "message": str(exc)}


def decide(
    c: Circuit,
    d: Circuit,
    *relations: str,
    k: int = 0,
    engine: Optional[str] = None,
    reorder: Optional[str] = None,
    budget: Optional[int] = None,
    max_stg_bits: int = MAX_STG_BITS,
    session: Optional[RetimingSession] = None,
) -> Tuple[Verdict, ...]:
    """One :class:`Verdict` per relation asked of candidate *c* against
    original *d*, in the order asked.  ``k`` is the delay of
    ``delayed``; ``engine`` and ``reorder`` default to the process-wide
    ``--engine``/``--reorder`` at call time; ``budget`` caps the search
    (``None``: the engine's default); ``max_stg_bits`` caps the explicit
    engine's ``latches + inputs``, never past ``MAX_STG_BITS``;
    ``session``, the retiming that derived *c* from *d*, lets ``auto``
    try the move certificate first.  Raises :class:`ValueError` when
    the circuits' interfaces differ."""
    check_interfaces(c, d)
    for relation in relations:
        if relation not in RELATIONS:
            raise ValueError(
                "unknown relation %r (choose from %s)" % (relation, RELATIONS)
            )
    name, reason = _choose(engine, c, d)
    if session is not None and reason != "requested":  # resolved from auto
        # Imported on first use: the CLI and serve never hold a session.
        from .stg.certificate import certify

        failure, stats = certify(session.history, c, d)
        if failure is None:
            proof = "certificate: %d moves composed" % len(session.history)
            answer = dict(engine="certificate", reason=proof, bdd_stats=stats)
            return tuple(Verdict(r, **answer, **_contained(r)) for r in relations)
        reason += "; certificate %s" % failure
    answers: Dict[str, Dict[str, Any]] = {}
    extras: Dict[str, Any] = {}
    try:
        run, shared = _ENGINES[name](c, d, budget, reorder, max_stg_bits)
    except (SearchBudgetExceeded, StateSpaceTooLarge) as exc:
        answers = dict.fromkeys(relations, _undecided(exc))
    else:
        contained = False
        for relation in (r for r in RELATIONS if r in relations):  # implies first
            if contained:
                answers[relation] = _contained(relation)
                continue
            try:
                answers[relation] = run[relation](k)
            except SearchBudgetExceeded as exc:
                answers[relation] = _undecided(exc)
            contained = relation == "implies" and answers[relation]["status"] == HOLDS
        extras = shared()
    return tuple(
        Verdict(relation, engine=name, reason=reason, **answers[relation], **extras)
        for relation in relations
    )
