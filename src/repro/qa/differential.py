"""Run every claim of the paper across the engine matrix and diff it.

For one :class:`~repro.qa.generate.Case`, each *arm* answers the same
questions independently:

* implication ``C ⊑ D`` (Section 3);
* safe replacement ``C ≼ D`` with a minimal-length witness on failure
  (Section 3.1);
* delayed containment -- the least n with ``Cⁿ ⊑ D`` (Section 4);
* CLS equivalence on a shared seeded sequence batch (Section 5).

Arms are the four decision engines (explicit subset construction,
symbolic BDD fixpoints, the same fixpoints under auto reordering over
a partitioned transition relation, bounded CNF unrolling), the move
certificate on retiming cases (:mod:`repro.stg.certificate`: it votes
``C ⊑ D`` and its consequences when it proves, and abstains otherwise)
and, optionally, the served path (the same engines and CLS batch
behind ``repro serve``).  :func:`run_differential` collects the
ballots and returns the disagreements:

* every *decided* verdict must be unanimous (``None`` = the arm's
  budget ran out -- an honest abstention, never counted as a vote);
* witnesses must be bit-identical within the symbolic family and
  between the direct and served paths, and minimal-length everywhere
  (the explicit BFS and the SAT unrolling are both shortest-first);
* SAT witnesses must replay through the stock simulators;
* on retiming cases the paper's own theorems join the ballot: a
  hazard-free move sequence must yield ``C ⊑ D`` (Cor 4.4) and the
  delay needed must stay within Thm 4.5's k bound.

Fault injection for mutation-testing the fuzzer itself (and nothing
else) lives behind :func:`injected_fault`: each named fault flips one
realistic engine branch -- e.g. the explicit BFS "losing" deep
witnesses -- so tests can verify a real bug would be caught, shrunk
and bundled.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..logic.bdd import BDDManager, NodeLimitExceeded
from ..retime.validity import first_cls_difference, random_ternary_sequences
from ..sat import check_implication, check_safe_replacement, sat_delay_needed
from ..sat.replay import replay_witness
from ..stg.certificate import MoveCertificate, RecordMismatch
from ..stg.delayed import delay_needed_for_implication
from ..stg.equivalence import implies as stg_implies
from ..stg.explicit import extract_stg
from ..stg.replaceability import (
    SafeReplacementViolation,
    SearchBudgetExceeded,
    find_violation,
)
from ..stg.symbolic_replaceability import SymbolicContainmentChecker
from .generate import Case

__all__ = [
    "Ballot",
    "DifferentialResult",
    "MATRICES",
    "run_differential",
    "injected_fault",
    "active_faults",
    "FAULT_NAMES",
]

#: Matrix presets: which containment arms and which CLS arms vote.
MATRICES: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "quick": {
        "arms": ("explicit", "symbolic"),
        "cls": ("compiled",),
    },
    "std": {
        "arms": ("explicit", "symbolic", "symbolic+reorder", "sat", "certificate"),
        "cls": ("compiled",),
    },
    "full": {
        "arms": (
            "explicit", "symbolic", "symbolic+reorder", "sat", "certificate", "serve"
        ),
        "cls": ("compiled", "serve"),
    },
}

#: Deliberate, realistic engine breakages for mutation-testing the
#: fuzzer.  Enable only via :func:`injected_fault`.
FAULT_NAMES = (
    # The explicit BFS "forgets" any counterexample needing two or more
    # input symbols -- the shape of an off-by-one frontier bug.
    "explicit-misses-deep-witnesses",
    # The symbolic fixpoint reports one delay step too few -- the shape
    # of an iteration-count bug in the delayed-image chain.
    "symbolic-underreports-delay",
    # The move certificate skips its totality check, so a forward move
    # across a non-justifiable cell (the paper's hazard) "proves" C ⊑ D.
    "certificate-ignores-hazard",
)

_ACTIVE_FAULTS: List[str] = []


@contextlib.contextmanager
def injected_fault(name: str) -> Iterator[None]:
    """Enable the named deliberate engine fault within the block."""
    if name not in FAULT_NAMES:
        raise ValueError("unknown fault %r (known: %s)" % (name, FAULT_NAMES))
    _ACTIVE_FAULTS.append(name)
    try:
        yield
    finally:
        _ACTIVE_FAULTS.remove(name)


def active_faults() -> Tuple[str, ...]:
    return tuple(_ACTIVE_FAULTS)


@dataclass
class Ballot:
    """One arm's answers.  ``None`` anywhere means the arm's budget ran
    out (an abstention); a decided field is a binding vote."""

    arm: str
    implies: Optional[bool] = None
    safe: Optional[bool] = None
    witness: Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = None
    delay: Optional[int] = None
    delay_decided: bool = False
    notes: List[str] = field(default_factory=list)

    def as_json(self) -> Dict[str, Any]:
        return {
            "arm": self.arm,
            "implies": self.implies,
            "safe": self.safe,
            "witness": None
            if self.witness is None
            else SafeReplacementViolation(*self.witness).to_json(),
            "delay": self.delay,
            "delay_decided": self.delay_decided,
        }


@dataclass
class DifferentialResult:
    case: Case
    verdicts: Dict[str, Ballot]
    cls_votes: Dict[str, Optional[bool]]
    disagreements: List[str]

    @property
    def agreed(self) -> bool:
        return not self.disagreements

    def consensus(self) -> Dict[str, Any]:
        """The agreed verdict, for recording into a corpus bundle."""
        implies_votes = [v.implies for v in self.verdicts.values() if v.implies is not None]
        safe_votes = [v.safe for v in self.verdicts.values() if v.safe is not None]
        delays = [v.delay for v in self.verdicts.values() if v.delay_decided]
        lengths = [
            len(v.witness[1]) for v in self.verdicts.values() if v.witness is not None
        ]
        cls_votes = [v for v in self.cls_votes.values() if v is not None]
        return {
            "implies": implies_votes[0] if implies_votes else None,
            "safe": safe_votes[0] if safe_votes else None,
            "witness_length": lengths[0] if lengths else None,
            "delay": delays[0] if delays else None,
            "cls_equivalent": cls_votes[0] if cls_votes else None,
        }


def _witness_tuple(violation) -> Optional[Tuple[int, Tuple[int, ...], Tuple[int, ...]]]:
    if violation is None:
        return None
    return (violation.c_state, tuple(violation.input_symbols), tuple(violation.c_outputs))


# ---------------------------------------------------------------------------
# The containment arms.
# ---------------------------------------------------------------------------


def _explicit_verdict(case: Case) -> Ballot:
    verdict = Ballot("explicit")
    try:
        c_stg = extract_stg(case.candidate)
        d_stg = extract_stg(case.original)
    except (ValueError, SearchBudgetExceeded) as exc:
        verdict.notes.append("stg extraction: %s" % exc)
        return verdict
    try:
        verdict.implies = stg_implies(c_stg, d_stg)
    except SearchBudgetExceeded:
        pass
    try:
        violation = find_violation(c_stg, d_stg)
        if (
            "explicit-misses-deep-witnesses" in _ACTIVE_FAULTS
            and violation is not None
            and len(violation.input_symbols) >= 2
        ):
            violation = None
        verdict.safe = violation is None
        verdict.witness = _witness_tuple(violation)
    except SearchBudgetExceeded:
        pass
    try:
        verdict.delay = delay_needed_for_implication(c_stg, d_stg)
        verdict.delay_decided = True
    except SearchBudgetExceeded:
        pass
    return verdict


def _symbolic_verdict(case: Case, *, reordering: bool) -> Ballot:
    arm = "symbolic+reorder" if reordering else "symbolic"
    verdict = Ballot(arm)
    if reordering:
        manager = BDDManager(reorder="auto", reorder_threshold=256)
        checker = SymbolicContainmentChecker(
            case.candidate, case.original, manager=manager, partitioned=True
        )
    else:
        checker = SymbolicContainmentChecker(case.candidate, case.original, reorder="off")
    try:
        verdict.implies = checker.implies()
    except SearchBudgetExceeded:
        pass
    try:
        verdict.witness = _witness_tuple(checker.find_violation())
        verdict.safe = verdict.witness is None
    except SearchBudgetExceeded:
        pass
    try:
        delay = checker.delay_needed()
        if (
            "symbolic-underreports-delay" in _ACTIVE_FAULTS
            and delay is not None
            and delay > 0
        ):
            delay -= 1
        verdict.delay = delay
        verdict.delay_decided = True
    except SearchBudgetExceeded:
        pass
    return verdict


#: The SAT arm's completeness bound is exponential in latch count, so
#: it abstains (honestly -- abstentions are never votes) on cases past
#: this combined latch budget instead of stalling the whole fuzz run.
#: 6 keeps the arm on the 3+3-latch scale where each UNSAT proof stays
#: well under a second; at 7 a single safe case costs ~20s.
SAT_LATCH_BUDGET = 6

#: Tight per-question CDCL budgets for fuzzing.  Violations at fuzz
#: sizes surface within a few frames and a few thousand conflicts;
#: proving *safety* can need the full exponential completeness depth,
#: and there the arm abstains quickly rather than grinding -- the
#: explicit/symbolic arms carry those votes.
SAT_FUZZ_CONFLICTS = 3_000
SAT_FUZZ_FRAMES = 12


def _sat_verdict(case: Case) -> Ballot:
    verdict = Ballot("sat")
    if case.candidate.num_latches + case.original.num_latches > SAT_LATCH_BUDGET:
        return verdict
    try:
        verdict.implies = check_implication(
            case.candidate, case.original, max_conflicts=SAT_FUZZ_CONFLICTS
        ).holds
    except SearchBudgetExceeded:
        pass
    try:
        result = check_safe_replacement(
            case.candidate,
            case.original,
            max_frames=SAT_FUZZ_FRAMES,
            max_conflicts=SAT_FUZZ_CONFLICTS,
        )
        verdict.safe = result.holds
        verdict.witness = _witness_tuple(result.violation)
        if result.witness is not None:
            replay = replay_witness(case.candidate, case.original, result.witness)
            if not replay.ok:
                verdict.notes.append("witness replay failed: %s" % (replay.errors,))
    except SearchBudgetExceeded:
        pass
    # The delayed-containment chain is the expensive question for CNF
    # unrolling; bound it by Thm 4.5's k on retiming cases (the only
    # claim at stake there) and skip it on unrelated pairs, which the
    # explicit and symbolic arms already cross-check.
    if case.session is not None:
        if verdict.implies is True:
            # C ⊑ D is delayed containment at n = 0; no second proof
            # needed (and the CNF chain would cost another full UNSAT).
            verdict.delay = 0
            verdict.delay_decided = True
        elif case.session.theorem45_k > 0:
            try:
                delay = sat_delay_needed(
                    case.candidate,
                    case.original,
                    max_cycles=case.session.theorem45_k,
                    max_conflicts=SAT_FUZZ_CONFLICTS,
                )
                if delay is not None:
                    verdict.delay = delay
                    verdict.delay_decided = True
            except SearchBudgetExceeded:
                pass
    return verdict


def _certificate_verdict(case: Case) -> Ballot:
    """The move certificate: on a retiming case, a proof votes ``C ⊑ D``,
    ``C ≼ D`` and delay 0; a failed certificate abstains."""
    verdict = Ballot("certificate")
    if case.session is None:
        return verdict
    try:
        certificate = MoveCertificate(
            case.session.history, case.candidate, case.original
        )
        total = "certificate-ignores-hazard" in _ACTIVE_FAULTS or certificate.total()
        proved = total and certificate.closed()
    except (RecordMismatch, NodeLimitExceeded):
        return verdict
    if proved:
        verdict.implies = verdict.safe = True
        verdict.delay = 0
        verdict.delay_decided = True
    return verdict


def _serve_verdict(case: Case, client) -> Ballot:
    """The served path: the same checks through a live ``repro serve``
    process boundary (JSON round-trip included)."""
    from ..netlist.io_bench import write_bench

    verdict = Ballot("serve")
    request = {
        "op": "safe-replacement",
        "candidate": {"bench": write_bench(case.candidate), "name": "qa_c"},
        "original": {"bench": write_bench(case.original), "name": "qa_d"},
        "engine": "symbolic",
    }
    reply = client.request(request)
    if reply.get("error") == "budget-exceeded":
        return verdict
    if "error" in reply and reply["error"]:
        verdict.notes.append("serve error: %r" % (reply,))
        return verdict
    result = reply["result"]
    verdict.safe = bool(result["safe"])
    witness = result.get("witness")
    if witness is not None:
        verdict.witness = (
            int(witness["c_state"]),
            tuple(int(i) for i in witness["inputs"]),
            tuple(int(o) for o in witness["outputs"]),
        )
    return verdict


# ---------------------------------------------------------------------------
# The CLS arms (in-process / served variants of Cor 5.3).
# ---------------------------------------------------------------------------

CLS_COUNT = 12
CLS_LENGTH = 10


def _cls_vote(case: Case, arm: str, client=None) -> Optional[bool]:
    seed = case.recipe.seed & 0x7FFFFFFF
    if arm == "serve":
        from ..netlist.io_bench import write_bench

        reply = client.request(
            {
                "op": "check-validity",
                "original": {"bench": write_bench(case.original), "name": "qa_d"},
                "retimed": {"bench": write_bench(case.candidate), "name": "qa_c"},
                "samples": CLS_COUNT,
                "length": CLS_LENGTH,
                "seed": seed,
            }
        )
        if "error" in reply and reply["error"]:
            return None
        return bool(reply["result"]["equivalent"])
    sequences = random_ternary_sequences(
        len(case.original.inputs), count=CLS_COUNT, length=CLS_LENGTH, seed=seed
    )
    return first_cls_difference(case.original, case.candidate, sequences) is None


# ---------------------------------------------------------------------------
# The ballot.
# ---------------------------------------------------------------------------


def run_differential(
    case: Case, *, matrix: str = "std", client=None
) -> DifferentialResult:
    """All arms of *matrix* vote on *case*; returns the split ballots.

    ``client`` is a :class:`repro.serve.client.ServeClient` for the
    served arms; without one the serve arms are skipped even in the
    ``full`` matrix.
    """
    spec = MATRICES[matrix]
    verdicts: Dict[str, Ballot] = {}
    for arm in spec["arms"]:
        if arm == "explicit":
            verdicts[arm] = _explicit_verdict(case)
        elif arm == "symbolic":
            verdicts[arm] = _symbolic_verdict(case, reordering=False)
        elif arm == "symbolic+reorder":
            verdicts[arm] = _symbolic_verdict(case, reordering=True)
        elif arm == "sat":
            verdicts[arm] = _sat_verdict(case)
        elif arm == "certificate":
            verdicts[arm] = _certificate_verdict(case)
        elif arm == "serve":
            if client is not None:
                verdicts[arm] = _serve_verdict(case, client)

    cls_votes: Dict[str, Optional[bool]] = {}
    for arm in spec["cls"]:
        if arm == "serve" and client is None:
            continue
        cls_votes[arm] = _cls_vote(case, arm, client)

    disagreements = _diff(case, verdicts, cls_votes)
    return DifferentialResult(
        case=case, verdicts=verdicts, cls_votes=cls_votes, disagreements=disagreements
    )


def _diff(
    case: Case, verdicts: Dict[str, Ballot], cls_votes: Dict[str, Optional[bool]]
) -> List[str]:
    problems: List[str] = []

    def split(field: str, votes: Dict[str, Any]) -> None:
        if len(set(votes.values())) > 1:
            problems.append("%s ballot split: %r" % (field, votes))

    split("implies", {a: v.implies for a, v in verdicts.items() if v.implies is not None})
    split("safe", {a: v.safe for a, v in verdicts.items() if v.safe is not None})
    split(
        "delay",
        {a: v.delay for a, v in verdicts.items() if v.delay_decided},
    )
    split(
        "witness-length",
        {
            a: len(v.witness[1])
            for a, v in verdicts.items()
            if v.witness is not None
        },
    )
    decided_cls = {a: v for a, v in cls_votes.items() if v is not None}
    split("cls", decided_cls)

    # Bit-identical witnesses within the symbolic family and across the
    # process boundary (the server runs the symbolic engine).
    reference = verdicts.get("symbolic")
    if reference is not None and reference.witness is not None:
        for other in ("symbolic+reorder", "serve"):
            verdict = verdicts.get(other)
            if verdict is not None and verdict.safe is not None:
                if verdict.witness != reference.witness:
                    problems.append(
                        "witness mismatch symbolic vs %s: %r != %r"
                        % (other, verdict.witness, reference.witness)
                    )

    # Arm-local notes (failed SAT replays, serve transport errors).
    for verdict in verdicts.values():
        for note in verdict.notes:
            problems.append("%s: %s" % (verdict.arm, note))

    # The paper's own theorems vote on retiming cases.
    if case.session is not None:
        k = case.session.theorem45_k
        hazard_free = case.session.hazardous_move_count == 0
        for arm, verdict in verdicts.items():
            if hazard_free and verdict.implies is False:
                problems.append(
                    "%s: Cor 4.4 violated (hazard-free retiming, implies=False)" % arm
                )
            if verdict.delay_decided:
                if verdict.delay is None:
                    problems.append(
                        "%s: Cor 4.3 violated (retiming with no delayed containment)" % arm
                    )
                elif verdict.delay > k:
                    problems.append(
                        "%s: Thm 4.5 violated (delay %d > k %d)" % (arm, verdict.delay, k)
                    )
        # Cor 5.3: a genuine retiming must stay CLS-equivalent.
        for arm, vote in cls_votes.items():
            if vote is False:
                problems.append("cls[%s]: Cor 5.3 violated on a retiming case" % arm)
    return problems
