"""Greedy shrinking of a disagreeing case to a minimal reproducer.

A fuzz disagreement on a 10-gate case is debuggable; the same split
ballot on 3 gates is obvious.  :func:`shrink_case` minimises a case
under a caller-supplied *predicate* ("the differential still
disagrees"), re-checking after every candidate deletion so the output
provably still reproduces:

1. **Move deletion** (retiming cases): drop one move at a time and
   replay the remainder through :func:`~repro.retime.engine.replay_moves`
   -- sequences that are no longer legal are skipped, shrunk sessions
   keep honest Thm 4.5 / Cor 4.4 accounting.
2. **Cell and latch deletion** (both circuits): delete one ``.bench``
   line at a time, substituting the deleted net by the gate's first
   fan-in (a latch by its data input) with word-boundary substitution,
   then re-parse and re-validate.  Deletions that break the netlist
   (dangling nets, combinational cycles from a collapsed latch) are
   skipped.  Once a circuit is edited below the recipe, the move replay
   no longer applies, so the shrunk case drops its session -- the
   engine-vs-engine split is what circuit shrinking preserves, and the
   predicate enforces exactly that.

Greedy single-deletion passes repeat to a fixpoint, so the result is
1-minimal: removing any single move, cell or latch either breaks the
netlist or makes the disagreement vanish.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional

from ..netlist.circuit import Circuit
from ..netlist.io_bench import parse_bench, write_bench
from ..netlist.validate import validate
from ..obs import trace as _trace
from ..retime.engine import replay_moves
from .generate import Case

__all__ = ["shrink_case", "shrink_moves", "shrink_circuit"]

Predicate = Callable[[Case], bool]

#: ``out = KIND(a, b, ...)`` -- one cell or latch definition.
_DEF_RE = re.compile(r"^\s*(\S+)\s*=\s*([A-Za-z]+)\s*\(([^)]*)\)\s*$")


def _substitute(text: str, old: str, new: str) -> str:
    """Replace net *old* by *new* at word boundaries (net names may
    contain no regex metacharacters beyond ``_``, but escape anyway)."""
    return re.sub(r"(?<![\w])%s(?![\w])" % re.escape(old), new, text)


def _delete_line(text: str, line_index: int) -> Optional[str]:
    """*text* with definition line *line_index* removed and its output
    net substituted by the first fan-in; ``None`` if the edit does not
    parse back into a valid circuit."""
    lines = text.splitlines()
    match = _DEF_RE.match(lines[line_index])
    if match is None:
        return None
    out, _kind, args = match.group(1), match.group(2), match.group(3)
    fanins = [a.strip() for a in args.split(",") if a.strip()]
    if not fanins:
        return None
    replacement = fanins[0]
    if replacement == out:  # self-loop latch; nothing to collapse onto
        return None
    del lines[line_index]
    edited = "\n".join(_substitute(line, out, replacement) for line in lines)
    try:
        circuit = parse_bench(edited)
        validate(circuit)
    except Exception:
        return None
    if circuit.num_cells + circuit.num_latches == 0:
        return None
    return write_bench(circuit)


def shrink_circuit(
    circuit: Circuit, still_interesting: Callable[[Circuit], bool]
) -> Circuit:
    """Greedily delete cells and latches from *circuit* while
    *still_interesting* holds, to a 1-minimal fixpoint."""
    text = write_bench(circuit)
    changed = True
    while changed:
        changed = False
        lines = text.splitlines()
        for i in range(len(lines)):
            if not _DEF_RE.match(lines[i]):
                continue
            candidate_text = _delete_line(text, i)
            if candidate_text is None:
                continue
            candidate = parse_bench(candidate_text)
            if still_interesting(candidate):
                text = candidate_text
                changed = True
                break  # line numbering moved; restart the scan
    return parse_bench(text)


def shrink_moves(case: Case, predicate: Predicate) -> Case:
    """Greedily drop moves from a retiming case while it stays
    interesting.  Returns *case* unchanged for non-retiming cases."""
    if case.session is None or not case.moves:
        return case
    best = case
    moves: List = list(case.moves)
    changed = True
    while changed and moves:
        changed = False
        for i in range(len(moves)):
            reduced = moves[:i] + moves[i + 1 :]
            try:
                session = replay_moves(case.original, reduced)
            except Exception:
                continue  # that prefix is no longer a legal sequence
            candidate = Case(
                recipe=case.recipe,
                original=case.original,
                candidate=session.current,
                moves=session.moves,
                session=session,
            )
            if predicate(candidate):
                best = candidate
                moves = reduced
                changed = True
                break
    return best


def shrink_case(case: Case, predicate: Predicate) -> Case:
    """Minimise *case* under *predicate*.

    The predicate must return ``True`` for the input case (an
    uninteresting case has nothing to shrink; raises ``ValueError``).
    Moves shrink first (keeping the session's theorem accounting
    alive), then both circuits shrink cell-by-cell; if any circuit
    edit lands, the session is dropped -- see the module docstring.
    """
    if not predicate(case):
        raise ValueError("case is not interesting; nothing to shrink")
    _trace.incr("qa.shrink.cases")
    case = shrink_moves(case, predicate)

    def rebuild(original: Circuit, candidate: Circuit) -> Case:
        return Case(
            recipe=case.recipe,
            original=original,
            candidate=candidate,
            moves=(),
            session=None,
        )

    structural = rebuild(case.original, case.candidate)
    if not predicate(structural):
        # The disagreement depends on the session's theorem ballots;
        # move-level shrinking is as far as structure can go.
        return case

    current = structural
    while True:
        before = (current.candidate.num_cells, current.original.num_cells,
                  current.candidate.num_latches, current.original.num_latches)
        frozen_d = current.original
        shrunk_c = shrink_circuit(
            current.candidate, lambda c: predicate(rebuild(frozen_d, c))
        )
        current = rebuild(frozen_d, shrunk_c)
        frozen_c = current.candidate
        shrunk_d = shrink_circuit(
            current.original, lambda d: predicate(rebuild(d, frozen_c))
        )
        current = rebuild(shrunk_d, frozen_c)
        after = (current.candidate.num_cells, current.original.num_cells,
                 current.candidate.num_latches, current.original.num_latches)
        if after == before:
            break
    _trace.incr(
        "qa.shrink.cells_removed",
        (case.candidate.num_cells + case.original.num_cells)
        - (current.candidate.num_cells + current.original.num_cells),
    )
    return current
