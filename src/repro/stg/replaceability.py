"""Safe replacement (the paper's ``≼``, from Pixley et al. [PSAB94]).

Design C is a *safe replacement* for design D (``C ≼ D``) iff for every
state s1 of C and every input sequence, there exists a state s0 of D
whose output behaviour on that sequence equals s1's.  Crucially the
witness s0 may depend on the input sequence -- this is what makes ``≼``
strictly weaker than implication ``⊑`` (Section 3.3), and Proposition
3.1 (``C ⊑ D  ⇒  C ≼ D``) is the easy direction.

Decision procedure
------------------

For deterministic completely specified machines, ``C ≼ D`` is a safety
property of the product of C with the *subset machine* of D: track the
pair ``(c, S)`` where ``S`` is the set of D-states whose outputs have
matched C's along the input string read so far.  C is a safe
replacement iff no reachable pair has ``S = ∅``::

    start:   (c0, all states of D)      for every c0
    step a:  S' = { δ_D(s, a) : s ∈ S, λ_D(s, a) = λ_C(c, a) }

The subset space is exponential in |D| in the worst case, which is fine
at the STG sizes the paper's arguments live at (its own example has
|C| = 4, |D| = 2); :data:`MAX_SUBSET_STATES` guards the search.

When the check fails, :func:`find_violation` extracts a concrete
counterexample input sequence -- e.g. for Figure 1 it recovers the
paper's observation that C's state ``10`` on ``0·1·1·1`` produces an
output behaviour absent from D.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

from ..obs.trace import TRACER as _TRACE
from .explicit import STG, check_stg_interfaces

if TYPE_CHECKING:  # pragma: no cover
    from ..netlist.circuit import Circuit

__all__ = [
    "MAX_SUBSET_STATES",
    "SearchBudgetExceeded",
    "is_safe_replacement",
    "find_violation",
    "SafeReplacementViolation",
    "decide_safe_replacement",
    "find_safe_replacement_violation",
]

MAX_SUBSET_STATES = 200000


class SearchBudgetExceeded(MemoryError):
    """The containment search ran out of its *configured* budget.

    Raised instead of a bare :class:`MemoryError` so callers can tell
    budget exhaustion (retry with the symbolic engine, or a larger
    ``max_states``) apart from a genuine out-of-memory condition; it
    subclasses :class:`MemoryError` for backward compatibility with
    callers that caught the old exception.  The circuit-level
    wrappers below also raise it for an STG too large to enumerate:
    both are an undecided :class:`repro.decide.Verdict`.
    """


@dataclass(frozen=True)
class SafeReplacementViolation:
    """Witness that ``C ≼ D`` fails.

    ``c_state`` is the offending power-up state of C and
    ``input_symbols`` an input string after which no state of D has
    matched C's outputs.  ``c_outputs`` is the output string C produced
    (each entry an encoded output symbol).
    """

    c_state: int
    input_symbols: Tuple[int, ...]
    c_outputs: Tuple[int, ...]

    def to_json(self) -> Dict[str, Any]:
        """The witness as the service and the fuzzer's bundles render it."""
        return {
            "c_state": self.c_state,
            "inputs": list(self.input_symbols),
            "outputs": list(self.c_outputs),
            "length": len(self.input_symbols),
        }


def find_violation(
    c: STG, d: STG, *, max_states: int = MAX_SUBSET_STATES
) -> Optional[SafeReplacementViolation]:
    """Search for a counterexample to ``C ≼ D``.

    Breadth-first over reachable ``(c_state, D_subset)`` pairs, so a
    returned violation has a minimal-length input string.  Returns
    ``None`` when C is a safe replacement for D.
    """
    check_stg_interfaces(c, d)
    if _TRACE.enabled:
        _TRACE.incr("stg.replaceability.explicit_checks")
    all_d: FrozenSet[int] = frozenset(range(d.num_states))
    visited: Dict[Tuple[int, FrozenSet[int]], None] = {}
    queue: deque = deque()
    parents: Dict[
        Tuple[int, FrozenSet[int]],
        Optional[Tuple[Tuple[int, FrozenSet[int]], int, int]],
    ] = {}

    for c0 in range(c.num_states):
        node = (c0, all_d)
        if node not in visited:
            visited[node] = None
            parents[node] = None
            queue.append(node)

    while queue:
        node = queue.popleft()
        c_state, subset = node
        for a in range(c.num_symbols):
            out = c.output[c_state][a]
            new_subset = frozenset(
                d.next_state[s][a] for s in subset if d.output[s][a] == out
            )
            c_next = c.next_state[c_state][a]
            child = (c_next, new_subset)
            if not new_subset:
                # Reconstruct the input string.
                symbols: List[int] = [a]
                outputs: List[int] = [out]
                cursor = node
                while parents[cursor] is not None:
                    parent, symbol, parent_out = parents[cursor]
                    symbols.append(symbol)
                    outputs.append(parent_out)
                    cursor = parent
                symbols.reverse()
                outputs.reverse()
                start = cursor[0]
                if _TRACE.enabled:
                    _TRACE.incr("stg.replaceability.subset_states", len(visited))
                return SafeReplacementViolation(
                    c_state=start,
                    input_symbols=tuple(symbols),
                    c_outputs=tuple(outputs),
                )
            if child not in visited:
                if len(visited) >= max_states:
                    raise SearchBudgetExceeded(
                        "safe-replacement search exceeded %d subset states" % max_states
                    )
                visited[child] = None
                parents[child] = (node, a, out)
                queue.append(child)
    if _TRACE.enabled:
        _TRACE.incr("stg.replaceability.subset_states", len(visited))
    return None


def is_safe_replacement(c: STG, d: STG, *, max_states: int = MAX_SUBSET_STATES) -> bool:
    """Decide the paper's ``C ≼ D``."""
    return find_violation(c, d, max_states=max_states) is None


# ---------------------------------------------------------------------------
# Circuit-level entry points, through :func:`repro.decide.decide`.
# ---------------------------------------------------------------------------


def find_safe_replacement_violation(
    c: "Circuit",
    d: "Circuit",
    *,
    engine: Optional[str] = None,
    budget: Optional[int] = None,
) -> Optional[SafeReplacementViolation]:
    """:func:`repro.decide.decide`'s minimal ``C ⋠ D`` witness, or
    ``None`` when C is a safe replacement for D; an undecided verdict (a
    blown budget, an oversized STG) raises :class:`SearchBudgetExceeded`."""
    from ..decide import decide

    (verdict,) = decide(c, d, "safe", engine=engine, budget=budget)
    if verdict.undecided:
        raise SearchBudgetExceeded(verdict.message)
    return verdict.violation


def decide_safe_replacement(
    c: "Circuit",
    d: "Circuit",
    *,
    engine: Optional[str] = None,
    budget: Optional[int] = None,
) -> bool:
    """Decide ``C ≼ D`` at the circuit level (see
    :func:`find_safe_replacement_violation`)."""
    return find_safe_replacement_violation(c, d, engine=engine, budget=budget) is None
