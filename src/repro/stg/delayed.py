"""Delayed designs ``D^n`` (Section 3.4).

Given a design D, the *n-cycle-delayed design* ``D^n`` is D restricted
to the states that remain possible after clocking arbitrary inputs for
n cycles from an arbitrary power-up state: the transient states that can
only be observed during the first n cycles are removed.  Leiserson and
Saxe's correctness statement for retiming (re-proved as Corollary 4.3)
is exactly ``C^n ⊑ D`` for some finite n.

The delayed design of an explicit STG is computed by iterating the
one-step image of the full state set; the image chain is monotonically
non-increasing and stabilises after at most ``2**n`` steps (in practice
after a handful -- Theorem 4.5 bounds the needed delay by the maximum
number of registers in any simple cycle).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from .equivalence import joint_equivalence_classes
from .explicit import STG

__all__ = [
    "delayed_states",
    "stable_states",
    "delayed_implies",
    "delay_needed_for_implication",
]


def delayed_states(stg: STG, cycles: int) -> FrozenSet[int]:
    """The state set of ``D^cycles``: the image of all states after
    *cycles* steps of arbitrary inputs."""
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    current: FrozenSet[int] = frozenset(range(stg.num_states))
    for _ in range(cycles):
        current = stg.successors(current)
    return current


def stable_states(stg: STG) -> Tuple[FrozenSet[int], int]:
    """The limit of the delayed-state chain and the delay reaching it.

    Returns ``(states, n)`` where ``delayed_states(stg, n) == states``
    and further delays change nothing.
    """
    current: FrozenSet[int] = frozenset(range(stg.num_states))
    n = 0
    while True:
        nxt = stg.successors(current)
        if nxt == current:
            return current, n
        current = nxt
        n += 1


def delayed_implies(c: STG, d: STG, cycles: int) -> bool:
    """Decide ``C^cycles ⊑ D``: every state of C still possible after
    *cycles* arbitrary-input cycles is equivalent to some state of D."""
    blocks_c, blocks_d = joint_equivalence_classes(c, d)
    available = set(blocks_d)
    survivors = delayed_states(c, cycles)
    return all(blocks_c[s] in available for s in survivors)


def delay_needed_for_implication(
    c: STG, d: STG, *, max_cycles: Optional[int] = None
) -> Optional[int]:
    """The least n with ``C^n ⊑ D``, or ``None`` if no delay suffices.

    Corollary 4.3 guarantees a finite n exists whenever C was obtained
    from D by retiming; for unrelated machines the chain may stabilise
    without implication ever holding, in which case ``None`` is
    returned.  *max_cycles* defaults to the stabilisation point.
    """
    blocks_c, blocks_d = joint_equivalence_classes(c, d)
    available = set(blocks_d)

    current: FrozenSet[int] = frozenset(range(c.num_states))
    limit = max_cycles if max_cycles is not None else c.num_states + 1
    n = 0
    seen = set()
    while n <= limit:
        if all(blocks_c[s] in available for s in current):
            return n
        if current in seen:
            return None
        seen.add(current)
        current = c.successors(current)
        n += 1
    return None
