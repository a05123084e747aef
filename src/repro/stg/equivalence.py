"""State equivalence and machine implication (the paper's ``⊑``).

Two states are *equivalent* when they produce the same output sequence
on every input sequence.  For completely specified machines this is the
classical Moore/Hopcroft partition-refinement fixpoint: start from the
partition by output rows, split blocks whose members transition into
different blocks, repeat to fixpoint.

On top of equivalence this module provides the paper's Section 3.3
notion of *state machine implication*: ``C ⊑ D`` iff every state of C
is equivalent to some state of D.  Implication is decided by refining a
**joint** partition over the disjoint union of the two machines, which
needs them to share an input alphabet (same number of primary inputs)
and output arity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .explicit import STG, check_stg_interfaces

if TYPE_CHECKING:  # pragma: no cover
    from ..netlist.circuit import Circuit

__all__ = [
    "equivalence_classes",
    "joint_equivalence_classes",
    "implies",
    "equivalent_state_in",
    "machines_equivalent",
    "quotient",
    "QuotientMachine",
    "decide_implication",
]


def _refine(
    outputs_key,  # state -> hashable output signature
    next_of,  # state, symbol -> state
    states: Sequence[int],
    num_symbols: int,
) -> Dict[int, int]:
    """Generic partition refinement; returns state -> block id."""
    # Initial partition: by the full output row.
    block_of: Dict[int, int] = {}
    signature_to_block: Dict[object, int] = {}
    for s in states:
        key = outputs_key(s)
        if key not in signature_to_block:
            signature_to_block[key] = len(signature_to_block)
        block_of[s] = signature_to_block[key]

    while True:
        refined: Dict[object, int] = {}
        new_block_of: Dict[int, int] = {}
        for s in states:
            key = (
                block_of[s],
                tuple(block_of[next_of(s, a)] for a in range(num_symbols)),
            )
            if key not in refined:
                refined[key] = len(refined)
            new_block_of[s] = refined[key]
        if len(refined) == len(set(block_of.values())):
            return new_block_of
        block_of = new_block_of


def equivalence_classes(stg: STG) -> List[int]:
    """Block id per state; equal ids mean equivalent states.

    Block ids are dense (0..k-1) but their order is arbitrary.
    """
    states = range(stg.num_states)
    block_of = _refine(
        lambda s: tuple(stg.output[s]),
        lambda s, a: stg.next_state[s][a],
        states,
        stg.num_symbols,
    )
    return [block_of[s] for s in states]


def joint_equivalence_classes(c: STG, d: STG) -> Tuple[List[int], List[int]]:
    """Blocks of the disjoint union of machines *c* and *d*.

    Returns ``(blocks_c, blocks_d)``: a state of c is equivalent to a
    state of d iff their block ids are equal.  Requires matching input
    and output arities.
    """
    check_stg_interfaces(c, d)
    offset = c.num_states

    def outputs_key(s: int):
        return (
            tuple(c.output[s]) if s < offset else tuple(d.output[s - offset])
        )

    def next_of(s: int, a: int) -> int:
        if s < offset:
            return c.next_state[s][a]
        return d.next_state[s - offset][a] + offset

    states = range(offset + d.num_states)
    block_of = _refine(outputs_key, next_of, states, c.num_symbols)
    blocks_c = [block_of[s] for s in range(offset)]
    blocks_d = [block_of[s + offset] for s in range(d.num_states)]
    return blocks_c, blocks_d


def implies(c: STG, d: STG) -> bool:
    """The paper's ``C ⊑ D``: every state of C has an equivalent state
    in D (the same state for every input sequence)."""
    blocks_c, blocks_d = joint_equivalence_classes(c, d)
    available = set(blocks_d)
    return all(b in available for b in blocks_c)


def equivalent_state_in(c: STG, d: STG, state_of_c: int) -> Optional[int]:
    """A state of D equivalent to ``state_of_c``, or ``None``.

    This is the witness the proof of Proposition 4.1 constructs
    explicitly; here it is found by joint partition refinement.
    """
    blocks_c, blocks_d = joint_equivalence_classes(c, d)
    want = blocks_c[state_of_c]
    for s, b in enumerate(blocks_d):
        if b == want:
            return s
    return None


def machines_equivalent(c: STG, d: STG) -> bool:
    """Classical FSM equivalence: ``C ⊑ D`` and ``D ⊑ C``."""
    blocks_c, blocks_d = joint_equivalence_classes(c, d)
    return set(blocks_c) == set(blocks_d)


class QuotientMachine:
    """The state-minimal quotient of an STG (equivalent states merged).

    This is the "collapsed machine" of Pixley's SHE construction: SCC
    analysis for the single-TSCC condition runs on this graph, not on
    the raw STG.
    """

    def __init__(self, stg: STG) -> None:
        blocks = equivalence_classes(stg)
        self.source = stg
        self.block_of_state = blocks
        self.num_blocks = max(blocks) + 1 if blocks else 0
        # One representative state per block.
        representative: Dict[int, int] = {}
        for s, b in enumerate(blocks):
            representative.setdefault(b, s)
        self.representative = representative
        self.next_block: List[List[int]] = [
            [blocks[stg.next_state[representative[b]][a]] for a in range(stg.num_symbols)]
            for b in range(self.num_blocks)
        ]
        self.output: List[List[int]] = [
            list(stg.output[representative[b]]) for b in range(self.num_blocks)
        ]

    def members(self, block: int) -> Tuple[int, ...]:
        """All original states merged into *block*."""
        return tuple(
            s for s, b in enumerate(self.block_of_state) if b == block
        )


def quotient(stg: STG) -> QuotientMachine:
    """Build the state-minimal quotient machine of *stg*."""
    return QuotientMachine(stg)


# ---------------------------------------------------------------------------
# Circuit-level entry point, through :func:`repro.decide.decide`.
# ---------------------------------------------------------------------------


def decide_implication(
    c: "Circuit", d: "Circuit", *, engine: Optional[str] = None
) -> bool:
    """Decide ``C ⊑ D`` through :func:`repro.decide.decide`; an undecided
    verdict raises :class:`~repro.stg.replaceability.SearchBudgetExceeded`."""
    from ..decide import decide
    from .replaceability import SearchBudgetExceeded

    (verdict,) = decide(c, d, "implies", engine=engine)
    if verdict.undecided:
        raise SearchBudgetExceeded(verdict.message)
    return bool(verdict.holds)
