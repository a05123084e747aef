"""Deciding three-valued simulation equivalence (Section 6 future work).

The paper closes by proposing "to develop algorithms to validate
three-valued simulation equivalence": replace the strict notion of
equivalent output sequences by equality of **conservative three-valued
simulator outputs from the all-X state**, and verify optimisations
against that weaker invariant.  This module implements the decision
procedure.

Two circuits C and D (same PIs/POs) are *CLS-equivalent* iff for every
finite sequence of three-valued input vectors, the CLS output sequences
from the all-X power-up states coincide.  Because the CLS is a
deterministic transition system over ternary states, this is a safety
property of the synchronous product:

* explore the reachable pairs ``(state_C, state_D)`` from
  ``(all-X, all-X)`` under all ``3**num_inputs`` ternary input symbols;
* the circuits are CLS-equivalent iff no reachable pair produces
  different output vectors.

The reachable pair space is bounded by ``3**(n_C + n_D)`` but in
practice tiny: X's persist or collapse monotonically along fixed input
prefixes, and the search memoises pairs.  A breadth-first order makes
extracted counterexamples (distinguishing input sequences) minimal.

Each reached pair is stepped with all ``3**num_inputs`` symbols, so
the work is pairs times symbols.  The budget counts exactly that: one
*pair visit* per (pair, symbol) step, a pair reached again counting
again.  A wide circuit therefore ends undecided after the same bounded
work as a narrow one (s208, with 10 inputs, visits 59,049 pairs from
its first pair alone).

This gives a *complete* verifier for the invariant that
:func:`repro.retime.validity.cls_equivalent` samples randomly -- and an
executable Corollary 5.3: for retimed pairs the verifier always answers
"equivalent" (see ``tests/stg/test_ternary_equiv.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..logic.ternary import ONE, T, X, ZERO, format_ternary_sequence
from ..netlist.circuit import Circuit
from ..netlist.validate import check_interfaces
from ..sim.compiled import compile_circuit
from ..sim.ternary_sim import all_x_state
from .replaceability import SearchBudgetExceeded

__all__ = [
    "CLSDistinguisher",
    "decide_cls_equivalence",
    "cls_equivalent_exhaustive",
    "cls_reachable_pairs",
    "MAX_PAIRS",
]

#: Budget on pair visits: one per (reached pair, ternary input symbol)
#: step, so it bounds the search's work, not only its memory.
MAX_PAIRS = 200_000

TernaryVec = Tuple[T, ...]


@dataclass(frozen=True)
class CLSDistinguisher:
    """A witness that two circuits are NOT CLS-equivalent.

    ``inputs`` is a minimal-length sequence of ternary input vectors;
    after applying it from the all-X states, the final cycle's outputs
    differ: ``outputs_c`` vs ``outputs_d``.
    """

    inputs: Tuple[TernaryVec, ...]
    outputs_c: TernaryVec
    outputs_d: TernaryVec

    def describe(self) -> str:
        return "inputs %s: C outputs %s, D outputs %s" % (
            " ".join(format_ternary_sequence(v, sep="") for v in self.inputs),
            format_ternary_sequence(self.outputs_c),
            format_ternary_sequence(self.outputs_d),
        )


def _ternary_symbols(width: int) -> List[TernaryVec]:
    symbols: List[TernaryVec] = [()]
    for _ in range(width):
        symbols = [vec + (v,) for vec in symbols for v in (ZERO, ONE, X)]
    return symbols


def decide_cls_equivalence(
    c: Circuit,
    d: Circuit,
    *,
    max_pairs: int = MAX_PAIRS,
    start_c: Optional[TernaryVec] = None,
    start_d: Optional[TernaryVec] = None,
) -> Optional[CLSDistinguisher]:
    """Decide CLS-equivalence; ``None`` means equivalent, otherwise a
    minimal distinguishing input sequence is returned.

    ``start_c``/``start_d`` override the initial ternary states (default
    all-X, the paper's convention).  Overriding them turns the checker
    into an ablation instrument: e.g. starting both machines all-ZERO
    asks whether a *zero-initialising* ternary methodology would be
    retiming-invariant (it is not -- see the ablation benchmark).

    Raises :class:`ValueError` on interface mismatch and
    :class:`~repro.stg.replaceability.SearchBudgetExceeded` past
    *max_pairs* pair visits (one per reached pair and ternary input
    symbol), so a wide circuit ends undecided instead of hanging.
    """
    check_interfaces(c, d)
    sim_c = compile_circuit(c)
    sim_d = compile_circuit(d)
    symbols = _ternary_symbols(len(c.inputs))

    start = (
        start_c if start_c is not None else all_x_state(c),
        start_d if start_d is not None else all_x_state(d),
    )
    parents: Dict[
        Tuple[TernaryVec, TernaryVec],
        Optional[Tuple[Tuple[TernaryVec, TernaryVec], TernaryVec]],
    ] = {start: None}
    queue: deque = deque([start])

    def trail(node) -> Tuple[TernaryVec, ...]:
        inputs: List[TernaryVec] = []
        while parents[node] is not None:
            node, symbol = parents[node]
            inputs.append(symbol)
        inputs.reverse()
        return tuple(inputs)

    visits = 0
    while queue:
        node = queue.popleft()
        state_c, state_d = node
        for symbol in symbols:
            visits += 1
            if visits > max_pairs:
                raise SearchBudgetExceeded(
                    _over_budget("CLS-equivalence search", max_pairs)
                )
            out_c, next_c = sim_c.step_ternary(state_c, symbol)
            out_d, next_d = sim_d.step_ternary(state_d, symbol)
            if out_c != out_d:
                return CLSDistinguisher(
                    inputs=trail(node) + (symbol,),
                    outputs_c=out_c,
                    outputs_d=out_d,
                )
            child = (next_c, next_d)
            if child not in parents:
                parents[child] = (node, symbol)
                queue.append(child)
    return None


def _over_budget(search: str, max_pairs: int) -> str:
    return (
        "%s exceeded %d state pairs visited (one visit per reached pair and "
        "ternary input symbol)" % (search, max_pairs)
    )


def cls_equivalent_exhaustive(
    c: Circuit, d: Circuit, *, max_pairs: int = MAX_PAIRS
) -> bool:
    """Boolean form of :func:`decide_cls_equivalence`."""
    return decide_cls_equivalence(c, d, max_pairs=max_pairs) is None


def cls_reachable_pairs(
    c: Circuit, d: Circuit, *, max_pairs: int = MAX_PAIRS
) -> int:
    """Number of reachable ternary state pairs of the product (a size
    diagnostic for the decision procedure); raises
    :class:`~repro.stg.replaceability.SearchBudgetExceeded` past
    *max_pairs* pair visits, counted as by :func:`decide_cls_equivalence`."""
    sim_c = compile_circuit(c)
    sim_d = compile_circuit(d)
    symbols = _ternary_symbols(len(c.inputs))
    start = (all_x_state(c), all_x_state(d))
    seen = {start}
    queue: deque = deque([start])
    visits = 0
    while queue:
        state_c, state_d = queue.popleft()
        for symbol in symbols:
            visits += 1
            if visits > max_pairs:
                raise SearchBudgetExceeded(_over_budget("CLS reachability", max_pairs))
            _, next_c = sim_c.step_ternary(state_c, symbol)
            _, next_d = sim_d.step_ternary(state_d, symbol)
            child = (next_c, next_d)
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return len(seen)
