"""Redundancy removal preserving three-valued simulation equivalence.

The paper's conclusion sketches a research program: once correctness is
judged by a conservative three-valued simulator from the all-X state,
one can build "other optimization algorithms which seek only to
preserve this invariant (and not the invariant of safe replaceability)"
-- citing Cheng's redundancy removal for reset-free circuits [Che93] as
the nearest relative.  This module is that optimizer, in the simplest
complete form the library supports:

a net/constant pair ``(n, v)`` is *CLS-redundant* when rewiring every
reader of ``n`` to the constant ``v`` yields a circuit that is
CLS-equivalent to the original -- decided **exactly** by the product
exploration of :mod:`repro.stg.ternary_equiv`, not approximated.

Subtlety the paper's Section 5 example forces: a net that is constant
in *reality* need not be CLS-redundant.  The output of
``AND(q, NOT q)`` is 0 for every power-up state, but the CLS sees
``AND(X, X) = X`` there; replacing it with constant 0 would *change*
three-valued behaviour (it could even turn an uninitialisable-looking
design into an initialisable-looking one), so the optimizer must keep
it.  The test-suite pins exactly this case.

Cost model: each substitution can only remove logic (dangling cells and
latches are swept), so area is monotonically non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..netlist.transform import rewire_readers, sweep_dangling
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import traced as _traced
from ..stg.ternary_equiv import cls_equivalent_exhaustive

__all__ = [
    "RedundancyReport",
    "is_cls_redundant",
    "logic_size",
    "remove_cls_redundancies",
    "substitute_constant",
]


def substitute_constant(circuit: Circuit, net: str, value: bool) -> Circuit:
    """The circuit with every reader of *net* fed the constant *value*.

    The old driver cone is swept once dangling, and junctions that lose
    branches are narrowed, so the substitution can only remove logic.
    On single-fanout normal-form inputs the result is again in normal
    form (up to unread primary inputs, which are part of the interface
    and kept).
    """
    work = circuit.copy()
    const_net = work.fresh_net("const%d@%s" % (int(value), net))
    from ..logic.functions import make_gate

    work.add_cell(
        work.fresh_name("k%d@%s" % (int(value), net)),
        make_gate("CONST1" if value else "CONST0", 0),
        (),
        (const_net,),
    )
    rewired = rewire_readers(work, net, const_net)
    return _tidy(rewired)


def _tidy(circuit: Circuit) -> Circuit:
    """Sweep dead logic and narrow junctions with dead branches, to a
    fixpoint."""
    from ..logic.functions import junction
    from ..netlist.circuit import Cell

    current = circuit
    while True:
        current = sweep_dangling(current)
        narrowed = False
        for cell in current.cells:
            if not cell.function.name.startswith("JUNC"):
                continue
            live = tuple(n for n in cell.outputs if current.fanout_count(n) > 0)
            if len(live) == len(cell.outputs) or not live:
                continue  # fully live, or fully dead (sweep handles it)
            current = current.copy()
            current.replace_cell(
                cell.name, Cell(cell.name, junction(len(live)), cell.inputs, live)
            )
            narrowed = True
            break
        if not narrowed:
            return current


def logic_size(circuit: Circuit) -> Tuple[int, int]:
    """(logic cells, latches): junctions, buffers and constants are
    wiring/bookkeeping, not logic, and don't count."""
    cells = sum(
        1
        for cell in circuit.cells
        if not cell.function.name.startswith(("JUNC", "BUF", "CONST"))
    )
    return cells, circuit.num_latches


def is_cls_redundant(
    circuit: Circuit, net: str, value: bool, *, max_pairs: int = 50_000
) -> bool:
    """Is feeding constant *value* to *net*'s readers CLS-invisible?"""
    candidate = substitute_constant(circuit, net, value)
    return cls_equivalent_exhaustive(circuit, candidate, max_pairs=max_pairs)


@dataclass
class RedundancyReport:
    """What :func:`remove_cls_redundancies` did.

    ``substitutions`` lists the accepted ``(net, constant)`` pairs in
    application order; sizes are :func:`logic_size` pairs
    (logic cells, latches) before and after.
    """

    circuit: Circuit
    substitutions: List[Tuple[str, bool]] = field(default_factory=list)
    tested: int = 0
    before: Tuple[int, int] = (0, 0)
    after: Tuple[int, int] = (0, 0)

    @property
    def cells_removed(self) -> int:
        return self.before[0] - self.after[0]

    @property
    def latches_removed(self) -> int:
        return self.before[1] - self.after[1]

    def summary(self) -> str:
        return (
            "%d candidate substitutions tested, %d applied; "
            "logic cells %d -> %d, latches %d -> %d"
            % (
                self.tested,
                len(self.substitutions),
                self.before[0],
                self.after[0],
                self.before[1],
                self.after[1],
            )
        )


def _candidate_pairs(
    current: Circuit, candidates: Optional[Sequence[str]]
) -> List[Tuple[str, bool]]:
    """The (net, constant) pairs one scan round tries, in serial order."""
    nets = (
        list(candidates)
        if candidates is not None
        else [net for cell in current.cells for net in cell.outputs]
    )
    pairs: List[Tuple[str, bool]] = []
    for net in nets:
        if not current.has_net(net):
            continue
        driver = current.driver_of(net)
        if driver[0] == "cell" and current.cell(driver[1]).function.name.startswith(
            "CONST"
        ):
            continue  # already constant
        pairs.append((net, False))
        pairs.append((net, True))
    return pairs


@_traced("optimize.redundancy")
def remove_cls_redundancies(
    circuit: Circuit,
    *,
    candidates: Optional[Sequence[str]] = None,
    max_pairs: int = 50_000,
) -> RedundancyReport:
    """Greedy redundancy removal under the CLS-equivalence invariant.

    Tries each candidate net (default: every cell output) against both
    constants; accepted substitutions are applied immediately and the
    scan restarts on the simplified circuit, so later candidates are
    judged in context.  Exact but exponential in the ternary product
    state space -- intended for the small circuits of this reproduction.
    A search past *max_pairs* pair visits (one per reached state pair
    and ternary input symbol) raises
    :class:`~repro.stg.replaceability.SearchBudgetExceeded`.
    """
    report = RedundancyReport(
        circuit=circuit,
        before=logic_size(circuit),
        after=logic_size(circuit),
    )
    current = circuit
    progress = True
    while progress:
        progress = False
        for net, value in _candidate_pairs(current, candidates):
            report.tested += 1
            candidate = substitute_constant(current, net, value)
            if logic_size(candidate) >= logic_size(current):
                # No simplification gained; skip the expensive check.
                # (Strict decrease also guarantees termination.)
                continue
            if cls_equivalent_exhaustive(current, candidate, max_pairs=max_pairs):
                current = candidate
                report.substitutions.append((net, value))
                progress = True
                break
    report.circuit = current
    report.after = logic_size(current)
    if _TRACE.enabled:
        _TRACE.incr("optimize.redundancy.tested", report.tested)
        _TRACE.incr("optimize.redundancy.accepted", len(report.substitutions))
    return report
