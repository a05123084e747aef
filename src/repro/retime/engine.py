"""The retiming engine: move sequences and hazard accounting.

The paper views "retiming" as a *sequence of atomic moves* applied to an
initial circuit (Section 3.2), and its results are phrased in terms of
that sequence:

* Corollary 4.4 -- if **no** move is a forward move across a
  non-justifiable element, then ``C ⊑ D``;
* Theorem 4.5 -- if no non-justifiable element is crossed forward more
  than ``k`` times, then ``C^k ⊑ D``.

:class:`RetimingSession` applies moves one at a time and records each
move's :class:`~repro.retime.moves.MoveKind`, crossed cell function and
removed and created latch names (:class:`AppliedMove`, the one record
that initial-state propagation and the move certificate both read).
It maintains the per-element *net forward crossing count* used to
compute the tightest ``k`` Theorem 4.5 allows: a backward move across
an element undoes a prior forward move across it, so the bound tracks
the running maximum of the net count per non-justifiable element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..logic.functions import CellFunction
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .moves import (
    Direction,
    MoveKind,
    RetimingMove,
    classify_move,
    execute_move,
)

__all__ = ["AppliedMove", "RetimingSession", "replay_moves"]


@dataclass(frozen=True)
class AppliedMove:
    """One executed move: its classification, the crossed cell's
    function, and the names of the latches it removed and created, each
    in the cell's pin order -- the facts the move relates (y = F(z),
    with z the latches on F's inputs and y those on its outputs)."""

    move: RetimingMove
    kind: MoveKind
    function: CellFunction
    removed: Tuple[str, ...]
    created: Tuple[str, ...]

    @property
    def forward(self) -> bool:
        """Did the latches cross forward (z removed, y created)?"""
        return self.move.direction is Direction.FORWARD


class RetimingSession:
    """Apply a sequence of atomic moves to a circuit, keeping score.

    Parameters
    ----------
    circuit:
        The original design D.  Never mutated; :attr:`current` holds
        the work-in-progress retimed design.

    Attributes
    ----------
    original:
        The untouched starting circuit.
    current:
        The circuit after all applied moves.
    history:
        The list of :class:`AppliedMove` in application order.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.original = circuit
        self.current = circuit.copy()
        self.history: List[AppliedMove] = []
        # Net forward crossings per element, and the running max for
        # non-justifiable elements (Theorem 4.5's k).
        self._net_forward: Dict[str, int] = {}
        self._max_forward: Dict[str, int] = {}

    # -- applying moves ---------------------------------------------------

    def apply(self, move: RetimingMove) -> Circuit:
        """Apply one move; returns the new current circuit."""
        with _span("retime.move"):
            kind = classify_move(self.current, move)
            function = self.current.cell(move.element).function
            self.current, removed, created = execute_move(self.current, move)
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["retime.moves.applied"] = (
                counters.get("retime.moves.applied", 0) + 1
            )
            direction_key = (
                "retime.moves.forward"
                if move.direction is Direction.FORWARD
                else "retime.moves.backward"
            )
            counters[direction_key] = counters.get(direction_key, 0) + 1
            if kind is MoveKind.FORWARD_NON_JUSTIFIABLE:
                counters["retime.moves.hazardous"] = (
                    counters.get("retime.moves.hazardous", 0) + 1
                )
        self.history.append(AppliedMove(move, kind, function, removed, created))
        delta = 1 if move.direction is Direction.FORWARD else -1
        net = self._net_forward.get(move.element, 0) + delta
        self._net_forward[move.element] = net
        if kind in (MoveKind.FORWARD_NON_JUSTIFIABLE, MoveKind.BACKWARD_NON_JUSTIFIABLE):
            previous = self._max_forward.get(move.element, 0)
            self._max_forward[move.element] = max(previous, net)
        return self.current

    def forward(self, element: str) -> Circuit:
        """Apply ``forward(element)``."""
        return self.apply(RetimingMove(element, Direction.FORWARD))

    def backward(self, element: str) -> Circuit:
        """Apply ``backward(element)``."""
        return self.apply(RetimingMove(element, Direction.BACKWARD))

    # -- hazard accounting -------------------------------------------------

    @property
    def moves(self) -> Tuple[RetimingMove, ...]:
        return tuple(applied.move for applied in self.history)

    def kind_counts(self) -> Dict[MoveKind, int]:
        """How many moves of each of the four kinds were applied."""
        counts: Dict[MoveKind, int] = {kind: 0 for kind in MoveKind}
        for applied in self.history:
            counts[applied.kind] += 1
        return counts

    @property
    def hazardous_move_count(self) -> int:
        """Total forward moves across non-justifiable elements."""
        return self.kind_counts()[MoveKind.FORWARD_NON_JUSTIFIABLE]

    @property
    def theorem45_k(self) -> int:
        """The tightest ``k`` for Theorem 4.5: the maximum, over
        non-justifiable elements, of the peak net forward crossing
        count.  0 means Corollary 4.4 applies and ``C ⊑ D`` outright.
        """
        if not self._max_forward:
            return 0
        return max(0, max(self._max_forward.values()))

    @property
    def is_safe_per_corollary44(self) -> bool:
        """Did the whole sequence avoid hazardous moves (kind iv)?"""
        return self.hazardous_move_count == 0

    def summary(self) -> str:
        """One-paragraph human-readable account of the session."""
        counts = self.kind_counts()
        lines = [
            "retiming %s -> %s: %d moves"
            % (self.original.name, self.current.name, len(self.history))
        ]
        for kind in MoveKind:
            if counts[kind]:
                lines.append("  %-45s %d" % (kind.value, counts[kind]))
        lines.append("  Theorem 4.5 bound k = %d" % self.theorem45_k)
        lines.append(
            "  Corollary 4.4 (C <= D without delay): %s"
            % ("applies" if self.is_safe_per_corollary44 else "does NOT apply")
        )
        return "\n".join(lines)


def replay_moves(circuit: Circuit, moves: Sequence[RetimingMove]) -> RetimingSession:
    """Apply *moves* to a copy of *circuit* and return the session."""
    session = RetimingSession(circuit)
    for move in moves:
        session.apply(move)
    return session
