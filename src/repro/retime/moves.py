"""Atomic retiming moves (Section 3.2, Figure 6).

With fanout junctions modelled as explicit multi-output ``JUNC`` cells,
a circuit in single-fanout normal form admits exactly two kinds of
atomic retiming move across a combinational element F with n inputs and
m outputs:

* **forward**: remove one latch from each of the n inputs and place one
  latch at each of the m outputs;
* **backward**: remove one latch from each of the m outputs and place
  one latch at each of the n inputs.

Section 4 classifies moves along a second axis -- whether F is
*justifiable* -- giving the four kinds (i)-(iv); the only kind that can
break safe replacement is (iv), a forward move across a non-justifiable
element (``JUNC`` being the canonical one).  :func:`classify_move`
computes this classification and :data:`MoveKind.hazardous` flags kind
(iv).

Moves never mutate their input circuit; they return a rewritten copy.
The names of inserted latches and nets are derived deterministically
from the element moved across, so replaying a move sequence is
reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..logic.justifiability import is_justifiable
from ..netlist.circuit import Cell, Circuit, CircuitError

__all__ = [
    "Direction",
    "MoveKind",
    "RetimingMove",
    "MoveError",
    "can_move_forward",
    "can_move_backward",
    "forward_move",
    "backward_move",
    "apply_move",
    "classify_move",
    "execute_move",
    "enabled_moves",
]


#: Latch names in a cell's pin order.
Names = Tuple[str, ...]


class Direction(enum.Enum):
    """Which way the latches travel across the element."""

    FORWARD = "forward"
    BACKWARD = "backward"


class MoveKind(enum.Enum):
    """Section 4's four-way classification of atomic moves."""

    BACKWARD_JUSTIFIABLE = "backward across a justifiable element"  # (i)
    FORWARD_JUSTIFIABLE = "forward across a justifiable element"  # (ii)
    BACKWARD_NON_JUSTIFIABLE = "backward across a non-justifiable element"  # (iii)
    FORWARD_NON_JUSTIFIABLE = "forward across a non-justifiable element"  # (iv)

    @property
    def hazardous(self) -> bool:
        """Kind (iv) -- the only move that can break safe replacement."""
        return self is MoveKind.FORWARD_NON_JUSTIFIABLE


@dataclass(frozen=True)
class RetimingMove:
    """One atomic move: *direction* across cell *element*."""

    element: str
    direction: Direction

    def __str__(self) -> str:
        return "%s(%s)" % (self.direction.value, self.element)


class MoveError(CircuitError):
    """Raised when a move's enabling condition does not hold."""


def _input_latches(circuit: Circuit, cell: Cell) -> Optional[List[str]]:
    """Latch names driving every input of *cell*, or None if any input
    is not latch-driven."""
    latches: List[str] = []
    for net in cell.inputs:
        driver = circuit.driver_of(net)
        if driver[0] != "latch":
            return None
        latches.append(driver[1])
    return latches


def _output_latches(circuit: Circuit, cell: Cell) -> Optional[List[str]]:
    """Latch names reading every output of *cell*, or None if any
    output is read by something other than a single latch."""
    latches: List[str] = []
    for net in cell.outputs:
        readers = circuit.readers_of(net)
        if len(readers) != 1 or readers[0][0] != "latch":
            return None
        latches.append(readers[0][1])
    return latches


def can_move_forward(circuit: Circuit, element: str) -> bool:
    """Is a forward move across *element* enabled (a latch on every
    input)?  Zero-input cells (constants) are always forward-enabled."""
    return _input_latches(circuit, circuit.cell(element)) is not None


def can_move_backward(circuit: Circuit, element: str) -> bool:
    """Is a backward move across *element* enabled (exactly one latch
    reading every output)?"""
    return _output_latches(circuit, circuit.cell(element)) is not None


def forward_move(circuit: Circuit, element: str) -> Circuit:
    """Apply a forward move across *element*; returns a new circuit.

    Removes the latch on each input of the element and inserts a latch
    on each output (Figure 6, top-to-bottom).  Raises
    :class:`MoveError` when some input is not directly latch-driven.
    """
    return _forward(circuit, element)[0]


def _forward(circuit: Circuit, element: str) -> Tuple[Circuit, Names, Names]:
    """:func:`forward_move`, plus the removed input latches and the
    created output latches, each in pin order."""
    result = circuit.copy()
    cell = result.cell(element)
    latch_names = _input_latches(result, cell)
    if latch_names is None:
        raise MoveError(
            "forward move across %s blocked: not every input is latch-driven" % element
        )
    in_latches = [result.latch(name) for name in latch_names]
    new_inputs = tuple(latch.data_in for latch in in_latches)
    for latch in in_latches:
        result.remove_latch(latch.name)

    new_outputs: List[str] = []
    latch_plan: List[Tuple[str, str]] = []
    for net in cell.outputs:
        fresh = result.fresh_net("%s@d" % net)
        new_outputs.append(fresh)
        latch_plan.append((fresh, net))
    result.replace_cell(
        element, Cell(element, cell.function, new_inputs, tuple(new_outputs))
    )
    created = tuple(
        result.add_latch(result.fresh_name("L@%s" % net), fresh, net).name
        for fresh, net in latch_plan
    )
    return result, tuple(latch_names), created


def backward_move(circuit: Circuit, element: str) -> Circuit:
    """Apply a backward move across *element*; returns a new circuit.

    Removes the latch on each output of the element and inserts a latch
    on each input (Figure 6, bottom-to-top).  Raises :class:`MoveError`
    when some output is not read by exactly one latch.
    """
    return _backward(circuit, element)[0]


def _backward(circuit: Circuit, element: str) -> Tuple[Circuit, Names, Names]:
    """:func:`backward_move`, plus the removed output latches and the
    created input latches, each in pin order."""
    result = circuit.copy()
    cell = result.cell(element)
    latch_names = _output_latches(result, cell)
    if latch_names is None:
        raise MoveError(
            "backward move across %s blocked: not every output feeds exactly one latch"
            % element
        )
    out_latches = [result.latch(name) for name in latch_names]
    new_outputs = tuple(latch.data_out for latch in out_latches)
    for latch in out_latches:
        result.remove_latch(latch.name)

    new_inputs: List[str] = []
    created: List[str] = []
    for net in cell.inputs:
        fresh = result.fresh_net("%s@b" % net)
        latch = result.add_latch(result.fresh_name("L@%s" % net), net, fresh)
        created.append(latch.name)
        new_inputs.append(fresh)
    result.replace_cell(
        element, Cell(element, cell.function, tuple(new_inputs), new_outputs)
    )
    return result, tuple(latch_names), tuple(created)


def apply_move(circuit: Circuit, move: RetimingMove) -> Circuit:
    """Dispatch :class:`RetimingMove` to the right rewrite."""
    return execute_move(circuit, move)[0]


def execute_move(circuit: Circuit, move: RetimingMove) -> Tuple[Circuit, Names, Names]:
    """:func:`apply_move`, plus the names of the latches the move
    removed and created, each in the crossed cell's pin order."""
    rewrite = _forward if move.direction is Direction.FORWARD else _backward
    return rewrite(circuit, move.element)


def classify_move(circuit: Circuit, move: RetimingMove) -> MoveKind:
    """Section 4's four-way classification of *move* in *circuit*."""
    cell = circuit.cell(move.element)
    justifiable = is_justifiable(cell.function)
    if move.direction is Direction.BACKWARD:
        return (
            MoveKind.BACKWARD_JUSTIFIABLE
            if justifiable
            else MoveKind.BACKWARD_NON_JUSTIFIABLE
        )
    return (
        MoveKind.FORWARD_JUSTIFIABLE
        if justifiable
        else MoveKind.FORWARD_NON_JUSTIFIABLE
    )


def enabled_moves(
    circuit: Circuit, *, include_hazardous: bool = True
) -> Tuple[RetimingMove, ...]:
    """All atomic moves currently enabled in *circuit*.

    With ``include_hazardous=False``, forward moves across
    non-justifiable elements (kind iv) are filtered out -- the move
    repertoire Corollary 4.4 proves safe.
    """
    moves: List[RetimingMove] = []
    for cell in circuit.cells:
        if can_move_forward(circuit, cell.name):
            move = RetimingMove(cell.name, Direction.FORWARD)
            if include_hazardous or not classify_move(circuit, move).hazardous:
                moves.append(move)
        if can_move_backward(circuit, cell.name):
            moves.append(RetimingMove(cell.name, Direction.BACKWARD))
    return tuple(moves)
