"""Computing initial states of retimed circuits (the [TB93] problem).

The paper pointedly *avoids* requiring initial states ("we avoid the
problem pursued by Touati and Brayton in retiming the initial state"),
but the contrast only lands if that problem is on the table.  This
module implements the Touati-Brayton computation over our atomic-move
sessions: given an initial state of the original circuit, push it
through each retiming move to obtain an equivalent initial state of the
retimed circuit.

* **Forward move** across F: the removed input latches held the vector
  Y; the new output latches must hold ``F(Y)``.  Always succeeds --
  forward moves only ever need function evaluation.
* **Backward move** across F: the removed output latches held the
  vector Y'; the new input latches must hold some Z with
  ``F(Z) = Y'`` -- a *justification* problem.  It fails exactly when
  Y' is not in F's image (possible only at non-justifiable elements,
  tying [TB93]'s incompleteness to the paper's Section 3.2 taxonomy),
  and even when it succeeds the choice of Z may be non-deterministic
  (we take the canonical first witness).

This is the classical reason retiming tools restricted themselves to
forward moves when designs carried reset states -- and the paper's
model (no initial states at all) dissolves the problem entirely.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..logic.justifiability import justify
from .engine import RetimingSession

__all__ = ["InitialStateError", "propagate_initial_state"]


class InitialStateError(ValueError):
    """Raised when a backward move's justification fails.

    Carries the offending move index and the unjustifiable vector, so
    callers can report *why* the retimed circuit has no equivalent
    initial state -- [TB93]'s fundamental incompleteness.
    """

    def __init__(self, move_index: int, element: str, vector: Tuple[bool, ...]) -> None:
        self.move_index = move_index
        self.element = element
        self.vector = vector
        super().__init__(
            "backward move #%d across %s needs an input vector producing %s, "
            "but that output vector is unjustifiable"
            % (move_index, element, "".join("1" if b else "0" for b in vector))
        )


def propagate_initial_state(
    session: RetimingSession, initial_state: Sequence[bool]
) -> Tuple[bool, ...]:
    """Push *initial_state* of ``session.original`` through every move.

    Returns the equivalent initial state of ``session.current`` (in its
    latch order).  Raises :class:`InitialStateError` when a backward
    move requires justifying an unjustifiable output vector.
    """
    if len(initial_state) != session.original.num_latches:
        raise ValueError(
            "initial state width %d, circuit has %d latches"
            % (len(initial_state), session.original.num_latches)
        )
    # Track values by latch NAME, since orders shift across moves.
    values: Dict[str, bool] = {
        name: bool(bit)
        for name, bit in zip(session.original.latch_names, initial_state)
    }

    for index, applied in enumerate(session.history):
        removed = tuple(values.pop(name) for name in applied.removed)
        if applied.forward:
            # The input latches held Y; the new output latches hold F(Y).
            created = applied.function.eval_binary(removed)
        else:
            # The output latches held Y'; the new input latches need
            # some Z with F(Z) = Y'.
            created = justify(applied.function, removed)
            if created is None:
                raise InitialStateError(index, applied.move.element, removed)
        values.update(zip(applied.created, created))

    return tuple(values[name] for name in session.current.latch_names)
