"""The trace record every cycle simulator returns.

All scalar simulators (binary, conservative ternary, faulty variants of
either) follow the same schedule each clock cycle:

1. fix the *source nets* -- primary inputs and latch outputs -- from the
   applied input vector and the current state;
2. evaluate every cell once, in topological order of the combinational
   core;
3. read the primary outputs;
4. read the latch data inputs to form the next state.

The only degrees of freedom are the value domain (``bool`` vs
:class:`~repro.logic.ternary.T`) and an optional set of *net overrides*
used for stuck-at fault injection (an overridden net takes the forced
value no matter what its driver computes -- including source nets).
Steps 1-4 run on the compile-once core in :mod:`repro.sim.compiled`;
this module holds the :class:`SimulationTrace` they fill in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, List, Tuple, TypeVar

__all__ = ["SimulationTrace"]

V = TypeVar("V")


@dataclass
class SimulationTrace(Generic[V]):
    """The result of running a simulator over an input sequence.

    Attributes
    ----------
    inputs:
        The applied input vectors, one per cycle.
    outputs:
        The observed primary-output vectors, one per cycle
        (:attr:`Circuit.outputs` order).
    states:
        The latch state *before* each cycle, plus the final state; so
        ``len(states) == len(outputs) + 1``.
    """

    inputs: List[Tuple[V, ...]] = field(default_factory=list)
    outputs: List[Tuple[V, ...]] = field(default_factory=list)
    states: List[Tuple[V, ...]] = field(default_factory=list)

    @property
    def final_state(self) -> Tuple[V, ...]:
        """The latch state after the last simulated cycle."""
        if not self.states:
            raise ValueError("empty trace has no final state")
        return self.states[-1]

    def output_column(self, index: int = 0) -> Tuple[V, ...]:
        """The sequence of values seen at primary output *index*."""
        return tuple(vec[index] for vec in self.outputs)

    def __len__(self) -> int:
        return len(self.outputs)
