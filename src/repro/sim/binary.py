"""Two-valued (Boolean) cycle simulation.

This is an ordinary logic simulator: given a concrete power-up state it
computes exact Boolean outputs cycle by cycle.  The paper uses it
implicitly everywhere a specific power-up state is discussed -- e.g. the
rows of Table 1 are one binary simulation per power-up state.  Each
cycle runs on the compile-once core of :mod:`repro.sim.compiled`; the
exact sweep (:mod:`repro.sim.exact`) and STG extraction
(:mod:`repro.stg.explicit`) run the same program over every power-up
state at once, one lane mask bit per state.

The state vector convention is shared with the whole library: element
``i`` of a state tuple is the content of ``circuit.latch_names[i]``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit
from .compiled import compile_circuit
from .core import SimulationTrace

__all__ = [
    "BinarySimulator",
    "all_power_up_states",
    "state_from_int",
    "state_to_int",
    "parse_state",
    "format_state",
]

BoolVec = Tuple[bool, ...]


class BinarySimulator:
    """Simulate a circuit with Boolean values from a given state.

    Parameters
    ----------
    circuit:
        The circuit to simulate (validated by construction elsewhere).
    overrides:
        Optional stuck-at fault forcing: net -> bool.  See
        :mod:`repro.sim.fault` for the high-level fault API.

    Every cycle evaluates through the flat program of
    :mod:`repro.sim.compiled`.
    """

    def __init__(
        self, circuit: Circuit, overrides: Optional[Mapping[str, bool]] = None
    ) -> None:
        self.circuit = circuit
        self.overrides = dict(overrides) if overrides else {}

    def step(self, state: Sequence[bool], inputs: Sequence[bool]) -> Tuple[BoolVec, BoolVec]:
        """One clock cycle: returns ``(outputs, next_state)``."""
        return compile_circuit(self.circuit).step_binary(
            tuple(state), tuple(inputs), overrides=self.overrides or None
        )

    def run(
        self, state: Sequence[bool], input_sequence: Iterable[Sequence[bool]]
    ) -> SimulationTrace:
        """Simulate the whole *input_sequence* from *state*."""
        trace: SimulationTrace = SimulationTrace()
        current = tuple(bool(v) for v in state)
        trace.states.append(current)
        for raw in input_sequence:
            vector = tuple(bool(v) for v in raw)
            outputs, current = self.step(current, vector)
            trace.inputs.append(vector)
            trace.outputs.append(outputs)
            trace.states.append(current)
        return trace

    def output_sequence(
        self, state: Sequence[bool], input_sequence: Iterable[Sequence[bool]]
    ) -> Tuple[BoolVec, ...]:
        """Just the output vectors of :meth:`run`."""
        return tuple(self.run(state, input_sequence).outputs)


def all_power_up_states(circuit: Circuit) -> Iterator[BoolVec]:
    """All ``2**n`` power-up states in canonical (binary counting) order.

    The order matches :func:`state_from_int`: latch 0 is the most
    significant bit, so states read naturally as binary strings over
    ``circuit.latch_names``.
    """
    for bits in itertools.product((False, True), repeat=circuit.num_latches):
        yield bits


def state_from_int(circuit: Circuit, value: int) -> BoolVec:
    """Decode an integer into a state tuple (latch 0 = MSB)."""
    n = circuit.num_latches
    if not 0 <= value < 2 ** n:
        raise ValueError("state %d out of range for %d latches" % (value, n))
    return tuple(bool((value >> (n - 1 - i)) & 1) for i in range(n))


def state_to_int(state: Sequence[bool]) -> int:
    """Inverse of :func:`state_from_int`."""
    value = 0
    for bit in state:
        value = (value << 1) | int(bool(bit))
    return value


def parse_state(text: str) -> BoolVec:
    """Parse a state string like ``"10"`` into ``(True, False)``."""
    out = []
    for ch in text:
        if ch in " _":
            continue
        if ch == "0":
            out.append(False)
        elif ch == "1":
            out.append(True)
        else:
            raise ValueError("invalid state character %r" % ch)
    return tuple(out)


def format_state(state: Sequence[bool]) -> str:
    """Render a state tuple as a binary string (``(True, False)`` -> ``"10"``)."""
    return "".join("1" if bit else "0" for bit in state)
