"""Explicit state-transition-graph (STG) extraction.

Following Pixley's setup (quoted in the paper's introduction), the STG
of a circuit with ``n`` latches is a *completely specified* Mealy
machine with ``2**n`` states: every state is a legal power-up state,
whether or not it is reachable from anywhere.  The STG is the object on
which the paper's behavioural notions -- implication ``C ⊑ D``, safe
replacement ``C ≼ D``, delayed designs ``D^n``, SHE's TSCC analysis --
are defined, and this module materialises it by exhaustive simulation:
one step of the compiled core (:mod:`repro.sim.compiled`) per input
symbol, over integer lane masks that hold every power-up state at once.

Sizes: building an STG costs ``2**(latches + inputs)`` simulator steps.
The guard :data:`MAX_STG_BITS` keeps accidental blow-ups from hanging a
test run; the circuits the paper's arguments need STGs for have a
handful of latches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import traced as _traced
from ..sim.compiled import compile_circuit, exhaustive_state_masks, mask_to_column

__all__ = [
    "STG",
    "extract_stg",
    "MAX_STG_BITS",
    "StateSpaceTooLarge",
    "check_stg_interfaces",
    "check_stg_size",
]

MAX_STG_BITS = 22


class StateSpaceTooLarge(ValueError):
    """The STG would need more than ``2**max_bits`` entries."""


def check_stg_size(circuit: Circuit, max_bits: int = MAX_STG_BITS) -> None:
    """Raise :class:`StateSpaceTooLarge` when tabulating *circuit*'s STG
    would cost more than ``2**max_bits`` simulator steps."""
    bits = circuit.num_latches + len(circuit.inputs)
    if bits > max_bits:
        raise StateSpaceTooLarge(
            "STG of %s needs 2**%d entries (limit 2**%d)"
            % (circuit.name, bits, max_bits)
        )


BoolVec = Tuple[bool, ...]


@dataclass
class STG:
    """A completely specified Mealy machine, explicitly tabulated.

    States and input symbols are dense integer indices:

    * state ``s`` encodes the latch vector via binary counting (latch 0
      is the most significant bit -- the same convention as
      :func:`repro.sim.binary.state_from_int`),
    * input symbol ``a`` likewise encodes the primary-input vector.

    ``next_state[s][a]`` and ``output[s][a]`` give the transition and
    the output symbol (output vectors encoded as integers the same way).
    """

    num_latches: int
    num_inputs: int
    num_outputs: int
    next_state: List[List[int]]
    output: List[List[int]]
    name: str = "stg"

    @property
    def num_states(self) -> int:
        return 1 << self.num_latches

    @property
    def num_symbols(self) -> int:
        return 1 << self.num_inputs

    def state_label(self, state: int) -> str:
        """Binary string label of a state (e.g. ``"10"``)."""
        if self.num_latches == 0:
            return "-"
        return format(state, "0%db" % self.num_latches)

    def output_vector(self, symbol: int) -> BoolVec:
        """Decode an output symbol back into a bool vector."""
        return tuple(
            bool((symbol >> (self.num_outputs - 1 - i)) & 1)
            for i in range(self.num_outputs)
        )

    def run(self, state: int, symbols: Sequence[int]) -> Tuple[List[int], int]:
        """Run the machine; returns ``(output symbols, final state)``."""
        outputs: List[int] = []
        current = state
        for a in symbols:
            outputs.append(self.output[current][a])
            current = self.next_state[current][a]
        return outputs, current

    def successors(self, states: Iterable[int]) -> frozenset:
        """One-step image of a state set under *all* inputs."""
        result = set()
        for s in states:
            result.update(self.next_state[s])
        return frozenset(result)

    def edges(self) -> Iterable[Tuple[int, int, int, int]]:
        """Yield all transitions as ``(state, symbol, next, output)``."""
        for s in range(self.num_states):
            row_n = self.next_state[s]
            row_o = self.output[s]
            for a in range(self.num_symbols):
                yield s, a, row_n[a], row_o[a]

    def pretty(self) -> str:
        """Tabular dump of the machine, one row per (state, input)."""
        lines = [
            "STG %s: %d states, %d input symbols, %d output bits"
            % (self.name, self.num_states, self.num_symbols, self.num_outputs)
        ]
        for s, a, nxt, out in self.edges():
            lines.append(
                "  %s --%s/%s--> %s"
                % (
                    self.state_label(s),
                    format(a, "0%db" % max(self.num_inputs, 1)),
                    format(out, "0%db" % max(self.num_outputs, 1)),
                    self.state_label(nxt),
                )
            )
        return "\n".join(lines)


def check_stg_interfaces(c: STG, d: STG) -> None:
    """Raise :class:`ValueError` unless machines *c* and *d* have as
    many inputs, and as many outputs, as each other."""
    if c.num_inputs != d.num_inputs or c.num_outputs != d.num_outputs:
        raise ValueError(
            "machines have mismatched interfaces: %d/%d inputs, %d/%d outputs"
            % (c.num_inputs, d.num_inputs, c.num_outputs, d.num_outputs)
        )


def _codes(masks: Sequence[int], lanes: int) -> List[int]:
    """Each lane's bits across *masks* as one integer, the first mask
    the most significant bit: a state or output symbol per lane."""
    codes = np.zeros(lanes, dtype=np.int64)
    for mask in masks:
        codes = (codes << 1) | mask_to_column(mask, lanes)
    return codes.tolist()


@_traced("stg.extract")
def extract_stg(circuit: Circuit, *, max_bits: int = MAX_STG_BITS) -> STG:
    """Tabulate the complete STG of *circuit* by exhaustive simulation.

    One compiled lane-mask step per input symbol, over the ``2**n``
    power-up lanes of :func:`~repro.sim.compiled.exhaustive_state_masks`
    (lane ``s`` is state ``s``).  Raises :class:`StateSpaceTooLarge`
    when ``latches + inputs`` exceeds *max_bits*.
    """
    check_stg_size(circuit, max_bits)
    n, m = circuit.num_latches, len(circuit.inputs)
    num_outputs = len(circuit.outputs)
    compiled = compile_circuit(circuit)
    states = exhaustive_state_masks(n)

    num_states = 1 << n
    num_symbols = 1 << m
    lanes = (1 << num_states) - 1
    next_state: List[List[int]] = [[0] * num_symbols for _ in range(num_states)]
    output: List[List[int]] = [[0] * num_symbols for _ in range(num_states)]

    for symbol in range(num_symbols):
        inputs = [lanes if (symbol >> (m - 1 - i)) & 1 else 0 for i in range(m)]
        outs, nxt = compiled.step_binary_masks(states, inputs, lanes)
        nxt_list = _codes(nxt, num_states)
        out_list = _codes(outs, num_states)
        for s in range(num_states):
            next_state[s][symbol] = nxt_list[s]
            output[s][symbol] = out_list[s]

    if _TRACE.enabled:
        _TRACE.incr("stg.extracted")
        _TRACE.incr("stg.transitions", num_states * num_symbols)
    return STG(
        num_latches=n,
        num_inputs=m,
        num_outputs=num_outputs,
        next_state=next_state,
        output=output,
        name=circuit.name,
    )
