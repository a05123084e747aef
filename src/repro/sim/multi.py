"""Batched Boolean simulation over many power-up states at once.

The paper's hypothetical "sufficiently powerful simulator"
(Section 2.1) reports a definite output value only when **every**
power-up state agrees.  Computing that requires simulating all ``2**n``
states; this module runs them in lock-step, one lane per state.

Since the compile-once refactor this is a thin ndarray adapter over
:mod:`repro.sim.compiled`: the state array is packed column-wise into
integer lane masks, one pass of the compiled program evaluates every
lane, and the results are unpacked back into boolean arrays.
:meth:`BatchedBinarySimulator.run` packs the state **once** and stays
in lane form across the whole sequence -- only the per-cycle outputs
and the final state cross the ndarray boundary.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..netlist.circuit import Circuit
from .compiled import column_to_mask, compile_circuit, mask_to_column

__all__ = ["BatchedBinarySimulator", "all_states_array"]


def all_states_array(num_latches: int) -> np.ndarray:
    """All ``2**n`` states as a boolean array of shape ``(2**n, n)``.

    Row ``i`` equals :func:`repro.sim.binary.state_from_int` of ``i``
    (latch 0 is the most significant bit).
    """
    if num_latches < 0:
        raise ValueError("negative latch count")
    count = 1 << num_latches
    if num_latches == 0:
        return np.zeros((1, 0), dtype=bool)
    indices = np.arange(count, dtype=np.int64)
    columns = [
        ((indices >> (num_latches - 1 - bit)) & 1).astype(bool)
        for bit in range(num_latches)
    ]
    return np.stack(columns, axis=1)


class BatchedBinarySimulator:
    """Simulate many Boolean power-up states in lock-step.

    States are boolean arrays of shape ``(batch, num_latches)``; all
    lanes see the same input vector each cycle (that is the quantifier
    structure of the powerful simulator: one input sequence, all
    power-up states).
    """

    def __init__(
        self, circuit: Circuit, overrides: Optional[Mapping[str, bool]] = None
    ) -> None:
        self.circuit = circuit
        self.overrides = dict(overrides) if overrides else {}

    def _check_and_pack(self, states: np.ndarray) -> Tuple[List[int], int]:
        circuit = self.circuit
        states = np.asarray(states, dtype=bool)
        batch = states.shape[0]
        if states.shape[1] != circuit.num_latches:
            raise ValueError(
                "state array has %d columns, circuit has %d latches"
                % (states.shape[1], circuit.num_latches)
            )
        return (
            [column_to_mask(states[:, j]) for j in range(circuit.num_latches)],
            batch,
        )

    def _step_packed(self, compiled, state_masks, inputs, all_lanes):
        if len(inputs) != compiled.num_inputs:
            raise ValueError(
                "circuit has %d inputs, got %d" % (compiled.num_inputs, len(inputs))
            )
        input_masks = [all_lanes if bit else 0 for bit in inputs]
        return compiled.step_binary_masks(
            state_masks,
            input_masks,
            all_lanes,
            compiled.forced_binary(self.overrides, all_lanes),
        )

    @staticmethod
    def _unpack(masks, batch: int) -> np.ndarray:
        if not masks:
            return np.zeros((batch, 0), dtype=bool)
        return np.stack([mask_to_column(m, batch) for m in masks], axis=1)

    def step(
        self, states: np.ndarray, inputs: Sequence[bool]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One cycle for every lane: returns ``(outputs, next_states)``
        of shapes ``(batch, num_outputs)`` and ``(batch, num_latches)``.
        """
        compiled = compile_circuit(self.circuit)
        state_masks, batch = self._check_and_pack(states)
        out_masks, next_masks = self._step_packed(
            compiled, state_masks, tuple(inputs), (1 << batch) - 1
        )
        return self._unpack(out_masks, batch), self._unpack(next_masks, batch)

    def run(
        self, states: np.ndarray, input_sequence: Iterable[Sequence[bool]]
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Simulate a whole sequence; returns ``(outputs_per_cycle,
        final_states)`` where each outputs entry has shape
        ``(batch, num_outputs)``.  State stays packed between cycles."""
        compiled = compile_circuit(self.circuit)
        state_masks, batch = self._check_and_pack(states)
        all_lanes = (1 << batch) - 1
        outputs_per_cycle: List[np.ndarray] = []
        for vector in input_sequence:
            out_masks, state_masks = self._step_packed(
                compiled, state_masks, tuple(vector), all_lanes
            )
            outputs_per_cycle.append(self._unpack(out_masks, batch))
        return outputs_per_cycle, self._unpack(state_masks, batch)
