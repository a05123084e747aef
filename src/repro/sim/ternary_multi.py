"""Batched conservative three-valued simulation (numpy, dual-rail).

The CLS-invariance checks sweep many ternary input sequences; this
module vectorises them.  A ternary value is encoded *dual-rail* as a
pair of booleans ``(can0, can1)``:

=========  =====  =====
value      can0   can1
=========  =====  =====
``0``      1      0
``1``      0      1
``X``      1      1
=========  =====  =====

(``(0, 0)`` is unused.)  The per-cell exact ternary functions of the
standard library have closed dual-rail forms -- e.g. for AND,
``can1 = a.can1 & b.can1`` and ``can0 = a.can0 | b.can0`` -- which are
plain vectorised boolean algebra.  Each lane carries one independent
simulation, so a whole batch of CLS runs costs one pass.

The simulator delegates to the lane-parallel core in
:mod:`repro.sim.compiled` (the same dual-rail algebra over integer lane
masks, one mask per rail) and keeps the ndarray rail interface for
callers.  Packing and unpacking happen column-wise per net, never lane
by lane.  The per-cell ndarray forms, the executable specification of
the encoding, live with the test suite (``tests/dual_rail.py``).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit
from .compiled import column_to_mask, compile_circuit, mask_to_column

__all__ = ["BatchedTernarySimulator", "encode_ternary", "decode_ternary"]

Rail = Tuple[np.ndarray, np.ndarray]  # (can0, can1), each shape (batch,)


def encode_ternary(values: Sequence[T]) -> Rail:
    """Encode a lane-vector of ternary values as dual-rail arrays."""
    can0 = np.array([v is not ONE for v in values], dtype=bool)
    can1 = np.array([v is not ZERO for v in values], dtype=bool)
    return can0, can1


def decode_ternary(rail: Rail) -> Tuple[T, ...]:
    """Decode dual-rail arrays back into ternary values."""
    can0, can1 = rail
    out: List[T] = []
    for c0, c1 in zip(can0, can1):
        if c0 and c1:
            out.append(X)
        elif c1:
            out.append(ONE)
        elif c0:
            out.append(ZERO)
        else:
            raise ValueError("invalid dual-rail encoding (0, 0)")
    return tuple(out)


class BatchedTernarySimulator:
    """Run many independent CLS lanes in lock-step.

    States and inputs are dual-rail array pairs of shape ``(batch,)``
    per latch / per input pin; :meth:`run_sequences` offers the
    high-level "N sequences at once" interface used by the invariance
    checkers.
    """

    def __init__(
        self, circuit: Circuit, overrides: Optional[Mapping[str, T]] = None
    ) -> None:
        self.circuit = circuit
        self.overrides = dict(overrides) if overrides else {}

    def step(
        self, state: List[Rail], inputs: List[Rail]
    ) -> Tuple[List[Rail], List[Rail]]:
        """One cycle for every lane: ``(outputs, next_state)``."""
        circuit = self.circuit
        if len(inputs) != len(circuit.inputs):
            raise ValueError("input rail count mismatch")
        if len(state) != circuit.num_latches:
            raise ValueError("state rail count mismatch")
        batch = inputs[0][0].shape[0] if inputs else (
            state[0][0].shape[0] if state else 1
        )
        compiled = compile_circuit(circuit)
        all_lanes = (1 << batch) - 1
        state_masks = [(column_to_mask(c0), column_to_mask(c1)) for c0, c1 in state]
        input_masks = [(column_to_mask(c0), column_to_mask(c1)) for c0, c1 in inputs]
        out_masks, next_masks = compiled.step_ternary_masks(
            state_masks,
            input_masks,
            all_lanes,
            compiled.forced_ternary(self.overrides, all_lanes),
        )

        def unpack(rails):
            return [
                (mask_to_column(a, batch), mask_to_column(b, batch)) for a, b in rails
            ]

        return unpack(out_masks), unpack(next_masks)

    def run_sequences(
        self, sequences: Sequence[Sequence[Sequence[T]]]
    ) -> List[List[Tuple[T, ...]]]:
        """CLS outputs for N equal-length sequences, all from all-X.

        Returns ``results[seq_index][cycle] = output vector``.  Lane
        packing is column-wise per input pin (one pass over the batch),
        and decoding unpacks each output rail once per cycle -- no
        per-lane bit twiddling on either side.
        """
        batch = len(sequences)
        if batch == 0:
            return []
        length = len(sequences[0])
        if any(len(seq) != length for seq in sequences):
            raise ValueError("sequences must share one length")

        compiled = compile_circuit(self.circuit)
        all_lanes = (1 << batch) - 1
        forced = compiled.forced_ternary(self.overrides, all_lanes)
        state = [(all_lanes, all_lanes)] * compiled.num_latches  # all-X power-up
        per_cycle = []
        for cycle in range(length):
            inputs = []
            for pin in range(compiled.num_inputs):
                can0, can1 = encode_ternary(
                    [sequences[lane][cycle][pin] for lane in range(batch)]
                )
                inputs.append((column_to_mask(can0), column_to_mask(can1)))
            outputs, state = compiled.step_ternary_masks(
                state, inputs, all_lanes, forced
            )
            per_cycle.append(outputs)

        results: List[List[Tuple[T, ...]]] = [[] for _ in range(batch)]
        for cycle in range(length):
            columns = [
                decode_ternary((mask_to_column(a, batch), mask_to_column(b, batch)))
                for a, b in per_cycle[cycle]
            ]
            for lane in range(batch):
                results[lane].append(tuple(column[lane] for column in columns))
        return results
