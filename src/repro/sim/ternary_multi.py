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
plain vectorised boolean algebra.  Each numpy lane carries one
independent simulation, so a whole batch of CLS runs costs one pass.

Exactness per cell (agreement with
:meth:`~repro.logic.functions.CellFunction.eval_ternary`) is verified
lane-by-lane in the test-suite; exotic cells fall back to scalar
evaluation per lane.

Since the compile-once refactor the simulator itself delegates to the
lane-parallel core in :mod:`repro.sim.compiled` (same dual-rail
algebra over integer lane masks, one mask per rail); the per-cell
helpers below remain as the executable specification of the encoding
and keep the ndarray rail interface for callers.  Packing and
unpacking happen column-wise per net, never lane by lane.
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


def _and_all(rails: List[Rail]) -> Rail:
    can0 = rails[0][0].copy()
    can1 = rails[0][1].copy()
    for c0, c1 in rails[1:]:
        can0 |= c0
        can1 &= c1
    return can0, can1


def _or_all(rails: List[Rail]) -> Rail:
    can0 = rails[0][0].copy()
    can1 = rails[0][1].copy()
    for c0, c1 in rails[1:]:
        can0 &= c0
        can1 |= c1
    return can0, can1


def _not(rail: Rail) -> Rail:
    return rail[1], rail[0]


def _xor_all(rails: List[Rail]) -> Rail:
    can0, can1 = rails[0]
    can0, can1 = can0.copy(), can1.copy()
    for b0, b1 in rails[1:]:
        new_can1 = (can1 & b0) | (can0 & b1)
        new_can0 = (can0 & b0) | (can1 & b1)
        can0, can1 = new_can0, new_can1
    return can0, can1


def _mux(select: Rail, when0: Rail, when1: Rail) -> Rail:
    s0, s1 = select
    can1 = (s1 & when1[1]) | (s0 & when0[1])
    can0 = (s1 & when1[0]) | (s0 & when0[0])
    return can0, can1


def _eval_cell(function, inputs: List[Rail], batch: int) -> List[Rail]:
    family = function.name.rstrip("0123456789")
    if family == "AND":
        return [_and_all(inputs)]
    if family == "OR":
        return [_or_all(inputs)]
    if family == "NAND":
        return [_not(_and_all(inputs))]
    if family == "NOR":
        return [_not(_or_all(inputs))]
    if family == "XOR":
        return [_xor_all(inputs)]
    if family == "XNOR":
        return [_not(_xor_all(inputs))]
    if family == "NOT":
        return [_not(inputs[0])]
    if family == "BUF":
        return [(inputs[0][0].copy(), inputs[0][1].copy())]
    if family == "JUNC":
        return [
            (inputs[0][0].copy(), inputs[0][1].copy())
            for _ in range(function.n_outputs)
        ]
    if family == "CONST":
        one = function.name.endswith("1")
        return [
            (
                np.full(batch, not one, dtype=bool),
                np.full(batch, one, dtype=bool),
            )
        ]
    if family == "MUX":
        return [_mux(inputs[0], inputs[1], inputs[2])]
    # Scalar fallback.
    outputs: List[Rail] = [
        (np.empty(batch, dtype=bool), np.empty(batch, dtype=bool))
        for _ in range(function.n_outputs)
    ]
    for lane in range(batch):
        scalar_in = decode_ternary(
            ([rail[0][lane] for rail in inputs], [rail[1][lane] for rail in inputs])
        )
        scalar_out = function.eval_ternary(scalar_in)
        for pin, value in enumerate(scalar_out):
            outputs[pin][0][lane] = value is not ONE
            outputs[pin][1][lane] = value is not ZERO
    return outputs


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
