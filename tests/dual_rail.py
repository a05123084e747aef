"""Per-cell dual-rail evaluation over numpy lanes: the executable
specification of the CLS encoding.

A ternary value is encoded *dual-rail* as the pair of booleans
``(can0, can1)``:

=========  =====  =====
value      can0   can1
=========  =====  =====
``0``      1      0
``1``      0      1
``X``      1      1
=========  =====  =====

(``(0, 0)`` is unused.)  :func:`encode_ternary` and
:func:`decode_ternary` convert a lane vector of values to numpy rails
and back.  Each library family has a closed dual-rail form -- for AND,
``can1 = a.can1 & b.can1`` and ``can0 = a.can0 | b.can0`` -- and
:func:`eval_cell` applies it to numpy boolean lanes, one lane per
independent simulation.  The product runs the same algebra over
integer lane masks, one mask per rail (:mod:`repro.sim.compiled`); the
tests hold these closed forms to
:meth:`~repro.logic.functions.CellFunction.eval_ternary`, lane by lane.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.logic.ternary import ONE, T, X, ZERO

Rail = Tuple[np.ndarray, np.ndarray]  # (can0, can1), each shape (batch,)


def encode_ternary(values: Sequence[T]) -> Rail:
    """Encode a lane vector of ternary values as dual-rail arrays."""
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


def eval_cell(function, inputs: List[Rail], batch: int) -> List[Rail]:
    """Evaluate one cell on *batch* lanes of dual-rail inputs: a closed
    form per library family, scalar ``eval_ternary`` per lane for any
    other cell."""
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
