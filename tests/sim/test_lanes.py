"""Property tests for the lane-mask representation.

Every batched simulator carries its lanes as arbitrary-precision Python
int masks (bit ``i`` = lane ``i``).  The suite covers

* round trips of the packing helpers (``column_to_mask`` /
  ``mask_to_column``) across batch sizes that are not multiples of 8,
  batch 0 and batches crossing machine-word boundaries, plus dual-rail
  ternary columns (``tests/dual_rail.py``),
* the memoised exhaustive power-up masks that the exact simulator, STG
  extraction and exact fault grading share,
* GENERIC (non-library) cells in multi-lane steps, binary and dual-rail
  ternary, with and without a stuck-at override, lane by lane against
  the test-side reference interpreter (``tests/reference.py``),
* the sparse set-bit walk in the generic-cell fallbacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_rail import decode_ternary, encode_ternary
from reference import step as _reference_step
from repro.logic.functions import CellFunction, make_gate
from repro.logic.ternary import ONE, X, ZERO
from repro.netlist.circuit import Circuit
from repro.sim.compiled import (
    _generic_binary,
    _generic_ternary,
    column_to_mask,
    compile_circuit,
    exhaustive_state_masks,
    mask_to_column,
)
from repro.sim.exact import all_states_array

TERNARY = (ZERO, ONE, X)

# Batch sizes probing every packing edge: empty, sub-byte, byte
# boundaries, the 64-lane word boundary, and multi-word tails.
EDGE_BATCHES = (0, 1, 5, 7, 8, 9, 63, 64, 65, 100, 128, 130)


# ---------------------------------------------------------------------------
# Packing round trips.
# ---------------------------------------------------------------------------


class TestPackingRoundTrips:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.booleans(), min_size=0, max_size=200))
    def test_mask_round_trip(self, column):
        col = np.asarray(column, dtype=bool)
        mask = column_to_mask(col)
        assert np.array_equal(mask_to_column(mask, col.size), col)

    @pytest.mark.parametrize("batch", EDGE_BATCHES)
    def test_edge_batches(self, batch):
        rng = np.random.default_rng(batch)
        col = rng.random(batch) < 0.5
        assert np.array_equal(mask_to_column(column_to_mask(col), batch), col)

    def test_batch_zero_is_empty_everywhere(self):
        empty = np.zeros(0, dtype=bool)
        assert column_to_mask(empty) == 0
        assert mask_to_column(0, 0).size == 0

    def test_ternary_columns_round_trip_through_masks(self):
        batch = 67
        rng = np.random.default_rng(7)
        column = tuple(TERNARY[i] for i in rng.integers(0, 3, size=batch))
        can0, can1 = encode_ternary(column)
        rails = (column_to_mask(can0), column_to_mask(can1))
        decoded = decode_ternary(
            (mask_to_column(rails[0], batch), mask_to_column(rails[1], batch))
        )
        assert decoded == column
        # Decoded values must be the module singletons: downstream code
        # compares with ``is``.
        assert all(any(v is t for t in TERNARY) for v in decoded)


# ---------------------------------------------------------------------------
# The exhaustive power-up masks.
# ---------------------------------------------------------------------------


class TestExhaustiveStates:
    @pytest.mark.parametrize("n", (0, 1, 3, 7))
    def test_exhaustive_states_match_all_states_array(self, n):
        rows = all_states_array(n)
        masks = exhaustive_state_masks(n)
        assert len(masks) == n
        for j in range(n):
            assert np.array_equal(mask_to_column(masks[j], rows.shape[0]), rows[:, j])
        # Memoised per latch count: exact fault grading rebuilds an
        # ExactSimulator per fault and must not re-pack the sweep.
        assert exhaustive_state_masks(n) is masks


# ---------------------------------------------------------------------------
# GENERIC cells: the lane-by-lane fallback inside the compiled core.
# ---------------------------------------------------------------------------


def _half_adder_eval(inputs):
    a, b = inputs
    return (a != b, a and b)


HALF_ADDER = CellFunction("HA2", 2, 2, _half_adder_eval)


def _generic_circuit():
    """One GENERIC half-adder feeding a latch and two outputs."""
    circuit = Circuit("generic-lane")
    a = circuit.add_input("a")
    b = circuit.add_input("b")
    circuit.add_cell("ha", HALF_ADDER, (a, b), ("sum", "carry"))
    circuit.add_cell("mix", make_gate("AND", 2), ("sum", "q"), ("out",))
    circuit.add_latch("l0", "carry", "q")
    circuit.add_output("out")
    circuit.add_output("sum")
    return circuit


def _assert_binary_lanes_match_propagate(circuit, states, inputs, overrides):
    compiled = compile_circuit(circuit)
    batch = len(states)
    state_masks = [
        column_to_mask(np.array([row[j] for row in states], dtype=bool))
        for j in range(circuit.num_latches)
    ]
    input_masks = [
        column_to_mask(np.array([row[j] for row in inputs], dtype=bool))
        for j in range(len(circuit.inputs))
    ]
    all_lanes = (1 << batch) - 1
    outs, nxt = compiled.step_binary_masks(
        state_masks, input_masks, all_lanes, compiled.forced_binary(overrides, all_lanes)
    )
    out_cols = [mask_to_column(m, batch) for m in outs]
    next_cols = [mask_to_column(m, batch) for m in nxt]
    for lane in range(batch):
        expected = _reference_step(
            circuit, states[lane], inputs[lane], ternary=False, overrides=overrides
        )
        got = (
            tuple(bool(col[lane]) for col in out_cols),
            tuple(bool(col[lane]) for col in next_cols),
        )
        assert got == expected, "lane %d" % lane


def _assert_ternary_lanes_match_propagate(circuit, states, inputs, overrides):
    compiled = compile_circuit(circuit)
    batch = len(states)

    def rails(rows, width):
        packed = []
        for j in range(width):
            can0, can1 = encode_ternary([row[j] for row in rows])
            packed.append((column_to_mask(can0), column_to_mask(can1)))
        return packed

    def unpack(rails_out):
        return [
            decode_ternary((mask_to_column(a, batch), mask_to_column(b, batch)))
            for a, b in rails_out
        ]

    all_lanes = (1 << batch) - 1
    outs, nxt = compiled.step_ternary_masks(
        rails(states, circuit.num_latches),
        rails(inputs, len(circuit.inputs)),
        all_lanes,
        compiled.forced_ternary(overrides, all_lanes),
    )
    out_cols, next_cols = unpack(outs), unpack(nxt)
    for lane in range(batch):
        expected = _reference_step(
            circuit, states[lane], inputs[lane], ternary=True, overrides=overrides
        )
        got = (
            tuple(col[lane] for col in out_cols),
            tuple(col[lane] for col in next_cols),
        )
        assert got == expected, "lane %d" % lane


class TestGenericCells:
    def test_family_is_generic(self):
        assert HALF_ADDER.family == "GENERIC"

    @pytest.mark.parametrize("batch", (1, 63, 64, 65, 130))
    def test_binary_generic_lanes_match_propagate(self, batch):
        circuit = _generic_circuit()
        rng = np.random.default_rng(batch)
        states = [tuple(row) for row in (rng.random((batch, 1)) < 0.5).tolist()]
        inputs = [tuple(row) for row in (rng.random((batch, 2)) < 0.5).tolist()]
        # Without overrides the codegen path runs; a stuck-at on one
        # GENERIC output runs the override-aware interpreter.
        for overrides in (None, {"sum": True}):
            _assert_binary_lanes_match_propagate(circuit, states, inputs, overrides)

    @pytest.mark.parametrize("batch", (1, 64, 100))
    def test_ternary_generic_lanes_match_propagate(self, batch):
        circuit = _generic_circuit()
        rng = np.random.default_rng(batch)
        states = [
            tuple(TERNARY[i] for i in row)
            for row in rng.integers(0, 3, size=(batch, 1))
        ]
        inputs = [
            tuple(TERNARY[i] for i in row)
            for row in rng.integers(0, 3, size=(batch, 2))
        ]
        for overrides in (None, {"sum": ONE}):
            _assert_ternary_lanes_match_propagate(circuit, states, inputs, overrides)


# ---------------------------------------------------------------------------
# The sparse set-bit walk (regression for the O(num_lanes) scan).
# ---------------------------------------------------------------------------


class TestSparseGenericWalk:
    # A lane context with a handful of set bits spread over >1000 lane
    # positions: the old implementation walked every position up to the
    # highest bit; the fixed one visits set bits only, so results on
    # sparse contexts must still match a dense per-lane reference.
    SPARSE = (1 << 0) | (1 << 1) | (1 << 63) | (1 << 64) | (1 << 1000)

    def _dense_binary_reference(self, fn, ins, all_lanes):
        outs = [0] * fn.n_outputs
        for lane in range(all_lanes.bit_length()):
            bit = 1 << lane
            if not (all_lanes & bit):
                continue
            vals = fn.eval_binary(tuple(bool(m & bit) for m in ins))
            for pin, v in enumerate(vals):
                if v:
                    outs[pin] |= bit
        return outs

    def test_binary_sparse_context(self):
        fn = make_gate("XOR", 2)
        ins = [
            (1 << 0) | (1 << 64),
            (1 << 0) | (1 << 63) | (1 << 1000),
        ]
        got = _generic_binary(fn, ins, self.SPARSE)
        assert got == self._dense_binary_reference(fn, ins, self.SPARSE)
        # No output bit outside the lane context.
        assert all((m & ~self.SPARSE) == 0 for m in got)

    def test_ternary_sparse_context(self):
        fn = make_gate("NAND", 2)
        ins = [
            ((1 << 0) | (1 << 1000), (1 << 63) | (1 << 1000)),
            ((1 << 1) | (1 << 64), (1 << 0) | (1 << 1) | (1 << 64)),
        ]
        # Fill unset rail positions so every lane in SPARSE decodes: a
        # lane must never be (0, 0) inside the context.
        ins = [
            (a | (self.SPARSE & ~(a | b)), b) for a, b in ins
        ]
        got = _generic_ternary(fn, ins, self.SPARSE)
        for pin in range(fn.n_outputs):
            a, b = got[pin]
            assert (a | b) & self.SPARSE == self.SPARSE  # every lane decodes
            assert (a & ~self.SPARSE) == 0 and (b & ~self.SPARSE) == 0
