"""Batched binary sweeps over every power-up state, against the scalar
simulator.

The product sweeps all ``2**n`` power-up states as the lanes of
:func:`~repro.sim.compiled.exhaustive_state_masks`, in two places: STG
extraction (:func:`repro.stg.explicit.extract_stg`, one step per input
symbol) and the exact simulator (:class:`repro.sim.exact.ExactSimulator`,
one step per cycle).  These tests check the STG against
:class:`~repro.sim.binary.BinarySimulator`, state by state and symbol
by symbol, and the exact sweep against the reference interpreter's
lane walk (``tests/reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exhaustive_masks, lane_mismatch, step_masks
from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.logic.functions import CellFunction
from repro.logic.ternary import ONE, X, ZERO
from repro.netlist.builder import CircuitBuilder
from repro.sim.binary import BinarySimulator, all_power_up_states, state_from_int, state_to_int
from repro.sim.compiled import column_to_mask
from repro.sim.exact import ExactSimulator, all_states_array
from repro.stg.explicit import extract_stg

#: State-and-symbol count up to which the scalar simulator also walks
#: every STG entry (65536 entries stay within a couple of seconds).
SCALAR_MAX_BITS = 16


def _symbol_bits(circuit, symbol):
    width = len(circuit.inputs)
    return tuple(bool((symbol >> (width - 1 - i)) & 1) for i in range(width))


def assert_stg_matches_scalar(circuit):
    """Every STG entry is one scalar step: the next state and output
    vector of state *s* under input symbol *a*."""
    stg = extract_stg(circuit)
    assert stg.num_states == 1 << circuit.num_latches
    assert stg.num_symbols == 1 << len(circuit.inputs)
    assert stg.num_outputs == len(circuit.outputs)
    scalar = BinarySimulator(circuit)
    for s in range(stg.num_states):
        state = state_from_int(circuit, s)
        for a in range(stg.num_symbols):
            outputs, nxt = scalar.step(state, _symbol_bits(circuit, a))
            assert stg.next_state[s][a] == state_to_int(nxt), (s, a)
            assert stg.output[s][a] == state_to_int(outputs), (s, a)
    return stg


def test_all_states_array_matches_scalar_enumeration():
    c = load("s27")
    arr = all_states_array(c.num_latches)
    scalar = list(all_power_up_states(c))
    assert arr.shape == (8, 3)
    for row, state in zip(arr, scalar):
        assert tuple(bool(v) for v in row) == state


def test_all_states_array_zero_latches():
    arr = all_states_array(0)
    assert arr.shape == (1, 0)
    with pytest.raises(ValueError):
        all_states_array(-1)


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(0, 500),
    num_inputs=st.integers(1, 2),
    num_latches=st.integers(0, 3),
)
def test_batched_equals_scalar_simulation(seed, num_inputs, num_latches):
    """Random circuits, zero-latch ones among them."""
    circuit = random_sequential_circuit(
        seed, num_inputs=num_inputs, num_gates=7, num_latches=num_latches
    )
    assert_stg_matches_scalar(circuit)


def test_batched_on_iscas_matches_scalar(iscas_circuit):
    """The exact sweep over every power-up state against the oracle's
    lane walk, and every STG entry against the scalar simulator where
    the STG is small."""
    circuit = iscas_circuit
    seq = [tuple((i + j) % 2 == 0 for j, _ in enumerate(circuit.inputs)) for i in range(3)]
    lanes = (1 << (1 << circuit.num_latches)) - 1
    state = exhaustive_masks(circuit.num_latches)
    expected = []
    for vector in seq:
        outs, state = step_masks(circuit, state, [lanes if bit else 0 for bit in vector], lanes)
        expected.append(tuple(ONE if m == lanes else ZERO if m == 0 else X for m in outs))
    sim = ExactSimulator(circuit)
    assert sim.outputs(seq) == tuple(expected)
    final = sim.final_states(seq)
    got = tuple(column_to_mask(final[:, j]) for j in range(circuit.num_latches))
    assert lane_mismatch(got, state) is None, "final state"
    if circuit.num_latches + len(circuit.inputs) <= SCALAR_MAX_BITS:
        assert_stg_matches_scalar(circuit)


def test_batched_overrides():
    """A stuck-at override holds in every lane of the exact sweep."""
    b = CircuitBuilder()
    i = b.input("i")
    q = b.net("q")
    b.latch(b.gate("AND", i, q, out="d"), q, name="ff")
    b.output(b.gate("NOT", q, out="o"))
    c = b.build()
    final = ExactSimulator(c, overrides={"d": True}).final_states([(False,)])
    assert final.shape == (2, 1)
    assert final[:, 0].all()  # latch forced to load 1
    assert ExactSimulator(c).final_states([(False,)])[:, 0].tolist() == [False, False]


def test_scalar_fallback_for_exotic_cells():
    """A GENERIC cell takes the core's lane-by-lane fallback inside the
    batched STG sweep."""
    maj = CellFunction(
        "MAJ", 3, 1, lambda v: (sum(v) >= 2,)
    )
    b = CircuitBuilder()
    x, y = b.input("x"), b.input("y")
    q = b.net("q")
    (out,) = b.cell(maj, (x, y, q), name="m")
    b.latch(out, q, name="ff")
    b.output(b.gate("BUF", q))
    c = b.build()
    stg = assert_stg_matches_scalar(c)
    # MAJ(1, 0, q) = q: input symbol 0b10 keeps either state.
    assert [stg.next_state[s][0b10] for s in range(2)] == [0, 1]


def test_shape_validation():
    """The exact sweep rejects power-up states of the wrong width and
    input vectors of the wrong width."""
    c = load("s27")
    sim = ExactSimulator(c)
    with pytest.raises(ValueError, match="latches"):
        sim.outputs([(False,) * 4], states=np.zeros((4, 2), dtype=bool))
    with pytest.raises(ValueError, match="inputs"):
        sim.outputs([(False,) * 2])


def test_no_output_circuit():
    """An output-free circuit tabulates its next states, and output
    symbol 0 everywhere."""
    b = CircuitBuilder()
    i = b.input("i")
    b.latch(i, name="ff")
    c = b.circuit
    stg = assert_stg_matches_scalar(c)
    assert stg.num_outputs == 0
    assert stg.output == [[0, 0], [0, 0]]
    assert stg.next_state == [[0, 1], [0, 1]]


def test_zero_latch_and_zero_input_circuits():
    """One state, or one input symbol: the sweep still tabulates every
    entry."""
    b = CircuitBuilder()
    x, y = b.input("x"), b.input("y")
    b.output(b.gate("XOR", x, y))
    b.output(b.gate("AND", x, y))
    stg = assert_stg_matches_scalar(b.build())
    assert stg.next_state == [[0, 0, 0, 0]]
    assert stg.output == [[0b00, 0b10, 0b10, 0b01]]

    b = CircuitBuilder()
    q = b.net("q")
    b.latch(b.gate("NOT", q), q, name="ff")
    b.output(b.gate("BUF", q))
    stg = assert_stg_matches_scalar(b.build())
    assert stg.next_state == [[1], [0]]
    assert stg.output == [[0], [1]]
