"""Tests for the batched (numpy) binary simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exhaustive_masks, lane_mismatch, step_masks
from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.logic.functions import CellFunction
from repro.netlist.builder import CircuitBuilder
from repro.sim.binary import BinarySimulator, all_power_up_states
from repro.sim.compiled import column_to_mask
from repro.sim.multi import BatchedBinarySimulator, all_states_array

#: Latch count up to which the scalar simulator also walks every state
#: (65536 states stay within a couple of seconds).
SCALAR_MAX_LATCHES = 16


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
@given(seed=st.integers(0, 500), data=st.data())
def test_batched_equals_scalar_simulation(seed, data):
    """Every lane of the batched simulator must match the scalar one."""
    circuit = random_sequential_circuit(
        seed, num_inputs=2, num_gates=7, num_latches=3
    )
    length = data.draw(st.integers(1, 4))
    seq = [
        tuple(data.draw(st.booleans()) for _ in circuit.inputs) for _ in range(length)
    ]
    states = all_states_array(circuit.num_latches)
    batched = BatchedBinarySimulator(circuit)
    per_cycle, final = batched.run(states, seq)

    scalar = BinarySimulator(circuit)
    for lane, state in enumerate(all_power_up_states(circuit)):
        trace = scalar.run(state, seq)
        for t, outputs in enumerate(trace.outputs):
            assert tuple(bool(v) for v in per_cycle[t][lane]) == outputs
        assert tuple(bool(v) for v in final[lane]) == trace.final_state


def test_batched_on_iscas_matches_scalar(iscas_circuit):
    """Every power-up state: the batched sweep against the oracle's
    lane walk, and against the scalar simulator where that is cheap."""
    seq = [tuple((i + j) % 2 == 0 for j, _ in enumerate(iscas_circuit.inputs)) for i in range(3)]
    states = all_states_array(iscas_circuit.num_latches)
    per_cycle, _ = BatchedBinarySimulator(iscas_circuit).run(states, seq)

    all_lanes = (1 << states.shape[0]) - 1
    state_masks = exhaustive_masks(iscas_circuit.num_latches)
    for t, vector in enumerate(seq):
        outs, state_masks = step_masks(
            iscas_circuit,
            state_masks,
            [all_lanes if bit else 0 for bit in vector],
            all_lanes,
        )
        batched = tuple(column_to_mask(per_cycle[t][:, pin]) for pin in range(len(outs)))
        assert lane_mismatch(batched, outs) is None, "cycle %d" % t

    if iscas_circuit.num_latches > SCALAR_MAX_LATCHES:
        return
    scalar = BinarySimulator(iscas_circuit)
    rows = [scalar.output_sequence(state, seq) for state in all_power_up_states(iscas_circuit)]
    for t in range(len(seq)):
        assert np.array_equal(np.array([row[t] for row in rows], dtype=bool), per_cycle[t])


def test_batched_overrides():
    b = CircuitBuilder()
    i = b.input("i")
    q = b.net("q")
    b.latch(b.gate("AND", i, q, out="d"), q, name="ff")
    b.output(b.gate("NOT", q, out="o"))
    c = b.build()
    sim = BatchedBinarySimulator(c, overrides={"d": True})
    states = all_states_array(1)
    outs, nxt = sim.step(states, (False,))
    assert nxt[:, 0].all()  # latch forced to load 1


def test_scalar_fallback_for_exotic_cells():
    """A cell family the vectoriser doesn't know falls back per-lane."""
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
    states = all_states_array(1)
    outs, nxt = BatchedBinarySimulator(c).step(states, (True, False))
    # MAJ(1, 0, q) = q
    assert list(nxt[:, 0]) == [False, True]


def test_shape_validation():
    c = load("s27")
    sim = BatchedBinarySimulator(c)
    with pytest.raises(ValueError, match="latches"):
        sim.step(np.zeros((4, 2), dtype=bool), (False,) * 4)
    with pytest.raises(ValueError, match="inputs"):
        sim.step(np.zeros((4, 3), dtype=bool), (False,) * 2)


def test_no_output_circuit():
    b = CircuitBuilder()
    i = b.input("i")
    b.latch(i, name="ff")
    c = b.circuit
    # The latch output is unread; keep it legal by making it a PO-free
    # circuit: batched sim should return empty output arrays.
    sim = BatchedBinarySimulator(c)
    outs, nxt = sim.step(all_states_array(1), (True,))
    assert outs.shape == (2, 0)
    assert nxt.shape == (2, 1)
