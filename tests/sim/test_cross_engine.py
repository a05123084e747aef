"""Cross-engine consistency: every simulator agrees with the oracle.

The library evaluates circuits through one compiled core, reached by
the scalar simulators (one state per call) and the batched lane
sweeps (every state in one pass).  These tests run the same workloads
through both and through the test-side reference interpreter
(``tests/reference.py``), and compare bit-for-bit.  Binary checks
cover every power-up state of every embedded circuit: the batched
sweep against the oracle's lane walk always, and the scalar simulator
state by state wherever that stays cheap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exhaustive_masks, lane_mismatch, step, step_masks
from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load, names
from repro.logic.ternary import ONE, X, ZERO
from repro.sim.binary import BinarySimulator, all_power_up_states
from repro.sim.compiled import column_to_mask
from repro.sim.multi import BatchedBinarySimulator, all_states_array
from repro.sim.ternary_multi import BatchedTernarySimulator
from repro.sim.ternary_sim import TernarySimulator, all_x_state

TERNARY = (ZERO, ONE, X)

#: The scalar per-state walk costs about 40 us per state and cycle;
#: up to 16 latches (65536 states) it stays within a few seconds.
SCALAR_MAX_LATCHES = 16


def _pattern_inputs(circuit, length):
    width = len(circuit.inputs)
    return [
        tuple(((cycle * 3 + pin) % 2) == 0 for pin in range(width))
        for cycle in range(length)
    ]


def _ternary_pattern(circuit, length):
    width = len(circuit.inputs)
    return [
        tuple(TERNARY[(cycle + pin) % 3] for pin in range(width))
        for cycle in range(length)
    ]


def _oracle_sweep(circuit, seq):
    """The oracle over all power-up states at once: per-cycle output
    masks and the final state masks (lane i = power-up state i)."""
    all_lanes = (1 << (1 << circuit.num_latches)) - 1
    state = exhaustive_masks(circuit.num_latches)
    outputs = []
    for vector in seq:
        outs, state = step_masks(
            circuit, state, [all_lanes if bit else 0 for bit in vector], all_lanes
        )
        outputs.append(outs)
    return outputs, state


def _masks(array):
    """The lane masks of a (lanes, pins) boolean array, one per pin."""
    return tuple(column_to_mask(array[:, pin]) for pin in range(array.shape[1]))


@pytest.mark.parametrize("name", names())
def test_binary_engines_agree_on_benchmarks(name):
    circuit = load(name)
    seq = _pattern_inputs(circuit, 5)
    per_cycle, final = BatchedBinarySimulator(circuit).run(
        all_states_array(circuit.num_latches), seq
    )
    oracle_outputs, oracle_final = _oracle_sweep(circuit, seq)
    for cycle in range(len(seq)):
        assert lane_mismatch(_masks(per_cycle[cycle]), oracle_outputs[cycle]) is None, (
            "outputs at cycle %d" % cycle
        )
    assert lane_mismatch(_masks(final), oracle_final) is None, "final state"

    if circuit.num_latches > SCALAR_MAX_LATCHES:
        return
    scalar = BinarySimulator(circuit)
    traces = [scalar.run(state, seq) for state in all_power_up_states(circuit)]
    for cycle in range(len(seq)):
        column = np.array([trace.outputs[cycle] for trace in traces], dtype=bool)
        assert np.array_equal(column, per_cycle[cycle]), "cycle %d" % cycle
    finals = np.array([trace.final_state for trace in traces], dtype=bool)
    assert np.array_equal(finals.reshape(final.shape), final)


def _oracle_cls(circuit, seq):
    """CLS outputs and final state from all-X, one oracle cycle at a time."""
    state = all_x_state(circuit)
    outputs = []
    for vector in seq:
        outs, state = step(circuit, state, vector, ternary=True)
        outputs.append(outs)
    return outputs, state


@pytest.mark.parametrize("name", names())
def test_ternary_engines_agree_on_benchmarks(name):
    circuit = load(name)
    seq = _ternary_pattern(circuit, 5)
    scalar = TernarySimulator(circuit).run(all_x_state(circuit), seq)
    batched = BatchedTernarySimulator(circuit).run_sequences([seq])
    oracle_outputs, oracle_final = _oracle_cls(circuit, seq)
    assert scalar.outputs == oracle_outputs
    assert scalar.final_state == oracle_final
    assert [tuple(v) for v in batched[0]] == scalar.outputs


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 1000), data=st.data())
def test_all_ternary_engines_agree_randomised(seed, data):
    circuit = random_sequential_circuit(seed, num_inputs=2, num_gates=9, num_latches=3)
    length = data.draw(st.integers(1, 5))
    seq = [
        tuple(data.draw(st.sampled_from(TERNARY)) for _ in circuit.inputs)
        for _ in range(length)
    ]
    scalar = TernarySimulator(circuit).run(all_x_state(circuit), seq)
    batched = BatchedTernarySimulator(circuit).run_sequences([seq])
    oracle_outputs, oracle_final = _oracle_cls(circuit, seq)
    assert scalar.outputs == oracle_outputs
    assert scalar.final_state == oracle_final
    assert [tuple(v) for v in batched[0]] == scalar.outputs
