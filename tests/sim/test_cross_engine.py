"""Cross-engine consistency: every simulator agrees with the oracle.

The library evaluates circuits through one compiled core, reached by
the scalar simulators (one state per call) and the batched lane
sweeps (every state in one pass).  These tests run the same workloads
through both and through the test-side reference interpreter
(``tests/reference.py``), and compare bit-for-bit.  Binary checks
cover every power-up state of every embedded circuit: the core's lane
sweep over :func:`~repro.sim.compiled.exhaustive_state_masks` (the
sweep STG extraction and the exact simulator run) against the oracle's
lane walk always, and the scalar simulator state by state wherever
that stays cheap.  Ternary checks hold the scalar CLS to the oracle,
and the batched CLS check
(:func:`~repro.retime.validity.first_cls_difference`) to the cycles at
which the oracle's outputs turn definite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import exhaustive_masks, lane_mismatch, step, step_masks, with_output_inverted
from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load, names
from repro.logic.ternary import ONE, X, ZERO
from repro.retime.validity import first_cls_difference
from repro.sim.binary import BinarySimulator, all_power_up_states
from repro.sim.compiled import column_to_mask, compile_circuit, exhaustive_state_masks
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


def _core_sweep(circuit, seq):
    """The compiled core over all power-up states at once, from the
    product's exhaustive masks: per-cycle output masks and the final
    state masks."""
    compiled = compile_circuit(circuit)
    all_lanes = (1 << (1 << circuit.num_latches)) - 1
    state = exhaustive_state_masks(circuit.num_latches)
    outputs = []
    for vector in seq:
        outs, state = compiled.step_binary_masks(
            state, [all_lanes if bit else 0 for bit in vector], all_lanes
        )
        outputs.append(outs)
    return outputs, state


def _masks(rows):
    """The lane masks of per-lane boolean rows, one mask per column."""
    array = np.array(rows, dtype=bool)
    return tuple(column_to_mask(array[:, pin]) for pin in range(array.shape[1]))


@pytest.mark.parametrize("name", names())
def test_binary_engines_agree_on_benchmarks(name):
    circuit = load(name)
    seq = _pattern_inputs(circuit, 5)
    per_cycle, final = _core_sweep(circuit, seq)
    oracle_outputs, oracle_final = _oracle_sweep(circuit, seq)
    for cycle in range(len(seq)):
        assert lane_mismatch(per_cycle[cycle], oracle_outputs[cycle]) is None, (
            "outputs at cycle %d" % cycle
        )
    assert lane_mismatch(final, oracle_final) is None, "final state"

    if circuit.num_latches > SCALAR_MAX_LATCHES:
        return
    scalar = BinarySimulator(circuit)
    traces = [scalar.run(state, seq) for state in all_power_up_states(circuit)]
    for cycle in range(len(seq)):
        column = _masks([trace.outputs[cycle] for trace in traces])
        assert lane_mismatch(column, per_cycle[cycle]) is None, "cycle %d" % cycle
    assert lane_mismatch(_masks([trace.final_state for trace in traces]), final) is None


def _oracle_cls(circuit, seq):
    """CLS outputs and final state from all-X, one oracle cycle at a time."""
    state = all_x_state(circuit)
    outputs = []
    for vector in seq:
        outs, state = step(circuit, state, vector, ternary=True)
        outputs.append(outs)
    return outputs, state


def _assert_batched_cls_sees_definite_outputs(circuit, seq, oracle_outputs):
    """Against a mutant with output *p* inverted, the batched CLS check
    must report the first cycle at which the oracle's output *p* is
    definite (NOT X is X): per pin, the oracle's definiteness profile."""
    for pin in range(len(circuit.outputs)):
        definite = [cycle for cycle, outs in enumerate(oracle_outputs) if outs[pin] is not X]
        expected = (0, definite[0]) if definite else None
        mutant = with_output_inverted(circuit, pin)
        assert first_cls_difference(circuit, mutant, [seq]) == expected, "pin %d" % pin


@pytest.mark.parametrize("name", names())
def test_ternary_engines_agree_on_benchmarks(name):
    circuit = load(name)
    seq = _ternary_pattern(circuit, 5)
    scalar = TernarySimulator(circuit).run(all_x_state(circuit), seq)
    oracle_outputs, oracle_final = _oracle_cls(circuit, seq)
    assert scalar.outputs == oracle_outputs
    assert scalar.final_state == oracle_final
    _assert_batched_cls_sees_definite_outputs(circuit, seq, oracle_outputs)


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
    oracle_outputs, oracle_final = _oracle_cls(circuit, seq)
    assert scalar.outputs == oracle_outputs
    assert scalar.final_state == oracle_final
    _assert_batched_cls_sees_definite_outputs(circuit, seq, oracle_outputs)
