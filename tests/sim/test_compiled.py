"""Property tests: the compiled core agrees with the oracle exactly.

The test-side reference interpreter (``tests/reference.py``) walks the
netlist through each cell's own truth table; the compiled flat program
in :mod:`repro.sim.compiled` must be observationally identical to it
at all three entry points:

* scalar binary (``step_binary``),
* scalar conservative ternary / CLS (``step_ternary``),
* batched lane masks (``step_binary_masks`` / ``step_ternary_masks``).

Each property drives randomly generated sequential circuits with random
states, inputs and stuck-at override maps and compares outputs and
next-state bit-for-bit, plus a spot-check of CLS X-monotonicity on the
compiled ternary program.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import step as reference_step
from repro.bench.generators import random_sequential_circuit
from repro.logic.ternary import ONE, T, X, ZERO
from repro.sim.compiled import (
    column_to_mask,
    compile_circuit,
    mask_to_column,
)

TERNARY = (ZERO, ONE, X)


def build(seed, num_inputs, num_gates, num_latches):
    return random_sequential_circuit(
        seed,
        num_inputs=num_inputs,
        num_gates=num_gates,
        num_latches=num_latches,
    )


circuits = st.builds(
    build,
    seed=st.integers(0, 40),
    num_inputs=st.integers(1, 3),
    num_gates=st.integers(2, 12),
    num_latches=st.integers(0, 4),
)


def draw_overrides(data, circuit, domain):
    """An optional stuck-at map over a few of the circuit's nets."""
    nets = sorted(circuit.nets())
    picked = data.draw(
        st.lists(st.sampled_from(nets), max_size=3, unique=True),
        label="override_nets",
    )
    if not picked:
        return None
    return {
        net: data.draw(domain, label="forced_%s" % net) for net in picked
    }


@settings(max_examples=60, deadline=None)
@given(circuit=circuits, data=st.data())
def test_scalar_binary_matches_propagate(circuit, data):
    state = tuple(
        data.draw(st.booleans()) for _ in range(circuit.num_latches)
    )
    inputs = tuple(data.draw(st.booleans()) for _ in circuit.inputs)
    overrides = draw_overrides(data, circuit, st.booleans())
    expected = reference_step(
        circuit, state, inputs, ternary=False, overrides=overrides
    )
    got = compile_circuit(circuit).step_binary(
        state, inputs, overrides=overrides
    )
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(circuit=circuits, data=st.data())
def test_scalar_ternary_matches_propagate(circuit, data):
    tern = st.sampled_from(TERNARY)
    state = tuple(data.draw(tern) for _ in range(circuit.num_latches))
    inputs = tuple(data.draw(tern) for _ in circuit.inputs)
    overrides = draw_overrides(data, circuit, tern)
    expected = reference_step(
        circuit, state, inputs, ternary=True, overrides=overrides
    )
    got = compile_circuit(circuit).step_ternary(
        state, inputs, overrides=overrides
    )
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(circuit=circuits, data=st.data())
def test_batched_binary_masks_match_per_lane_propagate(circuit, data):
    lanes = data.draw(st.integers(1, 7), label="lanes")
    states = [
        tuple(data.draw(st.booleans()) for _ in range(circuit.num_latches))
        for _ in range(lanes)
    ]
    inputs = [
        tuple(data.draw(st.booleans()) for _ in circuit.inputs)
        for _ in range(lanes)
    ]
    compiled = compile_circuit(circuit)
    all_lanes = (1 << lanes) - 1
    state_masks = [
        column_to_mask([row[j] for row in states])
        for j in range(circuit.num_latches)
    ]
    input_masks = [
        column_to_mask([row[j] for row in inputs])
        for j in range(len(circuit.inputs))
    ]
    out_masks, next_masks = compiled.step_binary_masks(
        state_masks, input_masks, all_lanes
    )
    for lane in range(lanes):
        expected = reference_step(
            circuit, states[lane], inputs[lane], ternary=False
        )
        got_outs = tuple(
            bool(mask_to_column(m, lanes)[lane]) for m in out_masks
        )
        got_next = tuple(
            bool(mask_to_column(m, lanes)[lane]) for m in next_masks
        )
        assert (got_outs, got_next) == expected


def _rails(vec):
    """Pack per-lane ternary columns into dual-rail masks."""
    can0 = can1 = 0
    for lane, value in enumerate(vec):
        if value is not ONE:
            can0 |= 1 << lane
        if value is not ZERO:
            can1 |= 1 << lane
    return can0, can1


@settings(max_examples=25, deadline=None)
@given(circuit=circuits, data=st.data())
def test_batched_ternary_rails_match_per_lane_propagate(circuit, data):
    tern = st.sampled_from(TERNARY)
    lanes = data.draw(st.integers(1, 7), label="lanes")
    states = [
        tuple(data.draw(tern) for _ in range(circuit.num_latches))
        for _ in range(lanes)
    ]
    inputs = [
        tuple(data.draw(tern) for _ in circuit.inputs)
        for _ in range(lanes)
    ]
    compiled = compile_circuit(circuit)
    all_lanes = (1 << lanes) - 1
    state_rails = [
        _rails([row[j] for row in states])
        for j in range(circuit.num_latches)
    ]
    input_rails = [
        _rails([row[j] for row in inputs])
        for j in range(len(circuit.inputs))
    ]
    out_rails, next_rails = compiled.step_ternary_masks(
        state_rails, input_rails, all_lanes
    )

    def unpack(rails, lane):
        a, b = rails
        lo, hi = (a >> lane) & 1, (b >> lane) & 1
        return X if lo and hi else (ONE if hi else ZERO)

    for lane in range(lanes):
        expected = reference_step(
            circuit, states[lane], inputs[lane], ternary=True
        )
        got_outs = tuple(unpack(r, lane) for r in out_rails)
        got_next = tuple(unpack(r, lane) for r in next_rails)
        assert (got_outs, got_next) == expected


@settings(max_examples=40, deadline=None)
@given(circuit=circuits, data=st.data())
def test_compiled_ternary_is_x_monotone(circuit, data):
    """Replacing any definite value with X can only lose information.

    Conservative ternary evaluation is monotone in the information
    order (X below 0 and 1): blurring one input or state position to X
    must leave every output and next-state pin either unchanged or X.
    """
    tern = st.sampled_from(TERNARY)
    state = tuple(data.draw(tern) for _ in range(circuit.num_latches))
    inputs = tuple(data.draw(tern) for _ in circuit.inputs)
    positions = len(state) + len(inputs)
    if positions == 0:
        return
    pos = data.draw(st.integers(0, positions - 1), label="blur_position")
    blur_state = list(state)
    blur_inputs = list(inputs)
    if pos < len(state):
        blur_state[pos] = X
    else:
        blur_inputs[pos - len(state)] = X
    compiled = compile_circuit(circuit)
    sharp = compiled.step_ternary(state, inputs)
    blurred = compiled.step_ternary(tuple(blur_state), tuple(blur_inputs))
    for sharp_vec, blur_vec in zip(sharp, blurred):
        for a, b in zip(sharp_vec, blur_vec):
            assert b is a or b is X


def test_compiled_rejects_arity_mismatch():
    circuit = build(0, num_inputs=2, num_gates=4, num_latches=2)
    compiled = compile_circuit(circuit)
    with pytest.raises(ValueError, match="inputs"):
        compiled.step_binary((False, False), (True,))
    with pytest.raises(ValueError, match="latches"):
        compiled.step_ternary((X,), (ZERO, ONE))


def test_compile_is_cached_per_circuit():
    circuit = build(1, num_inputs=2, num_gates=4, num_latches=2)
    assert compile_circuit(circuit) is compile_circuit(circuit)
