"""Tests for the batched dual-rail ternary simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_rail import eval_cell
from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.logic.functions import AND, MUX, NOT, OR, XNOR, XOR, junction, make_gate
from repro.logic.ternary import ONE, T, X, ZERO, all_ternary_vectors
from repro.sim.ternary_multi import (
    BatchedTernarySimulator,
    decode_ternary,
    encode_ternary,
)
from repro.sim.ternary_sim import TernarySimulator, all_x_state, cls_outputs

ternary = st.sampled_from((ZERO, ONE, X))


def test_encode_decode_roundtrip():
    values = (ZERO, ONE, X, X, ONE)
    assert decode_ternary(encode_ternary(values)) == values


def test_decode_rejects_empty_rail_pair():
    with pytest.raises(ValueError):
        decode_ternary((np.array([False]), np.array([False])))


@pytest.mark.parametrize(
    "fn",
    (AND, OR, NOT, XOR, XNOR, MUX, junction(2), junction(3),
     make_gate("NAND", 3), make_gate("NOR", 2), make_gate("CONST1", 0)),
)
def test_dual_rail_cell_evaluators_are_exact(fn):
    """Every vectorised family must equal the scalar conservative
    ternary evaluator, on every input vector, lane-parallel."""
    vectors = list(all_ternary_vectors(fn.n_inputs))
    batch = len(vectors)
    rails = [
        encode_ternary([vec[pin] for vec in vectors]) for pin in range(fn.n_inputs)
    ]
    out_rails = eval_cell(fn, rails, batch)
    for pin in range(fn.n_outputs):
        got = decode_ternary(out_rails[pin])
        for lane, vec in enumerate(vectors):
            assert got[lane] is fn.eval_ternary(vec)[pin], (fn.name, vec)


def test_scalar_fallback_for_exotic_cells():
    from repro.logic.functions import CellFunction

    maj = CellFunction("MAJ", 3, 1, lambda v: (sum(v) >= 2,))
    vectors = list(all_ternary_vectors(3))
    rails = [encode_ternary([vec[pin] for vec in vectors]) for pin in range(3)]
    out = decode_ternary(eval_cell(maj, rails, len(vectors))[0])
    for lane, vec in enumerate(vectors):
        assert out[lane] is maj.eval_ternary(vec)[0]


def test_run_sequences_matches_scalar_cls_on_paper_pair():
    sequences = [
        ((ZERO,), (ONE,), (ONE,), (ONE,)),
        ((X,), (ZERO,), (ONE,), (X,)),
        ((ONE,), (ONE,), (ZERO,), (ZERO,)),
    ]
    for circuit in (figure1_design_d(), figure1_design_c()):
        batched = BatchedTernarySimulator(circuit).run_sequences(sequences)
        for lane, seq in enumerate(sequences):
            assert tuple(batched[lane]) == cls_outputs(circuit, seq)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 400), data=st.data())
def test_run_sequences_matches_scalar_cls_randomised(seed, data):
    circuit = random_sequential_circuit(seed, num_inputs=2, num_gates=8, num_latches=3)
    length = data.draw(st.integers(1, 4))
    count = data.draw(st.integers(1, 4))
    sequences = [
        tuple(
            tuple(data.draw(ternary) for _ in circuit.inputs) for _ in range(length)
        )
        for _ in range(count)
    ]
    batched = BatchedTernarySimulator(circuit).run_sequences(sequences)
    for lane, seq in enumerate(sequences):
        assert tuple(batched[lane]) == cls_outputs(circuit, seq)


def test_run_sequences_validations():
    d = figure1_design_d()
    sim = BatchedTernarySimulator(d)
    assert sim.run_sequences([]) == []
    with pytest.raises(ValueError, match="length"):
        sim.run_sequences([((ZERO,),), ((ZERO,), (ONE,))])


def test_overrides():
    d = figure1_design_d()
    sim = BatchedTernarySimulator(d, overrides={"q2b": ONE})
    results = sim.run_sequences([((ONE,),)])
    assert results[0][0] == (ONE,)  # AND(1, stuck-1)
