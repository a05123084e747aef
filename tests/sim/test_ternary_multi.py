"""Batched CLS: the dual-rail specification, and the sampled check that
steps it over lane masks.

:func:`repro.retime.validity.first_cls_difference` runs every sequence
of one length as a lane of one dual-rail sweep.  These tests hold it to
the same question asked one sequence at a time through scalar
:func:`~repro.sim.ternary_sim.cls_outputs` runs
(``reference.first_cls_difference_by_scalar``), and hold the per-cell
dual-rail forms of ``tests/dual_rail.py`` to the cell library.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dual_rail import decode_ternary, encode_ternary, eval_cell
from reference import first_cls_difference_by_scalar, with_output_inverted
from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.logic.functions import AND, MUX, NOT, OR, XNOR, XOR, junction, make_gate
from repro.logic.ternary import ONE, X, ZERO, all_ternary_vectors
from repro.retime.validity import first_cls_difference
from repro.sim.compiled import compile_circuit
from repro.sim.ternary_sim import TernarySimulator

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


PAPER_SEQUENCES = [
    ((ZERO,), (ONE,), (ONE,), (ONE,)),
    ((X,), (ZERO,), (ONE,), (X,)),
    ((ONE,), (ONE,), (ZERO,), (ZERO,)),
]


def test_first_cls_difference_matches_scalar_cls_on_paper_pair():
    """Figure 1's C and D agree under the CLS (Cor 5.3); each against its
    output-inverted mutant differs where the scalar runs say."""
    d, c = figure1_design_d(), figure1_design_c()
    assert first_cls_difference(d, c, PAPER_SEQUENCES) is None
    for circuit in (d, c):
        mutant = with_output_inverted(circuit)
        expected = first_cls_difference_by_scalar(circuit, mutant, PAPER_SEQUENCES)
        assert expected is not None
        assert first_cls_difference(circuit, mutant, PAPER_SEQUENCES) == expected


def test_first_cls_difference_reports_the_lowest_sequence_not_the_earliest_cycle():
    """Sequence 0 differs only at cycle 3 and sequence 1 already at
    cycle 0: the answer is sequence 0's difference, in a shared lane
    sweep and across length groups alike."""
    d = figure1_design_d()
    mutant = with_output_inverted(d)
    late = [(X,), (X,), (X,), (ZERO,)]  # O = AND(I, Q): X, X, X, then 0
    early = [(ZERO,), (ZERO,), (ZERO,), (ZERO,)]
    assert first_cls_difference_by_scalar(d, mutant, [late, early]) == (0, 3)
    assert first_cls_difference(d, mutant, [late, early]) == (0, 3)
    assert first_cls_difference(d, mutant, [late, early[:2]]) == (0, 3)
    assert first_cls_difference(d, mutant, [[(X,)], late, early]) == (1, 3)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 400), data=st.data())
def test_first_cls_difference_matches_scalar_cls_randomised(seed, data):
    """Ragged batches (lengths 0 to 6, one sequence or several) of a
    random circuit against a second random circuit or against its
    output-inverted mutant: the batched answer is the scalar one."""
    circuit = random_sequential_circuit(
        seed, num_inputs=2, num_outputs=2, num_gates=8, num_latches=3
    )
    if data.draw(st.booleans()):
        other = with_output_inverted(circuit, data.draw(st.integers(0, 1)))
    else:
        other = random_sequential_circuit(
            seed + 1, num_inputs=2, num_outputs=2, num_gates=8, num_latches=2
        )
    count = data.draw(st.integers(1, 6))
    sequences = [
        [
            tuple(data.draw(ternary) for _ in circuit.inputs)
            for _ in range(data.draw(st.integers(0, 6)))
        ]
        for _ in range(count)
    ]
    expected = first_cls_difference_by_scalar(circuit, other, sequences)
    assert first_cls_difference(circuit, other, sequences) == expected


def test_first_cls_difference_validations():
    """No sequence is no difference, and sequences of several lengths,
    the empty one included, share one check (vectors of the wrong width
    are pinned in ``tests/retime/test_validity.py``)."""
    d = figure1_design_d()
    assert first_cls_difference(d, d, []) is None
    assert first_cls_difference(d, d, [[(ZERO,)], [(ZERO,), (ONE,)], []]) is None


def test_overrides():
    """A stuck-at override forces every lane of a dual-rail step alike,
    as it forces the scalar CLS step."""
    d = figure1_design_d()
    compiled = compile_circuit(d)
    overrides = {"q2b": ONE}
    inputs = (ONE, ZERO, X)  # lane k holds inputs[k]
    lanes = 0b111
    rails = [(0b110, 0b101)]  # can0 where not 1, can1 where not 0
    outs, _ = compiled.step_ternary_masks(
        [(lanes, lanes)], rails, lanes, compiled.forced_ternary(overrides, lanes)
    )
    (can0, can1), = outs
    assert (can0, can1) == (0b110, 0b101)  # AND(input, stuck-1) = input
    scalar = TernarySimulator(d, overrides=overrides)
    for lane, value in enumerate(inputs):
        expected = scalar.step((X,), (value,))[0][0]
        assert (expected is not ONE, expected is not ZERO) == (
            bool(can0 >> lane & 1),
            bool(can1 >> lane & 1),
        )
