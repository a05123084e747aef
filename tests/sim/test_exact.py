"""Tests for the exact ("powerful") unknown-power-up simulator."""

from __future__ import annotations

import random

import numpy as np
import pytest

from reference import exhaustive_masks, propagate_masks
from repro import obs
from repro.bench.paper_circuits import (
    TABLE1_INPUT_SEQUENCE,
    figure1_design_c,
    figure1_design_d,
)
from repro.bench.generators import random_sequential_circuit, shift_register
from repro.logic.ternary import ONE, X, ZERO
from repro.sim.compiled import column_to_mask
from repro.sim.exact import (
    ExactSimulator,
    exact_outputs,
    is_initializing_sequence,
    synchronized_state,
)


def test_section21_powerful_simulator_outputs():
    """Section 2.1: the powerful simulator outputs 0·0·1·0 for D and
    0·X·X·X for C on input 0·1·1·1."""
    d = figure1_design_d()
    c = figure1_design_c()
    assert exact_outputs(d, TABLE1_INPUT_SEQUENCE) == (
        (ZERO,),
        (ZERO,),
        (ONE,),
        (ZERO,),
    )
    assert exact_outputs(c, TABLE1_INPUT_SEQUENCE) == (
        (ZERO,),
        (X,),
        (X,),
        (X,),
    )


def test_one_redundant_cycle_reconciles_d_and_c():
    """Section 2.1: clocking one redundant cycle before the sequence
    makes even the powerful simulator agree on D and C."""
    d, c = figure1_design_d(), figure1_design_c()
    for warmup in ((False,), (True,)):
        seq = (warmup,) + TABLE1_INPUT_SEQUENCE
        assert exact_outputs(d, seq)[1:] == exact_outputs(c, seq)[1:]


def test_initializing_sequence_claims_from_figure2():
    d, c = figure1_design_d(), figure1_design_c()
    zero = [(False,)]
    assert is_initializing_sequence(d, zero)
    assert synchronized_state(d, zero) == (False,)
    assert not is_initializing_sequence(c, zero)
    assert synchronized_state(c, zero) is None
    # Two cycles initialise C (any first input, then 0).
    assert is_initializing_sequence(c, [(True,), (False,)])
    assert is_initializing_sequence(c, [(False,), (False,)])


def test_restricting_states_models_delayed_design():
    """Restricting the sweep to C^1's states makes C look like D."""
    import numpy as np

    c = figure1_design_c()
    sim = ExactSimulator(c)
    delayed = np.array([[False, False], [True, True]])  # states 00 and 11
    outs = sim.outputs(TABLE1_INPUT_SEQUENCE, states=delayed)
    assert outs == ((ZERO,), (ZERO,), (ONE,), (ZERO,))


def test_max_latch_guard_and_sampling():
    sr = shift_register(25)
    with pytest.raises(ValueError, match="capped"):
        ExactSimulator(sr, max_latches=20)
    # Sampling keeps it usable.
    sim = ExactSimulator(sr, sample=64, seed=1)
    outs = sim.outputs([(True,)] * 3)
    assert outs[0] == (X,)  # sampled states disagree on the tail bit


def test_shift_register_becomes_definite_after_fill():
    sr = shift_register(3)
    seq = [(True,)] * 5
    outs = exact_outputs(sr, seq)
    assert outs[0] == (X,) and outs[1] == (X,) and outs[2] == (X,)
    assert outs[3] == (ONE,) and outs[4] == (ONE,)


def test_final_states_shape():
    d = figure1_design_d()
    sim = ExactSimulator(d)
    final = sim.final_states([(False,)])
    assert final.shape == (2, 1)
    assert not final.any()  # both states reset to 0


def test_overrides_flow_through():
    d = figure1_design_d()
    sim = ExactSimulator(d, overrides={"q2b": True})
    outs = sim.outputs(TABLE1_INPUT_SEQUENCE)
    # Output gate = AND(I, 1) = I.
    assert outs == ((ZERO,), (ONE,), (ONE,), (ONE,))


def test_vectors_of_the_wrong_width_are_rejected():
    # Exact simulation reads one value per primary input, like the CLS:
    # extra values must not be ignored, and missing ones must not
    # surface as an IndexError from inside the compiled program.
    d = figure1_design_d()
    message = "circuit %s has 1 inputs, got %%d values" % d.name
    for vector in ((False, True), ()):
        with pytest.raises(ValueError, match=message % len(vector)):
            exact_outputs(d, [(True,), vector])
        with pytest.raises(ValueError, match=message % len(vector)):
            ExactSimulator(d).outputs([vector])
        with pytest.raises(ValueError, match=message % len(vector)):
            ExactSimulator(d).final_states([vector])


def test_empty_or_misshaped_power_up_states_are_rejected():
    """No power-up states is an error, not "every output is 1 in all of
    none"; nor is a state array of the wrong width.  Both are caught
    before the sweep reads its first vector."""
    c = figure1_design_c()
    for sample in (0, -1):
        with pytest.raises(ValueError, match="sample must be at least 1, got %d" % sample):
            ExactSimulator(c, sample=sample)
    sim = ExactSimulator(c)
    for states, message in (
        (np.zeros((0, 2), dtype=bool), "needs at least one power-up state"),
        (np.zeros((4, 3), dtype=bool), r"2 latches, got power-up states of shape \(4, 3\)"),
        (np.zeros(2, dtype=bool), r"shape \(2,\)"),
    ):
        for run in (sim.outputs, sim.final_states):
            vectors = iter(TABLE1_INPUT_SEQUENCE)
            with pytest.raises(ValueError, match=message):
                run(vectors, states=states)
            assert next(vectors) == TABLE1_INPUT_SEQUENCE[0]


# ---------------------------------------------------------------------------
# The one-lane finish against every lane stepped to the end.
# ---------------------------------------------------------------------------


def _oracle(circuit, sequence, rows=None, overrides=None):
    """Exact outputs, final state rows and synchronized state, with every
    lane stepped through the whole *sequence* by the reference
    interpreter (lane i = row i of *rows*, or power-up state i)."""
    n = circuit.num_latches
    if rows is None:
        batch, state = 1 << n, exhaustive_masks(n)
    else:
        batch, state = len(rows), tuple(column_to_mask(rows[:, j]) for j in range(n))
    lanes = (1 << batch) - 1
    outputs = []
    for vector in sequence:
        values = propagate_masks(
            circuit, [lanes if bit else 0 for bit in vector], state, lanes, overrides
        )
        outputs.append(
            tuple(
                ONE if values[net] == lanes else (ZERO if values[net] == 0 else X)
                for net in circuit.outputs
            )
        )
        state = tuple(values[latch.data_in] for latch in circuit.latches)
    final = np.array(
        [[bool(mask >> lane & 1) for mask in state] for lane in range(batch)], dtype=bool
    ).reshape(batch, n)
    same = (final == final[0]).all()
    return tuple(outputs), final, tuple(bool(v) for v in final[0]) if same else None


def _agrees_with_oracle(circuit, sequence, *, rows=None, overrides=None, sim=None):
    """Compare one sweep with the oracle; return the cycles it ran on one lane."""
    sim = sim or ExactSimulator(circuit, overrides=overrides)
    expected, final, synchronized = _oracle(circuit, sequence, rows, overrides)
    with obs.timed("exact-vs-oracle") as run:
        assert sim.outputs(sequence, states=rows) == expected
    np.testing.assert_array_equal(sim.final_states(sequence, states=rows), final)
    if rows is None and not overrides:
        assert synchronized_state(circuit, sequence) == synchronized
    return run.report.counter("sim.exact.synchronized_cycles")


def test_one_lane_finish_matches_every_lane_stepped():
    """Seeded random circuits of 1 to 8 latches, with and without
    stuck-at overrides, over exhaustive, sampled and explicit sweeps
    (duplicate rows included).  Both kinds of sweep occur: ones that
    merge and finish on one lane, and ones that never merge."""
    merged = unmerged = 0
    for seed in range(24):
        rng = random.Random(seed)
        latches = 1 + seed % 8
        circuit = random_sequential_circuit(
            seed, num_inputs=2, num_gates=8 + latches, num_latches=latches, num_outputs=2
        )
        sequence = [tuple(rng.random() < 0.5 for _ in range(2)) for _ in range(10)]
        nets = sorted(circuit.nets())
        overrides = (
            {net: rng.random() < 0.5 for net in rng.sample(nets, 1 + seed % 2)}
            if seed % 3
            else None
        )
        one_lane = _agrees_with_oracle(circuit, sequence, overrides=overrides)
        merged += one_lane > 0
        unmerged += one_lane == 0
        sampled = ExactSimulator(circuit, sample=5, seed=seed, overrides=overrides)
        _agrees_with_oracle(
            circuit, sequence, rows=sampled.states, overrides=overrides, sim=sampled
        )
        picks = [rng.randrange(1 << latches) for _ in range(3)]
        rows = np.array(
            [[bool(i >> (latches - 1 - j) & 1) for j in range(latches)] for i in picks * 2],
            dtype=bool,
        )
        _agrees_with_oracle(circuit, sequence, rows=rows, overrides=overrides)
        _agrees_with_oracle(circuit, sequence, rows=rows[:1].repeat(3, axis=0))
    assert merged and unmerged


@pytest.mark.parametrize(
    "circuit, sequence",
    (
        (figure1_design_c(), TABLE1_INPUT_SEQUENCE),  # never merges
        (figure1_design_d(), TABLE1_INPUT_SEQUENCE),  # merges after one cycle
        (shift_register(4), [(True,)] * 3),  # not yet filled
        (shift_register(4), [(True,), (False,)] * 3),  # filled after four
    ),
)
def test_paper_and_shift_register_sweeps_match_the_oracle(circuit, sequence):
    _agrees_with_oracle(circuit, sequence)
    _agrees_with_oracle(circuit, sequence, overrides={circuit.inputs[0]: False})


def test_a_merged_sweep_finishes_on_one_lane():
    """Figure 1's D merges on its first input 0 and runs the other three
    cycles of Table 1 on one lane (2 + 3 lanes stepped); C never merges
    and steps all four of its lanes every cycle."""
    for circuit, one_lane, stepped in (
        (figure1_design_d(), 3, 2 + 3 * 1),
        (figure1_design_c(), 0, 4 * 4),
    ):
        with obs.timed("collapse") as run:
            exact_outputs(circuit, TABLE1_INPUT_SEQUENCE)
        assert run.report.counter("sim.exact.synchronized_cycles") == one_lane
        assert run.report.counter("sim.exact.cycles") == 4
        assert run.report.counter("sim.exact.lanes") == 1 << circuit.num_latches
        assert run.report.counter("sim.compiled.binary.lanes") == stepped
