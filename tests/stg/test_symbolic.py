"""Tests for the symbolic (BDD) sequential analyses."""

from __future__ import annotations

import pytest

from repro.bench.generators import random_sequential_circuit, shift_register
from repro.bench.iscas import load
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.logic.bdd import BDDManager
from repro.stg.delayed import delayed_states
from repro.stg.explicit import extract_stg
from repro.stg.symbolic import (
    SymbolicMachine,
    product_outputs_equivalent,
    symbolic_delayed_states,
)


def test_compile_figure1_d():
    machine = SymbolicMachine(figure1_design_d())
    assert len(machine.state_vars) == 1
    assert len(machine.input_vars) == 1
    assert len(machine.output_functions) == 1
    # O = AND(I, Q): check the BDD directly.
    i = machine.input_vars[0]
    q = machine.state_vars[0]
    assert machine.output_functions[0] == (i & q)
    # next = AND(OR(I, Q), NOT Q)
    assert machine.next_functions[0] == ((i | q) & ~q)


def test_transition_relation_is_functional():
    machine = SymbolicMachine(figure1_design_d())
    # For every (s, i) exactly one s': quantifying s' out of T is true.
    t = machine.transition
    assert t.exists(machine.next_names).is_true


def test_image_and_reachability_on_figure1_c():
    machine = SymbolicMachine(figure1_design_c())
    everything = machine.all_states()
    one_step = machine.image(everything)
    # C^1 = {00, 11}
    states = set(machine.enumerate_states(one_step))
    assert states == {(False, False), (True, True)}
    # Fixpoint from the all-zero state covers {00, 11} as well.
    reach = machine.reachable(machine.state_cube((False, False)))
    assert set(machine.enumerate_states(reach)) == {(False, False), (True, True)}


def test_symbolic_delayed_matches_explicit():
    for circuit in (
        figure1_design_c(),
        load("mini_traffic"),
        random_sequential_circuit(3, num_gates=6, num_latches=3),
    ):
        stg = extract_stg(circuit)
        for n in (0, 1, 2, 3):
            assert symbolic_delayed_states(circuit, n) == delayed_states(stg, n), (
                circuit.name,
                n,
            )


def test_preimage_inverts_image_on_singletons():
    machine = SymbolicMachine(figure1_design_d())
    zero = machine.state_cube((False,))
    pre = machine.preimage(zero)
    # Every state can reach 0 in one step (input 0), so preimage is all.
    assert pre.is_true


def test_count_states():
    machine = SymbolicMachine(figure1_design_c())
    assert machine.count_states(machine.all_states()) == 4
    assert machine.count_states(machine.delayed(1)) == 2
    assert machine.count_states(machine.state_cube((True, False))) == 1


def test_state_cube_width_checked():
    machine = SymbolicMachine(figure1_design_c())
    with pytest.raises(ValueError):
        machine.state_cube((True,))


def test_product_miter_on_paper_pair():
    """Symbolically: from the product of D's states with C's *delayed*
    states the outputs always agree (C^1 ~ D), but from the full
    product -- which includes C's rogue state 10 -- they differ."""
    manager = BDDManager()
    d = figure1_design_d()
    c = figure1_design_c()
    md = SymbolicMachine(d, manager, prefix="d.")
    mc = SymbolicMachine(c, manager, prefix="c.", input_vars=md.input_vars)

    # Full product: inequivalent (the Section 2.1 phenomenon).
    ok, witness = product_outputs_equivalent(d, c, machines=(md, mc))
    assert not ok
    assert witness is not None

    # D x C^1, paired compatibly: D state s with C state (s, s).
    pairs = manager.false
    for bit in (False, True):
        pairs = pairs | (md.state_cube((bit,)) & mc.state_cube((bit, bit)))
    ok, witness = product_outputs_equivalent(d, c, pairs, machines=(md, mc))
    assert ok and witness is None


def test_product_miter_finds_the_rogue_state():
    manager = BDDManager()
    d = figure1_design_d()
    c = figure1_design_c()
    md = SymbolicMachine(d, manager, prefix="d.")
    mc = SymbolicMachine(c, manager, prefix="c.", input_vars=md.input_vars)
    # Pair both D states against C's state 10: mismatch reachable.
    pairs = (md.state_cube((False,)) | md.state_cube((True,))) & mc.state_cube(
        (True, False)
    )
    ok, witness = product_outputs_equivalent(d, c, pairs, machines=(md, mc))
    assert not ok
    # The witness assigns shared inputs plus both machines' states.
    assert any(name.startswith("c.") for name in witness)


def test_product_miter_reflexive():
    circuit = load("mini_seqdet")
    manager = BDDManager()
    a = SymbolicMachine(circuit, manager, prefix="a.")
    b = SymbolicMachine(circuit, manager, prefix="b.", input_vars=a.input_vars)
    # Identical machines started in identical states: equivalent.
    pairs = manager.false
    import itertools

    for bits in itertools.product((False, True), repeat=circuit.num_latches):
        pairs = pairs | (a.state_cube(bits) & b.state_cube(bits))
    ok, _ = product_outputs_equivalent(circuit, circuit, pairs, machines=(a, b))
    assert ok


def test_shift_register_reachability_is_everything():
    machine = SymbolicMachine(shift_register(4))
    reach = machine.reachable(machine.state_cube((False,) * 4))
    assert machine.count_states(reach) == 16


def test_symbolic_transitions_agree_with_explicit_stg():
    """Property: the BDD next-state/output functions evaluate exactly
    as the explicit STG tabulates, on every (state, input) pair."""
    circuit = random_sequential_circuit(9, num_inputs=2, num_gates=7, num_latches=3)
    machine = SymbolicMachine(circuit)
    stg = extract_stg(circuit)
    m = machine.manager
    n, width = circuit.num_latches, len(circuit.inputs)
    for s in range(stg.num_states):
        for a in range(stg.num_symbols):
            env = {}
            for j, name in enumerate(machine.state_names):
                env[name] = bool((s >> (n - 1 - j)) & 1)
            for i, name in enumerate(machine.input_names):
                env[name] = bool((a >> (width - 1 - i)) & 1)
            nxt = 0
            for fn in machine.next_functions:
                nxt = (nxt << 1) | int(m.evaluate(fn, env))
            out = 0
            for fn in machine.output_functions:
                out = (out << 1) | int(m.evaluate(fn, env))
            assert nxt == stg.next_state[s][a]
            assert out == stg.output[s][a]
