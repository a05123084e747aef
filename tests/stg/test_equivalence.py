"""Tests for state equivalence and machine implication."""

from __future__ import annotations

import pytest

from repro.bench.generators import random_sequential_circuit, shift_register
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.netlist.builder import CircuitBuilder
from repro.stg.equivalence import (
    equivalence_classes,
    equivalent_state_in,
    implies,
    joint_equivalence_classes,
    machines_equivalent,
    quotient,
)
from repro.stg.explicit import extract_stg


def d_stg():
    return extract_stg(figure1_design_d())


def c_stg():
    return extract_stg(figure1_design_c())


def test_design_d_states_are_inequivalent():
    blocks = equivalence_classes(d_stg())
    assert blocks[0] != blocks[1]  # they output differently on input 1


def test_design_c_equivalent_states():
    """In C the output gate reads Q2 only, so 01 and 11 are equivalent
    (both "look like" D's state 1); 00 matches D's state 0; the rogue
    power-up state 10 is equivalent to nothing."""
    blocks = equivalence_classes(c_stg())
    assert blocks[1] == blocks[3]  # 01 ~ 11
    assert blocks[0] != blocks[1]
    assert blocks[2] not in (blocks[0], blocks[1])  # state 10 is unique
    assert len(set(blocks)) == 3


def test_quotient_machine():
    q = quotient(c_stg())
    assert q.num_blocks == 3
    members = {q.block_of_state[s] for s in range(4)}
    assert len(members) == 3
    # Block members partition the state set.
    all_members = sorted(sum((list(q.members(b)) for b in range(q.num_blocks)), []))
    assert all_members == [0, 1, 2, 3]


def test_implication_between_paper_designs():
    """Section 2/4 on Figure 1: D ⊑ C but C ⋢ D."""
    assert implies(d_stg(), c_stg())
    assert not implies(c_stg(), d_stg())


def test_equivalent_state_witness():
    # Every state of D has an equivalent state in C...
    for s in range(2):
        witness = equivalent_state_in(d_stg(), c_stg(), s)
        assert witness is not None
    # ...but C's state 10 has no equivalent in D.
    assert equivalent_state_in(c_stg(), d_stg(), 2) is None
    assert equivalent_state_in(c_stg(), d_stg(), 0) is not None


def test_machines_equivalent_is_mutual_implication():
    assert not machines_equivalent(c_stg(), d_stg())
    assert machines_equivalent(d_stg(), d_stg())


def test_implication_reflexive_on_random_circuits():
    for seed in range(4):
        stg = extract_stg(random_sequential_circuit(seed))
        assert implies(stg, stg)


def test_mismatched_interfaces_rejected():
    two_in = extract_stg(random_sequential_circuit(0, num_inputs=2))
    one_in = extract_stg(random_sequential_circuit(0, num_inputs=1))
    with pytest.raises(ValueError, match="mismatched interfaces: 2/1 inputs"):
        joint_equivalence_classes(two_in, one_in)


def test_mismatched_outputs_rejected():
    a = extract_stg(random_sequential_circuit(0, num_inputs=1, num_outputs=1))
    b = extract_stg(random_sequential_circuit(1, num_inputs=1, num_outputs=2))
    if a.num_outputs != b.num_outputs:
        with pytest.raises(ValueError, match="inputs, 1/2 outputs"):
            joint_equivalence_classes(a, b)


def test_shift_register_equivalence_classes():
    """All states of a 2-stage shift register are distinguishable (the
    output reveals the bits in order)."""
    stg = extract_stg(shift_register(2))
    blocks = equivalence_classes(stg)
    assert len(set(blocks)) == 4


def test_structurally_different_but_equivalent_machines():
    """Double negation is invisible to equivalence."""

    def plain():
        b = CircuitBuilder()
        i = b.input("i")
        q = b.net("q")
        b.latch(b.gate("AND", i, q), q, name="ff")
        b.output(b.gate("BUF", q))
        return extract_stg(b.build())

    def doubled():
        b = CircuitBuilder()
        i = b.input("i")
        q = b.net("q")
        b.latch(b.gate("AND", i, q), q, name="ff")
        nn = b.gate("NOT", b.gate("NOT", q))
        b.output(nn)
        return extract_stg(b.build())

    assert machines_equivalent(plain(), doubled())
