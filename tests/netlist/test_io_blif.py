"""Tests for the BLIF reader/writer."""

from __future__ import annotations

import pytest

from reference import exhaustive_masks, lane_mismatch
from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.netlist.io_blif import BlifParseError, parse_blif, write_blif
from repro.netlist.validate import validate
from repro.sim.compiled import compile_circuit
from repro.stg.equivalence import machines_equivalent
from repro.stg.explicit import extract_stg

SIMPLE = """
# a small machine
.model simple
.inputs x
.outputs z
.latch d q 3
.names x q d
11 1
.names x q z
0- 1
-1 1
.end
"""


def test_parse_simple():
    model = parse_blif(SIMPLE)
    assert model.name == "simple"
    c = model.circuit
    validate(c)
    assert c.inputs == ("x",)
    assert c.outputs == ("z",)
    assert c.latch_names == ("lat_q",)
    # d = AND(x, q); z = OR(NOT x, q)
    stg = extract_stg(c)
    # state 0, input 1: d = 0; z = q = 0 -> output OR(0, 0) = 0
    assert stg.output[0][1] == 0
    assert stg.output[1][0] == 1  # NOT x
    assert stg.next_state[1][1] == 1  # AND(1,1)


def test_parse_offset_cubes():
    text = """
.model offset
.inputs a b
.outputs y
.names a b y
11 0
.end
"""
    c = parse_blif(text).circuit
    stg = extract_stg(c)
    # y = NOT(a AND b) = NAND
    assert [stg.output[0][a] for a in range(4)] == [1, 1, 1, 0]


def test_parse_constant_blocks():
    text = """
.model consts
.inputs a
.outputs k1 k0
.names k1
1
.names k0
.end
"""
    c = parse_blif(text).circuit
    stg = extract_stg(c)
    assert stg.output[0][0] == 0b10
    assert stg.output[0][1] == 0b10


def test_parse_all_dontcare_cube_is_constant():
    text = """
.model dc
.inputs a
.outputs y
.names a y
- 1
.end
"""
    c = parse_blif(text).circuit
    stg = extract_stg(c)
    assert stg.output[0][0] == 1 and stg.output[0][1] == 1


def test_latch_inits_reported_but_not_applied():
    text = """
.model withinit
.inputs x
.outputs q
.latch d q re clk 1
.names x d
1 1
.end
"""
    model = parse_blif(text)
    assert model.latch_inits == {"lat_q": 1}
    # The circuit itself has no initial value anywhere (paper model).
    assert model.circuit.latch("lat_q").data_in == "d"


def test_line_continuation_and_comments():
    text = ".model c\n.inputs a \\\nb\n.outputs y # trailing\n.names a b y\n11 1\n.end\n"
    c = parse_blif(text).circuit
    assert c.inputs == ("a", "b")


def test_parse_errors():
    with pytest.raises(BlifParseError, match="at least an output"):
        parse_blif(".model m\n.names\n.end")
    with pytest.raises(BlifParseError, match="bad cube pattern"):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end")
    with pytest.raises(BlifParseError, match="mixed"):
        parse_blif(".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end")
    with pytest.raises(BlifParseError, match="unsupported"):
        parse_blif(".model m\n.subckt foo\n.end")
    with pytest.raises(BlifParseError, match="never defined"):
        parse_blif(".model m\n.inputs a\n.outputs y\n.names a ghost y\n11 1\n.end")
    with pytest.raises(BlifParseError, match=".latch needs"):
        parse_blif(".model m\n.latch x\n.end")


def test_write_then_parse_roundtrips_behaviour():
    original = parse_blif(SIMPLE).circuit
    text = write_blif(original)
    back = parse_blif(text).circuit
    assert machines_equivalent(extract_stg(original), extract_stg(back))


def _step_every_lane(circuit, latch_order, input_order):
    """One compiled step over all ``2**(L+I)`` (state, input) lanes.

    Lane bits enumerate the latches named in *latch_order* (by data-out
    net) followed by the inputs in *input_order*, so two circuits with
    the same interface see the same lanes.  Returns the output masks
    and the next-state masks in *latch_order*.
    """
    names = list(latch_order) + list(input_order)
    masks = dict(zip(names, exhaustive_masks(len(names))))
    all_lanes = (1 << (1 << len(names))) - 1
    outs, nxt = compile_circuit(circuit).step_binary_masks(
        [masks[latch.data_out] for latch in circuit.latches],
        [masks[net] for net in circuit.inputs],
        all_lanes,
    )
    by_name = {latch.data_out: m for latch, m in zip(circuit.latches, nxt)}
    return outs, tuple(by_name[net] for net in latch_order)


def test_roundtrip_benchmarks(iscas_circuit):
    """State by state: the round-tripped circuit has the same outputs
    and next state as the original from every (state, input) pair."""
    text = write_blif(iscas_circuit)
    back = parse_blif(text).circuit
    latches = [latch.data_out for latch in iscas_circuit.latches]
    assert sorted(latch.data_out for latch in back.latches) == sorted(latches)
    assert sorted(back.inputs) == sorted(iscas_circuit.inputs)
    outs, nxt = _step_every_lane(iscas_circuit, latches, iscas_circuit.inputs)
    back_outs, back_nxt = _step_every_lane(back, latches, iscas_circuit.inputs)
    assert lane_mismatch(back_outs, outs) is None, "outputs"
    assert lane_mismatch(back_nxt, nxt) is None, "next state"


def test_roundtrip_generated():
    for seed in (0, 11):
        c = random_sequential_circuit(seed)
        back = parse_blif(write_blif(c)).circuit
        assert machines_equivalent(extract_stg(c), extract_stg(back))


def test_write_emits_expected_sections():
    c = load("mini_traffic")
    text = write_blif(c, model="traffic")
    assert text.startswith(".model traffic")
    assert ".inputs car" in text
    assert ".latch" in text
    assert text.rstrip().endswith(".end")
    # latches carry the "unknown" init code 3
    for line in text.splitlines():
        if line.startswith(".latch"):
            assert line.endswith(" 3")
