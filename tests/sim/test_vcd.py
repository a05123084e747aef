"""Tests for the VCD waveform export and its round-trip parser."""

from __future__ import annotations

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import TABLE1_INPUT_SEQUENCE, figure1_design_d
from repro.logic.ternary import ONE, X, ZERO, to_ternary
from repro.sim.binary import BinarySimulator
from repro.sim.ternary_sim import TernarySimulator, all_x_state
from repro.sim.vcd import trace_to_vcd
from vcd_reader import parse_vcd


def binary_trace():
    d = figure1_design_d()
    return d, BinarySimulator(d).run((False,), TABLE1_INPUT_SEQUENCE)


def test_vcd_header_and_signals():
    d, trace = binary_trace()
    vcd = trace_to_vcd(d, trace)
    assert "$timescale 1ns $end" in vcd
    assert "$var wire 1" in vcd
    assert "in.I" in vcd
    assert "state.L" in vcd
    assert "out.O_0" in vcd
    assert "$enddefinitions $end" in vcd


def test_vcd_timestamps_cover_all_cycles():
    d, trace = binary_trace()
    vcd = trace_to_vcd(d, trace)
    for cycle in range(len(trace) + 1):
        assert "#%d" % cycle in vcd


def test_vcd_only_changes_after_dumpvars():
    d, trace = binary_trace()
    vcd = trace_to_vcd(d, trace)
    lines = vcd.splitlines()
    # Between #1 and #2 the input I changes 0->1 once; later 1->1 holds
    # and must NOT be re-emitted.
    start2 = lines.index("#2")
    end3 = lines.index("#3")
    between = lines[start2 + 1 : end3]
    # cycle 2: input stays 1 -> no input change line expected.
    input_id = None
    for line in lines:
        if line.startswith("$var") and "in.I" in line:
            input_id = line.split()[3]
    assert input_id is not None
    assert not any(line.endswith(input_id) and len(line) <= 3 for line in between)


def test_vcd_renders_x_values():
    d = figure1_design_d()
    trace = TernarySimulator(d).run_from_unknown([(ZERO,), (ONE,)])
    vcd = trace_to_vcd(d, trace)
    assert "x" in vcd.splitlines()[-10:] or any(
        line.startswith("x") for line in vcd.splitlines()
    )


def test_vcd_custom_options():
    d, trace = binary_trace()
    vcd = trace_to_vcd(d, trace, timescale="10ps", module="dut")
    assert "$timescale 10ps $end" in vcd
    assert "$scope module dut $end" in vcd


class TestRoundTrip:
    """``parse_vcd(trace_to_vcd(...))`` recovers every waveform."""

    def _assert_matches(self, circuit, trace, waves):
        assert waves.num_cycles == len(trace)
        for pin, net in enumerate(circuit.inputs):
            expected = tuple(
                to_ternary(trace.inputs[t][pin]) for t in range(len(trace))
            )
            assert waves.wave("in.%s" % net) == expected
        for pin, net in enumerate(circuit.outputs):
            expected = tuple(
                to_ternary(trace.outputs[t][pin]) for t in range(len(trace))
            )
            assert waves.wave("out.%s_%d" % (net, pin)) == expected
        for pos, latch_name in enumerate(circuit.latch_names):
            expected = tuple(
                to_ternary(trace.states[t][pos]) for t in range(len(trace))
            )
            assert waves.wave("state.%s" % latch_name) == expected

    def test_binary_trace_round_trips(self):
        d, trace = binary_trace()
        waves = parse_vcd(trace_to_vcd(d, trace))
        self._assert_matches(d, trace, waves)

    def test_ternary_trace_round_trips_with_x(self):
        d = figure1_design_d()
        trace = TernarySimulator(d).run(all_x_state(d), [(ZERO,), (ONE,), (X,)])
        waves = parse_vcd(trace_to_vcd(d, trace))
        self._assert_matches(d, trace, waves)
        assert X in waves.wave("state.L")

    def test_random_circuits_round_trip(self):
        for seed in range(5):
            circuit = random_sequential_circuit(
                seed, num_inputs=2, num_gates=9, num_latches=3, num_outputs=2
            )
            state = tuple(bool((seed >> i) & 1) for i in range(3))
            seq = [
                tuple(bool((seed * 3 + t + i) % 2) for i in range(2))
                for t in range(6)
            ]
            trace = BinarySimulator(circuit).run(state, seq)
            waves = parse_vcd(trace_to_vcd(circuit, trace))
            self._assert_matches(circuit, trace, waves)

    def test_parser_preserves_header_fields(self):
        d, trace = binary_trace()
        waves = parse_vcd(trace_to_vcd(d, trace, timescale="10ps", module="dut"))
        assert waves.timescale == "10ps"
        assert waves.module == "dut"
        assert waves.signals[0] == "in.I"

    def test_parser_rejects_vector_changes(self):
        with pytest.raises(ValueError, match="vector"):
            parse_vcd(
                "$var wire 1 a sig $end\n$enddefinitions $end\n#0\nb101 a\n#1\n"
            )

    def test_parser_rejects_undeclared_ids(self):
        with pytest.raises(ValueError, match="undeclared"):
            parse_vcd("$enddefinitions $end\n#0\n1zz\n#1\n")
