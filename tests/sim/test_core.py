"""Tests for the trace record and the test-side reference interpreter."""

from __future__ import annotations

import pytest

from reference import propagate
from repro.bench.paper_circuits import figure1_design_d
from repro.sim.core import SimulationTrace


def test_propagate_returns_full_net_map():
    d = figure1_design_d()
    values = propagate(d, (True,), (False,), ternary=False)
    assert set(values) == set(d.nets())
    assert values["O"] == False  # AND(1, q=0)
    assert values["P"] == True  # AND(OR(1,0), NOT 0)


def test_propagate_arity_errors():
    d = figure1_design_d()
    with pytest.raises(ValueError, match="inputs"):
        propagate(d, (True, False), (False,), ternary=False)
    with pytest.raises(ValueError, match="latches"):
        propagate(d, (True,), (False, True), ternary=False)


def test_propagate_overrides_apply_everywhere():
    d = figure1_design_d()
    values = propagate(d, (True,), (False,), ternary=False, overrides={"q2b": True})
    assert values["q2b"] is True
    assert values["O"] == True


def test_trace_helpers():
    trace = SimulationTrace()
    with pytest.raises(ValueError, match="final state"):
        trace.final_state
    trace.states.append((False,))
    trace.inputs.append((True,))
    trace.outputs.append((True,))
    trace.states.append((True,))
    assert len(trace) == 1
    assert trace.final_state == (True,)
    assert trace.output_column(0) == (True,)
