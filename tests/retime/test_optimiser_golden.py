"""The optimisers' exact output on the ten ISCAS-89 circuits.

``tests/test_examples.py`` pins the period, register and move counts;
this pins the lags behind them.  Min-period FEAS and the min-area LP
both have many optimal solutions, and a change that picked another one
would change move sequences and validity verdicts downstream while
leaving every count alone.  ``golden/iscas89_optimisers.json`` records,
per circuit, the min-period period and lag and the min-area register
count and lag at that period; lags list their non-zero entries only.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.iscas import iscas89_names, load
from repro.retime.graph import build_retiming_graph
from repro.retime.leiserson_saxe import min_period_retiming
from repro.retime.min_area import min_area_retiming

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "iscas89_optimisers.json").read_text()
)


@pytest.mark.parametrize("name", iscas89_names())
def test_optimisers_reproduce_golden(name):
    expected = GOLDEN[name]
    g = build_retiming_graph(load(name))
    minp = min_period_retiming(g)
    mina = min_area_retiming(g, period=minp.period)
    assert set(minp.lag) == set(mina.lag) == set(g.vertices)
    assert minp.period == expected["period"]
    assert {v: lag for v, lag in minp.lag.items() if lag} == expected["min_period_lag"]
    assert mina.registers == expected["registers"]
    assert {v: lag for v, lag in mina.lag.items() if lag} == expected["min_area_lag"]
