"""The SAT engine benchmarked against its two siblings, with receipts.

Two artefacts land in ``benchmarks/results/``:

* ``sat_engine.txt`` -- a three-engine timing/verdict table over the
  paper pairs and a random family, asserting unanimity wherever every
  engine completes;
* ``sat_certificates/`` -- the full certificate bundle for the
  Figure 1 verdict (``.bench`` pair, DIMACS, SMV, witness JSON,
  MANIFEST), regenerated on every run and re-checked in-process by
  ``repro.sat.replay`` before it is recorded.  CI uploads this
  directory, so every build ships a machine-checkable proof of the
  paper's running example.
"""

from __future__ import annotations

import pathlib
import time

from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.sat import check_safe_replacement
from repro.sat.certificates import write_bundle
from repro.sat.replay import replay_witness
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import SearchBudgetExceeded, find_violation
from repro.stg.symbolic_replaceability import SymbolicContainmentChecker

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _pairs():
    fig1_c, fig1_d = figure1_design_c(), figure1_design_d()
    rows = [
        ("fig1 C vs D", fig1_c, fig1_d),
        ("fig1 D vs C", fig1_d, fig1_c),
    ]
    for seed in (3, 17, 42):
        c = random_sequential_circuit(
            seed, num_inputs=2, num_gates=10, num_latches=3
        )
        d = random_sequential_circuit(
            seed + 101, num_inputs=2, num_gates=10, num_latches=3
        )
        rows.append(("random seed %d" % seed, c, d))
    return rows


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    try:
        verdict = fn(*args, **kwargs)
    except SearchBudgetExceeded:
        return time.perf_counter() - started, "BUDGET"
    return time.perf_counter() - started, verdict


def test_three_engine_table(record_artifact):
    rows = []
    for label, c, d in _pairs():
        explicit_s, explicit_v = _timed(
            lambda: find_violation(extract_stg(c), extract_stg(d))
        )
        symbolic_s, symbolic_v = _timed(
            lambda: SymbolicContainmentChecker(c, d).find_violation()
        )
        sat_s, sat_v = _timed(lambda: check_safe_replacement(c, d).violation)
        verdicts = {
            name: v if v == "BUDGET" else ("safe" if v is None else "violation")
            for name, v in (
                ("explicit", explicit_v),
                ("symbolic", symbolic_v),
                ("sat", sat_v),
            )
        }
        decided = {v for v in verdicts.values() if v != "BUDGET"}
        assert len(decided) == 1, "ballot split on %s: %r" % (label, verdicts)
        rows.append(
            "%-16s | %9s %7.3fs | %9s %7.3fs | %9s %7.3fs"
            % (
                label,
                verdicts["explicit"],
                explicit_s,
                verdicts["symbolic"],
                symbolic_s,
                verdicts["sat"],
                sat_s,
            )
        )
    header = (
        "Safe replacement C ≼ D, three engines, unanimous verdicts\n"
        "pair             | explicit           | symbolic           | sat\n"
        + "-" * 76
    )
    record_artifact("sat_engine", header + "\n" + "\n".join(rows))


def test_figure1_certificate_bundle():
    """Regenerate and re-check the shipped Figure 1 certificate."""
    c, d = figure1_design_c(), figure1_design_d()
    result = check_safe_replacement(c, d)
    assert not result.holds
    replay = replay_witness(c, d, result.witness)
    assert replay.ok, replay.errors
    bundle_dir = RESULTS_DIR / "sat_certificates"
    written = write_bundle(str(bundle_dir), result, c, d)
    assert {"c.bench", "d.bench", "miter.dimacs", "miter.smv", "witness.json"} <= set(
        written
    )


def test_bench_sat_paper_pair(benchmark):
    """Timing distribution of the full SAT decision (encode + deepen +
    CDCL + witness decode) on Figure 1."""
    c, d = figure1_design_c(), figure1_design_d()
    violation = benchmark(lambda: check_safe_replacement(c, d).violation)
    assert violation is not None
    assert violation.input_symbols == (0, 1)
