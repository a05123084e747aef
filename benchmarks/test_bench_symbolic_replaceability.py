"""Explicit-vs-symbolic crossover on the safe-replacement decision.

The ISSUE's motivating claim, measured: the explicit subset
construction is exponential in latch count (STG enumeration alone is
``2**latches``), while the BDD engine's cost tracks diagram width.
This benchmark runs the reflexive safe-replacement decision ``C ≼ C``
-- the workload every retiming-validity check pays, and one whose
verdict (safe) is known in advance -- over a random-circuit family of
growing latch count with a fixed explicit-engine budget, and records
the crossover table to ``benchmarks/results/``.

Expected shape (asserted): both engines agree wherever both complete,
and above the crossover the explicit engine exceeds its subset-state
budget while the symbolic engine still answers.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.bench.generators import random_sequential_circuit
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import SearchBudgetExceeded, find_violation
from repro.stg.symbolic_replaceability import SymbolicContainmentChecker

#: Latch counts of the benchmark family.  At 16 latches the explicit
#: engine's initial frontier alone (2**16 subset states) exceeds the
#: budget below; 14 is omitted only because its explicit run takes
#: ~40 s without changing the story.
LATCH_COUNTS = (8, 10, 12, 16)

#: Subset-state budget for the explicit engine in this experiment.
EXPLICIT_BUDGET = 20000


def _family_circuit(num_latches: int):
    return random_sequential_circuit(
        7,
        num_inputs=1,
        num_gates=2 * num_latches,
        num_latches=num_latches,
        num_outputs=1,
    )


def _run_explicit(circuit):
    started = time.perf_counter()
    try:
        stg = extract_stg(circuit)
        verdict = find_violation(stg, stg, max_states=EXPLICIT_BUDGET) is None
        return time.perf_counter() - started, verdict
    except (SearchBudgetExceeded, ValueError):
        # ValueError = the STG table itself refuses to materialise.
        return time.perf_counter() - started, None


def _run_symbolic(circuit):
    started = time.perf_counter()
    checker = SymbolicContainmentChecker(circuit, circuit)
    verdict = checker.is_safe_replacement()
    return time.perf_counter() - started, verdict, checker.manager.num_nodes


def test_crossover_table(record_artifact):
    rows = []
    budget_exceeded_sizes = []
    for n in LATCH_COUNTS:
        circuit = _family_circuit(n)
        explicit_s, explicit_verdict = _run_explicit(circuit)
        symbolic_s, symbolic_verdict, nodes = _run_symbolic(circuit)
        assert symbolic_verdict is True  # ≼ is reflexive
        if explicit_verdict is None:
            budget_exceeded_sizes.append(n)
        else:
            assert explicit_verdict == symbolic_verdict
        rows.append(
            "%6d | %9s %8.3fs | %9s %8.3fs %9d"
            % (
                n,
                "safe" if explicit_verdict else "BUDGET",
                explicit_s,
                "safe" if symbolic_verdict else "violation",
                symbolic_s,
                nodes,
            )
        )
    # The acceptance criterion: some family member is out of reach of
    # the explicit engine's budget but decided symbolically.
    assert budget_exceeded_sizes, (
        "no family size exceeded the explicit budget of %d" % EXPLICIT_BUDGET
    )
    header = (
        "Reflexive safe replacement C ≼ C, random family (seed 7), "
        "explicit budget %d subset states\n" % EXPLICIT_BUDGET
        + "latches | explicit verdict/time    | symbolic verdict/time/BDD nodes\n"
        + "-" * 72
    )
    footer = "explicit exceeds its budget at: %s latches" % (
        ", ".join(str(n) for n in budget_exceeded_sizes)
    )
    record_artifact(
        "symbolic_replaceability", header + "\n" + "\n".join(rows) + "\n" + footer
    )


def test_bench_symbolic_paper_pair(benchmark):
    """Timing distribution of the full symbolic decision (compile +
    implication fixpoint + subset fixpoint + witness) on Figure 1."""
    c, d = figure1_design_c(), figure1_design_d()
    violation = benchmark(lambda: SymbolicContainmentChecker(c, d).find_violation())
    assert violation is not None
    assert violation.input_symbols == (0, 1)


def test_bench_symbolic_self_pair_12_latches(benchmark):
    circuit = _family_circuit(12)

    def decide():
        return SymbolicContainmentChecker(circuit, circuit).is_safe_replacement()

    result = benchmark.pedantic(decide, rounds=3, iterations=1)
    assert result is True


def test_engines_report_obs_counters():
    """Both engines surface their work through ``repro.obs`` so
    ``repro --report FILE check --stg`` can attribute containment cost."""
    c, d = figure1_design_c(), figure1_design_d()
    with obs.timed("containment") as run:
        SymbolicContainmentChecker(c, d).find_violation()
        find_violation(extract_stg(c), extract_stg(d))
    counters = run.report.counters
    assert counters["stg.replaceability.symbolic_checks"] == 1
    assert counters["stg.replaceability.explicit_checks"] == 1
    assert counters["stg.replaceability.subset_states"] > 0
    assert counters["bdd.nodes_created"] > 0
    assert counters["bdd.ite_calls"] > 0
    paths = [s.path for s in run.report.spans]
    assert any("stg.symbolic.safe_replacement" in p for p in paths)
