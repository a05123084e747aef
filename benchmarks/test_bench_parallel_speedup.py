"""Where parallel hardware pays: fault grading packs faults into lanes.

Not a paper artefact: the paper's circuits are small enough that the
serial compiled core regenerates every table in milliseconds.  This
benchmark records the data behind the lane-packing decision, so
downstream adopters with larger circuits know what to expect: one fault
at a time (the single-fault ``detects_exact`` / ``detects_cls`` API in
a loop with fault dropping) against
:class:`~repro.sim.fault.FaultSimulator`, which grades the survivors of
each test in packed sweeps of the forced compiled program -- exact
semantics on s27, CLS on s386.

The asserted contract is **determinism**, not speed: both sides of
every row must reach the same verdicts, bit for bit.  Wall-clock ratios
are recorded (best of :data:`REPEATS` runs) but not asserted, because
they are a property of the host (the artefact records the core count
next to the numbers for that reason).
"""

from __future__ import annotations

import os
import random
import time

from repro.analysis.reporting import ascii_table, banner
from repro.bench.iscas import BENCHMARKS, load
from repro.netlist.io_bench import parse_bench
from repro.netlist.transform import normalize_fanout
from repro.sim.atpg import generate_tests
from repro.sim.fault import (
    FaultSimulator,
    detects_cls,
    detects_exact,
    enumerate_faults,
    good_outputs,
)

#: Best of this many runs per cell: single runs on a shared host swing
#: by up to 2x.
REPEATS = 3


def _timed(fn):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _speedup(before: float, after: float) -> str:
    return "%.2fx" % (before / after if after else float("inf"))


def one_fault_at_a_time(circuit, tests, semantics):
    """Grade every fault of *circuit* alone, test by test, dropping the
    detected ones: the verdict map packed grading must reproduce."""
    detect = detects_exact if semantics == "exact" else detects_cls
    faults = enumerate_faults(circuit)
    verdicts = {fault: None for fault in faults}
    remaining = list(faults)
    for index, test in enumerate(tests):
        good = good_outputs(circuit, test, semantics=semantics)
        still = []
        for fault in remaining:
            if detect(circuit, fault, test, good=good).detected:
                verdicts[fault] = index
            else:
                still.append(fault)
        remaining = still
        if not remaining:
            break
    return verdicts


def _random_tests(circuit, count: int, cycles: int):
    rng = random.Random(0)
    width = len(circuit.inputs)
    return [
        tuple(tuple(rng.random() < 0.5 for _ in range(width)) for _ in range(cycles))
        for _ in range(count)
    ]


def parallel_speedup_report():
    checks = []

    grading_rows = []
    s27 = normalize_fanout(parse_bench(BENCHMARKS["s27"], name="s27"))
    s386 = load("s386")
    s27_tests = generate_tests(s27, max_attempts=40, max_length=8).tests
    cases = (
        ("exact fault grading, s27", s27, s27_tests, "exact"),
        ("CLS fault grading, s386", s386, _random_tests(s386, 4, 4), "cls"),
    )
    for label, circuit, tests, semantics in cases:
        simulator = FaultSimulator(circuit, semantics=semantics)
        alone, t1 = _timed(lambda: one_fault_at_a_time(circuit, tests, semantics))
        packed, tn = _timed(lambda: simulator.run_test_set(tests))
        checks.append(list(packed.items()) == list(alone.items()))
        grading_rows.append(
            (
                "%s (%d faults x %d tests of up to %d cycles)"
                % (label, len(packed), len(tests), max(len(test) for test in tests)),
                "%.3f" % t1,
                "%.3f" % tn,
                _speedup(t1, tn),
            )
        )

    text = "\n".join(
        (
            banner("Fault grading: one fault at a time vs lane-packed (best of %d)" % REPEATS),
            ascii_table(("workload", "per fault [s]", "packed [s]", "speedup"), grading_rows),
            "host: %s CPU core(s); determinism checks: %s"
            % (os.cpu_count(), "all identical" if all(checks) else "MISMATCH"),
        )
    )
    return text, checks


def test_bench_parallel_speedup(record_artifact):
    text, checks = parallel_speedup_report()
    record_artifact("parallel_speedup", text)
    # The hard requirement is bit-for-bit determinism, on any host.
    assert all(checks)
