"""Parallel execution layer -- ``--jobs 1`` vs ``--jobs 2`` wall clock.

Not a paper artefact: the paper's circuits are small enough that the
serial compiled core regenerates every table in milliseconds.  This
benchmark records what the process-pool layer (:mod:`repro.sim.parallel`)
buys on fault-partitioned grading -- exact semantics on s27, whose
faults are too cheap to pay for starting workers, and CLS semantics on
s386, where they are not -- so downstream adopters with larger circuits
know what to expect.

The asserted contract is **determinism**, not speed: the sharded run
must reproduce the serial verdicts bit for bit.  Wall-clock ratios are
recorded (best of :data:`REPEATS` runs) but not asserted, because they
are a property of the host (on a single-core container the pool is pure
overhead; the artefact records the core count next to the numbers for
exactly that reason).
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
from repro.sim.fault import FaultSimulator

JOBS = 2
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


def parallel_speedup_report():
    rows = []
    checks = []

    # Workload 1: fault-partitioned test-set grading on s27.
    circuit = normalize_fanout(parse_bench(BENCHMARKS["s27"], name="s27"))
    tests = generate_tests(circuit, max_attempts=40, max_length=8).tests
    serial_sim = FaultSimulator(circuit)
    sharded_sim = FaultSimulator(circuit, jobs=JOBS)
    serial, t1 = _timed(lambda: serial_sim.run_test_set(tests))
    sharded, tn = _timed(lambda: sharded_sim.run_test_set(tests))
    checks.append(sharded == serial)
    rows.append(
        (
            "fault grading, s27 (%d faults x %d tests)"
            % (len(serial), len(tests)),
            "%.3f" % t1,
            "%.3f" % tn,
            "%.2fx" % (t1 / tn if tn else float("inf")),
        )
    )

    # Workload 2: CLS fault grading on s386, 4 seeded tests x 4 cycles.
    s386 = load("s386")
    rng = random.Random(0)
    width = len(s386.inputs)
    cls_tests = [
        tuple(tuple(rng.random() < 0.5 for _ in range(width)) for _ in range(4))
        for _ in range(4)
    ]
    serial_sim = FaultSimulator(s386, semantics="cls")
    sharded_sim = FaultSimulator(s386, semantics="cls", jobs=JOBS)
    serial, t1 = _timed(lambda: serial_sim.run_test_set(cls_tests))
    sharded, tn = _timed(lambda: sharded_sim.run_test_set(cls_tests))
    checks.append(sharded == serial)
    rows.append(
        (
            "CLS fault grading, s386 (%d faults x %d tests x 4 cycles)"
            % (len(serial), len(cls_tests)),
            "%.3f" % t1,
            "%.3f" % tn,
            "%.2fx" % (t1 / tn if tn else float("inf")),
        )
    )

    table = ascii_table(
        ("workload", "jobs=1 [s]", "jobs=%d [s]" % JOBS, "speedup"), rows
    )
    text = "%s\n%s\nhost: %s CPU core(s); determinism checks: %s" % (
        banner("Process-pool layer: serial vs --jobs %d (best of %d)" % (JOBS, REPEATS)),
        table,
        os.cpu_count(),
        "all identical" if all(checks) else "MISMATCH",
    )
    return text, checks


def test_bench_parallel_speedup(record_artifact):
    text, checks = parallel_speedup_report()
    record_artifact("parallel_speedup", text)
    # The hard requirement is bit-for-bit determinism, on any host.
    assert all(checks)
