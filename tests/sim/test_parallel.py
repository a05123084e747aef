"""Tests for the process-pool execution layer (:mod:`repro.sim.parallel`).

The contract under test: with ``jobs > 1`` every parallel consumer
produces **bit-for-bit** the serial result (verdicts, orders, ternary
outputs, report counters), and when the pool cannot start the work
silently degrades to the serial in-process path.  Exact power-up sweeps
and fault grading are not consumers: they stay in-process under any
``--jobs``.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.iscas import BENCHMARKS, load
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.netlist.io_bench import parse_bench
from repro.netlist.transform import normalize_fanout
from repro.optimize.redundancy import remove_cls_redundancies
from repro.retime.validity import cls_equivalent, first_cls_difference
from repro.sim import parallel
from repro.sim.atpg import generate_tests, grade_test_set
from repro.sim.exact import exact_outputs
from repro.sim.fault import FaultSimulator
from repro.sim.parallel import (
    ParallelStats,
    auto_chunk_size,
    get_default_jobs,
    last_stats,
    resolve_jobs,
    run_sharded,
    set_default_jobs,
)


def _s27():
    return normalize_fanout(parse_bench(BENCHMARKS["s27"], name="s27"))


def _doubler(payload, chunk):
    return [payload * item for item in chunk]


def _bad_task(payload, chunk):
    return [0]  # wrong result count, regardless of chunk size


# ---------------------------------------------------------------------------
# The primitive.
# ---------------------------------------------------------------------------


class TestRunSharded:
    def test_serial_path_used_for_jobs_1(self):
        out = run_sharded(_doubler, 3, [1, 2, 3], jobs=1, label="t")
        assert out == [3, 6, 9]
        assert last_stats().chunks == 0 and not last_stats().fallback

    def test_parallel_preserves_item_order(self):
        items = list(range(37))
        out = run_sharded(_doubler, 2, items, jobs=4, label="t")
        assert out == [2 * i for i in items]
        stats = last_stats()
        assert stats.jobs == 4 and stats.chunks > 1 and not stats.fallback

    def test_explicit_chunk_size(self):
        out = run_sharded(_doubler, 1, list(range(10)), jobs=2, chunk_size=3)
        assert out == list(range(10))
        assert last_stats().chunk_size == 3 and last_stats().chunks == 4

    def test_result_count_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="returned"):
            run_sharded(_bad_task, None, [1, 2, 3, 4], jobs=2, chunk_size=2)

    def test_auto_chunk_size(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(1, 4) == 1
        assert auto_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert auto_chunk_size(16, 4) == 1

    def test_jobs_registry(self):
        assert get_default_jobs() == 1
        assert resolve_jobs(None) == 1
        assert resolve_jobs(5) == 5
        set_default_jobs(3)
        try:
            assert resolve_jobs(None) == 3
        finally:
            set_default_jobs(1)
        with pytest.raises(ValueError):
            set_default_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_observer_hook(self):
        seen = []
        parallel.add_observer(seen.append)
        try:
            run_sharded(_doubler, 1, [1, 2], jobs=1, label="observed")
        finally:
            parallel.remove_observer(seen.append)
        assert len(seen) == 1
        assert isinstance(seen[0], ParallelStats)
        assert seen[0].label == "observed" and seen[0].items == 2
        # Removing twice is a no-op.
        parallel.remove_observer(seen.append)


class TestFallback:
    @pytest.fixture(autouse=True)
    def _rearm_warning(self):
        # The fall-back diagnostic is once-per-process; re-arm it so each
        # test observes its own first warning.
        parallel.reset_fallback_warning()
        yield
        parallel.reset_fallback_warning()

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken(jobs, payload_bytes):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(parallel, "_make_executor", broken)
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = run_sharded(_doubler, 2, [1, 2, 3], jobs=4, label="t")
        assert out == [2, 4, 6]
        assert last_stats().fallback

    def test_unpicklable_payload_falls_back(self):
        payload = 2
        with pytest.warns(RuntimeWarning, match="running serially"):
            out = run_sharded(
                _lambda_ref_task, (payload, lambda x: x), [1, 2], jobs=2
            )
        assert out == [2, 4]
        assert last_stats().fallback

    def test_warning_fires_once_per_process(self, monkeypatch):
        # Regression: on 1-core CI boxes where the pool can never start,
        # every sharded call used to repeat the RuntimeWarning.  Only
        # the first fall-back may warn; later ones stay silent (but
        # ParallelStats still records each fall-back).
        def broken(jobs, payload_bytes):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(parallel, "_make_executor", broken)
        with pytest.warns(RuntimeWarning, match="further fall-backs"):
            run_sharded(_doubler, 2, [1, 2, 3], jobs=4, label="first")
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            out = run_sharded(_doubler, 2, [4, 5], jobs=4, label="second")
        assert out == [8, 10]
        assert last_stats().fallback

    def test_reset_rearms_the_warning(self, monkeypatch):
        def broken(jobs, payload_bytes):
            raise OSError("still no processes")

        monkeypatch.setattr(parallel, "_make_executor", broken)
        with pytest.warns(RuntimeWarning):
            run_sharded(_doubler, 2, [1, 2, 3], jobs=4)
        parallel.reset_fallback_warning()
        with pytest.warns(RuntimeWarning):
            run_sharded(_doubler, 2, [1, 2, 3], jobs=4)


def _lambda_ref_task(payload, chunk):
    value, _fn = payload
    return [value * item for item in chunk]


# ---------------------------------------------------------------------------
# Determinism of the consumers: parallel == serial, bit for bit.
# ---------------------------------------------------------------------------


class TestExactSweepsStayInProcess:
    def test_default_jobs_do_not_shard_exact_sweeps(self):
        # ``repro --jobs 2`` sets the process default; exact sweeps
        # (including fault grading's fault-free reference runs) must
        # still run in-process and never reach run_sharded.
        circuit = load("s298")
        rng = random.Random(0)
        width = len(circuit.inputs)
        vectors = [tuple(rng.random() < 0.5 for _ in range(width)) for _ in range(64)]
        published = []
        previous = get_default_jobs()
        parallel.add_observer(published.append)
        set_default_jobs(2)
        try:
            exact_outputs(circuit, vectors)
        finally:
            set_default_jobs(previous)
            parallel.remove_observer(published.append)
        assert published == []


class TestFaultGradingStaysInProcess:
    def test_default_jobs_do_not_shard_grading(self):
        # Fault grading packs faults into lanes of one in-process sweep;
        # under ``repro --jobs 2`` it must never reach run_sharded, and
        # its verdicts are the ones graded at the default of one job.
        circuit = _s27()
        tests = generate_tests(circuit, max_attempts=12, max_length=5).tests
        assert tests

        def grade():
            return (
                [
                    list(FaultSimulator(circuit, semantics=mode).run_test_set(tests).items())
                    for mode in ("exact", "cls")
                ],
                grade_test_set(circuit, tests),
                generate_tests(circuit, max_attempts=8, max_length=4, semantics="cls"),
            )

        serial = grade()
        published = []
        previous = get_default_jobs()
        parallel.add_observer(published.append)
        set_default_jobs(2)
        try:
            pooled = grade()
        finally:
            set_default_jobs(previous)
            parallel.remove_observer(published.append)
        assert published == []
        assert pooled == serial


class TestValidityAndRedundancyDeterminism:
    def test_cls_equivalent_parallel(self):
        d, c = figure1_design_d(), figure1_design_c()
        assert cls_equivalent(d, c, count=10, length=8, jobs=3, seed=0)
        assert cls_equivalent(d, c, count=10, length=8, seed=0) == cls_equivalent(
            d, c, count=10, length=8, jobs=3, seed=0
        )

    def test_first_cls_difference_locates_same_witness(self):
        # An inverted copy differs on every sequence from cycle 0 or later;
        # the parallel scan must report the same first witness.
        d = figure1_design_d()
        from repro.retime.validity import random_ternary_sequences

        sequences = random_ternary_sequences(len(d.inputs), count=9, length=7, seed=4)
        from repro.netlist.circuit import Cell
        from repro.logic.functions import make_gate

        broken = figure1_design_d().copy()
        # Flip the gate driving the primary output: AND -> NAND.
        for cell in broken.cells:
            if broken.outputs[0] in cell.outputs:
                broken.replace_cell(
                    cell.name,
                    Cell(
                        cell.name,
                        make_gate("NAND", cell.function.n_inputs),
                        cell.inputs,
                        cell.outputs,
                    ),
                )
                break
        serial = first_cls_difference(d, broken, sequences)
        sharded = first_cls_difference(d, broken, sequences, jobs=3)
        assert serial is not None
        assert sharded == serial

    def test_redundancy_removal_identical_report(self):
        serial = remove_cls_redundancies(figure1_design_c())
        sharded = remove_cls_redundancies(figure1_design_c(), jobs=3)
        assert sharded.substitutions == serial.substitutions
        assert sharded.tested == serial.tested
        assert sharded.before == serial.before
        assert sharded.after == serial.after


class TestParallelStatsBytes:
    def test_defaults_and_summary(self):
        stats = ParallelStats(
            label="x", jobs=2, items=3, chunks=1, chunk_size=3,
            elapsed=0.0, fallback=False,
        )
        assert stats.payload_bytes == 0
        assert "payload" not in stats.summary()
        loud = ParallelStats(
            label="x",
            jobs=2,
            items=3,
            chunks=1,
            chunk_size=3,
            elapsed=0.0,
            fallback=False,
            payload_bytes=120,
        )
        assert "120 payload B" in loud.summary()


# ---------------------------------------------------------------------------
# Pickling support underneath the layer.
# ---------------------------------------------------------------------------


class TestPickling:
    def test_circuit_round_trip(self):
        import pickle

        circuit = _s27()
        clone = pickle.loads(pickle.dumps(circuit))
        assert clone.nets() == circuit.nets()
        assert [c.name for c in clone.cells] == [c.name for c in circuit.cells]

    def test_compiled_program_round_trip_drops_codegen(self):
        import pickle

        from repro.sim.compiled import compile_circuit

        circuit = figure1_design_d()
        compiled = compile_circuit(circuit)
        compiled.step_binary((False,), (True,))  # force codegen
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._fn_binary is None  # dropped, regenerated lazily
        assert clone.signature == compiled.signature
        assert clone.step_binary((False,), (True,)) == compiled.step_binary(
            (False,), (True,)
        )

    def test_compiled_program_round_trip_drops_forced_codegen(self):
        import pickle

        from repro.logic.ternary import ONE, X
        from repro.sim.compiled import compile_circuit

        circuit = figure1_design_d()
        compiled = compile_circuit(circuit)
        net = circuit.outputs[0]
        runs = (
            lambda cc: cc.step_binary((False,), (True,), overrides={net: False}),
            lambda cc: cc.step_ternary((X,), (ONE,), overrides={net: X}),
        )
        expected = [run(compiled) for run in runs]  # forces both codegens
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._fn_binary_forced is None and clone._fn_ternary_forced is None
        assert [run(clone) for run in runs] == expected

    def test_library_cell_functions_pickle_to_singletons(self):
        import pickle

        from repro.logic.functions import get_function, junction, make_gate

        for fn in (make_gate("AND", 3), junction(4), make_gate("CONST0", 0)):
            clone = pickle.loads(pickle.dumps(fn))
            assert clone is get_function(fn.name)


# ---------------------------------------------------------------------------
# The reusable pool.
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def test_reuse_produces_identical_results(self):
        serial = run_sharded(_doubler, 3, list(range(20)), jobs=1)
        with parallel.WorkerPool(jobs=2) as pool:
            first = run_sharded(_doubler, 3, list(range(20)), pool=pool)
            second = run_sharded(_doubler, 3, list(range(20)), pool=pool)
            assert pool.launches == 1  # one executor serves both calls
        assert first == serial
        assert second == serial

    def test_distinct_payloads_are_not_stale(self):
        # The worker-side payload cache is keyed by token: a new payload
        # must never be answered with a cached older one.
        with parallel.WorkerPool(jobs=2) as pool:
            assert run_sharded(_doubler, 2, [1, 2, 3], pool=pool) == [2, 4, 6]
            assert run_sharded(_doubler, 5, [1, 2, 3], pool=pool) == [5, 10, 15]
            assert run_sharded(_doubler, 2, [1, 2, 3], pool=pool) == [2, 4, 6]

    def test_pool_jobs_resolve_when_unspecified(self):
        with parallel.WorkerPool(jobs=2) as pool:
            out = run_sharded(_doubler, 1, [7, 8], pool=pool)  # no jobs= given
            assert out == [7, 8]
            stats = last_stats()
            assert stats.jobs == 2
            assert stats.pooled

    def test_single_item_stays_serial_even_with_a_pool(self):
        with parallel.WorkerPool(jobs=2) as pool:
            assert run_sharded(_doubler, 1, [7], pool=pool) == [7]
            assert not last_stats().pooled
            assert pool.launches == 0  # shortcut never spawned workers

    def test_close_is_idempotent_and_lazy(self):
        pool = parallel.WorkerPool(jobs=2)
        assert not pool.started  # nothing spawned until first use
        pool.close()
        pool.close()
        assert pool.launches == 0

    def test_shared_pool_install_and_restore(self):
        pool = parallel.WorkerPool(jobs=2)
        try:
            assert parallel.get_shared_pool() is None
            previous = parallel.set_shared_pool(pool)
            assert previous is None
            assert parallel.get_shared_pool() is pool
            # No pool=/jobs= anywhere: the shared pool carries the call.
            assert run_sharded(_doubler, 4, [1, 2], label="shared") == [4, 8]
            assert last_stats().pooled
        finally:
            restored = parallel.set_shared_pool(None)
            assert restored is pool
            pool.close()
        run_sharded(_doubler, 4, [1, 2], jobs=1)
        assert not last_stats().pooled

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        def broken(jobs):
            raise OSError("no processes in this sandbox")

        monkeypatch.setattr(parallel, "_make_pool_executor", broken)
        parallel.reset_fallback_warning()
        try:
            with parallel.WorkerPool(jobs=2) as pool:
                with pytest.warns(RuntimeWarning, match="running serially"):
                    out = run_sharded(_doubler, 2, [1, 2, 3], pool=pool)
            assert out == [2, 4, 6]
        finally:
            parallel.reset_fallback_warning()

    def test_fault_grading_on_a_shared_pool_matches_serial(self):
        circuit = _s27()
        tests = generate_tests(circuit, max_attempts=8, seed=3).tests
        serial = FaultSimulator(circuit).run_test_set(tests)
        pool = parallel.WorkerPool(jobs=2)
        parallel.set_shared_pool(pool)
        old_jobs = get_default_jobs()
        set_default_jobs(2)
        try:
            pooled = FaultSimulator(circuit).run_test_set(tests)
        finally:
            set_default_jobs(old_jobs)
            parallel.set_shared_pool(None)
            pool.close()
        assert pooled == serial
