"""Unit tests for the ``repro.obs`` tracer and report machinery."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import RunReport, SpanStats, TRACER
from repro.obs.trace import Tracer, _NULL_SPAN


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a pristine, disabled tracer."""
    saved = TRACER.snapshot()
    TRACER.clear()
    TRACER.enabled = False
    yield
    TRACER.restore(saved)


class TestTracerState:
    def test_disabled_by_default(self):
        assert Tracer().enabled is False

    def test_enable_carries_meta(self):
        obs.enable(backend="compiled", jobs=4)
        assert obs.enabled()
        assert TRACER.meta == {"backend": "compiled", "jobs": 4}

    def test_disable_keeps_data_reset_drops_it(self):
        obs.enable()
        obs.incr("events", 2)
        obs.disable()
        assert obs.report().counter("events") == 2
        obs.reset()
        assert obs.report().counter("events") == 0

    def test_snapshot_restore_round_trip(self):
        obs.enable(tag="a")
        obs.incr("n")
        with obs.span("s"):
            pass
        state = TRACER.snapshot()
        TRACER.clear()
        TRACER.restore(state)
        assert TRACER.counters == {"n": 1}
        assert "s" in TRACER.spans
        assert TRACER.meta == {"tag": "a"}


class TestSpans:
    def test_span_is_shared_noop_when_disabled(self):
        assert obs.span("anything") is _NULL_SPAN
        with obs.span("anything"):
            pass
        assert TRACER.spans == {}

    def test_nested_spans_record_slash_paths(self):
        obs.enable()
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("b"):
                pass
        report = obs.report()
        assert report.span_paths() == ("a", "a/b")
        assert report.span("a/b").count == 2
        assert report.span("a").count == 1

    def test_span_aggregates_are_sane(self):
        obs.enable()
        for _ in range(5):
            with obs.span("tick"):
                pass
        stats = obs.report().span("tick")
        assert stats.count == 5
        assert 0.0 <= stats.min_s <= stats.mean_s <= stats.max_s
        assert stats.total_s >= stats.max_s

    def test_exceptions_still_close_the_span(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        assert TRACER.stack == []
        assert obs.report().span("boom").count == 1

    def test_traced_decorator_preserves_identity(self):
        @obs.traced("fn")
        def add(a, b):
            """adds"""
            return a + b

        assert add.__name__ == "add"
        assert add.__doc__ == "adds"
        assert add(1, 2) == 3  # disabled: no span
        assert TRACER.spans == {}
        obs.enable()
        assert add(2, 3) == 5
        assert obs.report().span("fn").count == 1


class TestCounters:
    def test_incr_noop_when_disabled(self):
        obs.incr("n", 10)
        assert TRACER.counters == {}

    def test_incr_accumulates(self):
        obs.enable()
        obs.incr("n")
        obs.incr("n", 4)
        assert obs.report().counter("n") == 5

    def test_missing_counter_reads_zero(self):
        assert obs.report().counter("never") == 0


class TestTimed:
    def test_timed_isolates_and_restores(self):
        obs.enable(outer=True)
        obs.incr("outer.count", 7)
        with obs.timed("inner") as run:
            obs.incr("inner.count")
        # Inner report sees only its own data...
        assert run.report.counter("inner.count") == 1
        assert run.report.counter("outer.count") == 0
        assert run.report.meta["label"] == "inner"
        assert run.report.meta["elapsed_s"] >= 0.0
        # ...and the outer state survives untouched.
        assert obs.enabled()
        assert obs.report().counter("outer.count") == 7

    def test_timed_records_the_label_span(self):
        with obs.timed("block") as run:
            with obs.span("work"):
                pass
        assert run.report.span("block").count == 1
        assert run.report.span("block/work").count == 1
        assert not obs.enabled()


class TestRunReport:
    def _sample(self):
        obs.enable(label="t")
        obs.incr("a.b", 3)
        with obs.span("top"):
            with obs.span("sub"):
                pass
        obs.disable()
        return obs.report()

    def test_json_round_trip(self):
        report = self._sample()
        back = RunReport.from_json(report.to_json())
        assert back.counters == report.counters
        assert back.meta == report.meta
        assert back.span_paths() == report.span_paths()
        assert back.span("top/sub").count == 1

    def test_document_shape(self):
        doc = json.loads(self._sample().to_json())
        assert doc["schema"] == 1
        assert set(doc) == {"schema", "meta", "counters", "spans"}
        assert all(
            set(s) == {"path", "count", "total_s", "min_s", "max_s"}
            for s in doc["spans"]
        )

    def test_write_and_load(self, tmp_path):
        report = self._sample()
        target = str(tmp_path / "run.json")
        report.write(target)
        assert RunReport.load(target).counters == report.counters

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            RunReport.from_json('{"schema": 0}')

    def test_summary_mentions_everything(self):
        text = self._sample().summary()
        assert "top/sub" in text
        assert "a.b" in text
        assert "meta" in text

    def test_span_stats_mean(self):
        stats = SpanStats(path="p", count=4, total_s=2.0, min_s=0.1, max_s=1.0)
        assert stats.mean_s == pytest.approx(0.5)
        assert SpanStats(path="p", count=0, total_s=0, min_s=0, max_s=0).mean_s == 0.0


class TestPipelineIntegration:
    """The instrumented library paths actually hit the tracer."""

    def test_cls_and_exact_runs_are_counted(self):
        from repro.bench.paper_circuits import figure1_design_d
        from repro.sim.exact import exact_outputs
        from repro.sim.ternary_sim import cls_outputs

        sequence = [(0,), (1,), (1,), (1,)]
        with obs.timed("pipeline") as run:
            cls_outputs(figure1_design_d(), sequence)
            exact_outputs(figure1_design_d(), [(False,), (True,)])
        assert run.report.counter("sim.cls.runs") == 1
        assert run.report.counter("sim.exact.sweeps") == 1
        assert run.report.span("pipeline/sim.exact") is not None

    def test_retiming_moves_are_counted(self):
        from repro.bench.paper_circuits import figure1_design_d
        from repro.retime.engine import RetimingSession

        with obs.timed("retime") as run:
            session = RetimingSession(figure1_design_d())
            session.forward("fanQ")
        assert run.report.counter("retime.moves.applied") == 1
        assert run.report.counter("retime.moves.hazardous") == 1
        assert run.report.span("retime/retime.move").count == 1

    def test_stg_extraction_is_counted(self):
        from repro.bench.paper_circuits import figure1_design_d
        from repro.stg.explicit import extract_stg

        with obs.timed("stg") as run:
            extract_stg(figure1_design_d())
        assert run.report.counter("stg.extracted") == 1
        assert run.report.counter("stg.transitions") == 4  # 2 states x 2 symbols
        assert run.report.span("stg/stg.extract").count == 1
