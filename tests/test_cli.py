"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.iscas import BENCHMARKS, load
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.cli import build_parser, main
from repro.obs import RunReport, TRACER
from repro.decide import get_default_engine, set_default_engine
from repro.netlist.io_bench import write_bench
from repro.stg.symbolic_replaceability import get_default_reorder, set_default_reorder


@pytest.fixture(autouse=True)
def _restore_process_defaults():
    """``--engine``/``--reorder`` set process-wide defaults; keep them
    from leaking into later test modules."""
    engine, reorder = get_default_engine(), get_default_reorder()
    yield
    set_default_engine(engine)
    set_default_reorder(reorder)


@pytest.fixture
def s27_path(tmp_path):
    path = tmp_path / "s27.bench"
    path.write_text(BENCHMARKS["s27"])
    return str(path)


@pytest.fixture
def traffic_path(tmp_path):
    path = tmp_path / "traffic.bench"
    path.write_text(BENCHMARKS["mini_traffic"])
    return str(path)


def test_info(s27_path, capsys):
    assert main(["info", s27_path]) == 0
    out = capsys.readouterr().out
    assert "clock period" in out
    assert "registers:" in out
    assert "SHE:" in out
    assert "essentially resettable" in out


def test_info_skips_large_stg(s27_path, capsys):
    assert main(["info", s27_path, "--max-stg-bits", "2"]) == 0
    assert "skipped" in capsys.readouterr().out


def test_simulate_cls(s27_path, capsys):
    assert main(["simulate", s27_path, "--sequence", "0000,1111,0101"]) == 0
    out = capsys.readouterr().out
    assert "cycle" in out and "outputs" in out


def test_simulate_binary_requires_state(s27_path, capsys):
    with pytest.raises(SystemExit):
        main(["simulate", s27_path, "--mode", "binary", "--sequence", "0000"])
    assert main(
        ["simulate", s27_path, "--mode", "binary", "--state", "000", "--sequence", "0000,1111"]
    ) == 0


def test_simulate_exact(s27_path, capsys):
    assert main(["simulate", s27_path, "--mode", "exact", "--sequence", "0000,1111"]) == 0
    out = capsys.readouterr().out
    assert "power-up" in out


def test_simulate_exact_rejects_x_inputs(s27_path):
    with pytest.raises(SystemExit, match="definite"):
        main(["simulate", s27_path, "--mode", "exact", "--sequence", "0X00,1111"])


@pytest.mark.parametrize(
    "command",
    (
        ["simulate", "--mode", "exact", "--sequence", "000,000"],
        ["atpg", "--semantics", "exact"],
    ),
)
def test_exact_run_over_the_latch_cap_is_a_one_line_error(command, tmp_path):
    """s382 has 21 latches, one over the exact sweep's cap: the bad-file
    convention, not a traceback, and no API-only advice."""
    path = tmp_path / "s382.bench"
    path.write_text(write_bench(load("s382")))
    with pytest.raises(SystemExit) as exc:
        main(command[:1] + [str(path)] + command[1:])
    message = exc.value.code
    assert message.startswith("%s: " % path) and "21 latches" in message
    assert "\n" not in message and "sample" not in message


def test_simulate_width_mismatch(s27_path):
    with pytest.raises(SystemExit, match="width"):
        main(["simulate", s27_path, "--sequence", "01"])


def test_simulate_binary_rejects_x_inputs(s27_path):
    with pytest.raises(SystemExit, match="definite"):
        main(
            ["simulate", s27_path, "--mode", "binary", "--state", "000",
             "--sequence", "X000,1111"]
        )


def test_simulate_binary_rejects_short_state(s27_path):
    with pytest.raises(SystemExit, match="3 latches"):
        main(
            ["simulate", s27_path, "--mode", "binary", "--state", "00",
             "--sequence", "0000,1111"]
        )


def test_simulate_binary_rejects_bad_state_character(s27_path):
    with pytest.raises(SystemExit, match="invalid state character"):
        main(
            ["simulate", s27_path, "--mode", "binary", "--state", "0a0",
             "--sequence", "0000,1111"]
        )


def test_retime_roundtrip(traffic_path, tmp_path, capsys):
    out_path = str(tmp_path / "retimed.bench")
    assert main(["retime", traffic_path, "-o", out_path]) == 0
    text = capsys.readouterr().out
    assert "period:" in text and "CLS invariance (sampled): OK" in text
    # The written file must check out against the original.
    assert main(["check", traffic_path, out_path, "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "EQUIVALENT" in out


def test_retime_min_area(traffic_path, capsys):
    assert main(["retime", traffic_path, "--objective", "min-area"]) == 0
    assert "registers:" in capsys.readouterr().out


def test_check_detects_difference(traffic_path, tmp_path, capsys):
    other = tmp_path / "other.bench"
    other.write_text(BENCHMARKS["mini_traffic"].replace("NOR(s0, s1)", "NOR(s1, s0)").replace(
        "green = NOR", "green = OR"
    ))
    assert main(["check", traffic_path, str(other)]) == 1


def test_atpg(traffic_path, capsys):
    assert main(["atpg", traffic_path, "--attempts", "40", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "faults detected" in out
    assert "test 0:" in out


def test_paper_command(capsys):
    assert main(["paper"]) == 0
    out = capsys.readouterr().out
    assert "0·0·1·0" in out
    assert "0·X·X·X" in out


def test_simulate_vcd_output(s27_path, tmp_path, capsys):
    vcd_path = str(tmp_path / "wave.vcd")
    assert main(
        ["simulate", s27_path, "--sequence", "0000,1111", "--vcd", vcd_path]
    ) == 0
    text = open(vcd_path).read()
    assert "$enddefinitions $end" in text
    assert "in.G0" in text


def test_simulate_vcd_rejected_for_exact_mode(s27_path, tmp_path):
    with pytest.raises(SystemExit, match="full trace"):
        main(
            [
                "simulate",
                s27_path,
                "--mode",
                "exact",
                "--sequence",
                "0000,1111",
                "--vcd",
                str(tmp_path / "w.vcd"),
            ]
        )


def test_check_with_stg_analysis(traffic_path, tmp_path, capsys):
    out_path = str(tmp_path / "ret.bench")
    assert main(["retime", traffic_path, "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["check", traffic_path, out_path, "--stg"]) == 0
    out = capsys.readouterr().out
    assert "implication" in out
    assert "safe replacement" in out


def test_check_stg_skipped_when_large(traffic_path, tmp_path, capsys):
    out_path = str(tmp_path / "ret.bench")
    main(["retime", traffic_path, "-o", out_path])
    capsys.readouterr()
    assert main(["check", traffic_path, out_path, "--stg", "--max-stg-bits", "1"]) == 0
    assert "skipped" in capsys.readouterr().out


#: ``inner`` is CLS-redundant: ``w = OR(x, AND(x, y))`` is just ``x``.
_REDUNDANT_BENCH = (
    "INPUT(x)\nINPUT(y)\nOUTPUT(z)\n"
    "q = DFF(w)\n"
    "inner = AND(x, y)\n"
    "w = OR(x, inner)\n"
    "z = BUF(q)\n"
)


def test_redundancy_command(tmp_path, capsys):
    bench = tmp_path / "red.bench"
    bench.write_text(_REDUNDANT_BENCH)
    out_path = str(tmp_path / "opt.bench")
    assert main(["redundancy", str(bench), "-o", out_path]) == 0
    out = capsys.readouterr().out
    assert "applied" in out
    # The optimised file must be CLS-equivalent to the original.
    capsys.readouterr()
    assert main(["check", str(bench), out_path, "--exhaustive"]) == 0


def test_redundancy_blown_budget_is_undecided(tmp_path, capsys):
    bench = tmp_path / "red.bench"
    bench.write_text(_REDUNDANT_BENCH)
    assert main(["redundancy", str(bench), "--max-pairs", "1"]) == 2
    captured = capsys.readouterr()
    assert "undecided" in captured.err and "--max-pairs" in captured.err
    assert "applied" not in captured.out


def test_missing_circuit_file_is_a_one_line_error(tmp_path):
    missing = str(tmp_path / "nonexistent.bench")
    with pytest.raises(SystemExit) as exc:
        main(["info", missing])
    assert exc.value.code == "%s: No such file or directory" % missing


def test_malformed_bench_is_a_one_line_error(tmp_path):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a\n")
    with pytest.raises(SystemExit) as exc:
        main(["check", str(bad), str(bad)])
    assert exc.value.code.startswith("%s: .bench line 3: " % bad)


def test_blif_workflow(tmp_path, capsys):
    """CLI dispatches on .blif extension for both read and write."""
    blif = tmp_path / "machine.blif"
    blif.write_text(
        ".model m\n.inputs x\n.outputs z\n.latch d q 3\n"
        ".names x q d\n11 1\n.names q z\n1 1\n.end\n"
    )
    assert main(["info", str(blif)]) == 0
    out_path = str(tmp_path / "retimed.blif")
    capsys.readouterr()
    assert main(["retime", str(blif), "-o", out_path]) == 0
    text = open(out_path).read()
    assert text.startswith(".model")
    capsys.readouterr()
    assert main(["check", str(blif), out_path, "--exhaustive"]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_cross_format_check(tmp_path, capsys):
    """A .bench original can be checked against a .blif retiming."""
    bench = tmp_path / "m.bench"
    bench.write_text("INPUT(x)\nOUTPUT(z)\nq = DFF(d)\nd = AND(x, q)\nz = NOT(q)\n")
    out_path = str(tmp_path / "m.blif")
    assert main(["retime", str(bench), "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["check", str(bench), out_path, "--exhaustive", "--stg"]) == 0


class TestObservabilityFlags:
    def test_trace_prints_summary_to_stderr(self, s27_path, capsys):
        assert main(["--trace", "simulate", s27_path, "--sequence", "0000,1111"]) == 0
        captured = capsys.readouterr()
        assert "RunReport" in captured.err
        assert "sim.cls.runs" in captured.err
        assert "RunReport" not in captured.out

    def test_report_writes_valid_json(self, s27_path, tmp_path, capsys):
        target = str(tmp_path / "run.json")
        assert main(["--report", target, "atpg", s27_path, "--attempts", "20"]) == 0
        report = RunReport.load(target)
        assert report.meta["command"] == "atpg"
        assert report.counter("sim.atpg.candidates") > 0
        assert report.span("sim.atpg.generate") is not None

    def test_check_report_covers_the_containment_run(self, tmp_path, capsys):
        """``--report`` on ``check --stg`` is the pipeline's RunReport:
        compilation, STG tabulation and the sampled CLS check all land
        in it under the ``check`` command."""
        for name, circuit in (("d", figure1_design_d()), ("c", figure1_design_c())):
            (tmp_path / ("%s.bench" % name)).write_text(write_bench(circuit))
        target = str(tmp_path / "check.json")
        assert main(
            ["--report", target, "check", str(tmp_path / "d.bench"),
             str(tmp_path / "c.bench"), "--stg"]
        ) == 0
        report = RunReport.load(target)
        assert report.meta["command"] == "check"
        assert report.span("compile") is not None
        assert report.span("stg.extract") is not None
        assert report.counter("retime.validity.cls_sequences") > 0

    def test_tracing_is_off_after_main_returns(self, s27_path, capsys):
        main(["--trace", "info", s27_path])
        assert TRACER.enabled is False
        assert TRACER.counters == {}

    def test_plain_runs_leave_tracer_silent(self, s27_path, capsys):
        main(["info", s27_path])
        assert TRACER.enabled is False
        assert TRACER.counters == {}


@pytest.mark.parametrize("objective", ["min-period", "min-area"])
@pytest.mark.parametrize("name, minimum", [("s27", 6), ("s208", 10)])
def test_retime_infeasible_period_is_a_one_line_error(
    name, minimum, objective, s27_path
):
    import repro.bench

    path = (
        s27_path
        if name == "s27"
        else str(pathlib.Path(repro.bench.__file__).parent / "iscas89" / "s208.bench")
    )
    with pytest.raises(SystemExit) as exc:
        main(["retime", path, "--objective", objective, "--period", "5"])
    assert exc.value.code == "%s: period 5 is infeasible (minimum period %d)" % (
        path,
        minimum,
    )


#: One input, one output, no latch: an interface s27 does not share.
COMB_BENCH = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"


@pytest.mark.parametrize("order", ["s27-first", "comb-first"])
@pytest.mark.parametrize(
    "engine, extra",
    [
        ("auto", []),
        ("auto", ["--exhaustive"]),
        ("explicit", ["--stg"]),
        ("symbolic", ["--stg"]),
        ("sat", ["--stg"]),
    ],
)
def test_check_rejects_mismatched_interfaces(order, engine, extra, s27_path, tmp_path):
    """A pair whose interfaces differ has no verdict to give: ``check``
    exits with serve's one-line message before any sampling, whichever
    side is which and whichever engine would have run."""
    comb = tmp_path / "comb.bench"
    comb.write_text(COMB_BENCH)
    pair = [s27_path, str(comb)]
    counts = "4/1 inputs, 1/1 outputs"
    if order == "comb-first":
        pair.reverse()
        counts = "1/4 inputs, 1/1 outputs"
    with pytest.raises(SystemExit) as exc:
        main(["--engine", engine, "check", *pair, *extra])
    assert exc.value.code == "circuits have mismatched interfaces: " + counts


@pytest.mark.parametrize("command", ["info", "check"])
@pytest.mark.parametrize("value", ["-1", "23", "30"])
def test_max_stg_bits_outside_the_stg_guard_is_rejected(
    command, value, s27_path, capsys
):
    argv = [command, s27_path] + ([s27_path] if command == "check" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-stg-bits", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-stg-bits: invalid choice: %s (choose from 0, 1" % value in err


def test_info_at_the_stg_guard_skips_an_oversized_stg(tmp_path, capsys):
    """24 STG bits: over the guard, so ``info`` skips SHE at any
    accepted ``--max-stg-bits`` instead of raising."""
    from repro.bench.generators import random_sequential_circuit
    from repro.netlist.io_bench import write_bench

    path = tmp_path / "wide.bench"
    path.write_text(
        write_bench(
            random_sequential_circuit(0, num_inputs=20, num_gates=30, num_latches=4)
        )
    )
    assert main(["info", str(path), "--max-stg-bits", "22"]) == 0
    assert "SHE: skipped (state space over 2**22)" in capsys.readouterr().out


def test_retime_with_delay_model_and_period(traffic_path, capsys):
    assert main(
        [
            "retime",
            traffic_path,
            "--objective",
            "min-area",
            "--delay-model",
            "loaded",
            "--period",
            "9",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "period:" in out and "CLS invariance (sampled): OK" in out


# ---------------------------------------------------------------------------
# The exit-code contract: 0 = valid, 1 = violation, 2 = undecided,
# across every --engine value (including --certificates on the sat arm).
# ---------------------------------------------------------------------------

ENGINES = ("explicit", "symbolic", "sat", "auto")

_GOOD_BENCH = """\
INPUT(a)
OUTPUT(y)
q = DFF(a)
y = XOR(a, q)
"""

# The same machine with the output polarity flipped: CLS tells them
# apart from cycle 1 on (cycle 0 is X-masked by the power-up state).
_BAD_BENCH = _GOOD_BENCH.replace("XOR", "XNOR")


@pytest.fixture
def check_pair(tmp_path):
    good = tmp_path / "good.bench"
    good.write_text(_GOOD_BENCH)
    bad = tmp_path / "bad.bench"
    bad.write_text(_BAD_BENCH)
    return str(good), str(bad)


class TestCheckExitCodeMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_pair_exits_0(self, engine, check_pair, capsys):
        good, _ = check_pair
        assert main(["--engine", engine, "check", good, good, "--stg"]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_violation_exits_1(self, engine, check_pair, capsys):
        good, bad = check_pair
        assert main(["--engine", engine, "check", good, bad, "--stg"]) == 1
        out = capsys.readouterr().out
        assert "False" in out

    @pytest.mark.parametrize("engine", ENGINES)
    def test_undecided_exits_2(self, engine, check_pair, capsys, monkeypatch):
        """A budget blow-up anywhere in the STG analysis must answer
        exit 2 (undecided), never a crash or a fake verdict."""
        from repro.stg.replaceability import SearchBudgetExceeded

        def boom(*args, **kwargs):
            raise SearchBudgetExceeded("forced for the exit-code contract")

        import repro.decide
        import repro.sat.engine

        if engine == "sat":
            monkeypatch.setattr(repro.sat.engine, "check_implication", boom)
        elif engine == "symbolic":
            from repro.stg.symbolic_replaceability import SymbolicContainmentChecker

            monkeypatch.setattr(SymbolicContainmentChecker, "implies", boom)
        else:  # explicit, and auto (which resolves to explicit here)
            monkeypatch.setattr(repro.decide, "extract_stg", boom)
        good, _ = check_pair
        assert main(["--engine", engine, "check", good, good, "--stg"]) == 2
        assert "aborted" in capsys.readouterr().err

    def test_sat_certificates_on_valid_pair(self, check_pair, tmp_path, capsys):
        good, _ = check_pair
        certs = tmp_path / "certs"
        assert main(
            ["--engine", "sat", "check", good, good, "--stg",
             "--certificates", str(certs)]
        ) == 0
        out = capsys.readouterr().out
        assert "certificates: wrote" in out
        assert any(certs.iterdir())

    def test_sat_certificates_on_violation(self, check_pair, tmp_path, capsys):
        good, bad = check_pair
        certs = tmp_path / "certs"
        assert main(
            ["--engine", "sat", "check", good, bad, "--stg",
             "--certificates", str(certs)]
        ) == 1
        out = capsys.readouterr().out
        assert "certificates: wrote" in out
        assert any(certs.iterdir())

    def test_sat_certificate_blown_budget_is_undecided(
        self, check_pair, tmp_path, capsys, monkeypatch
    ):
        """On a contained pair C ≼ D follows from C ⊑ D, so the bundle
        runs the ≼ check on its own; if that blows its budget the
        answer is undecided (2), not a bundle missing its proof."""
        import repro.sat.engine
        from repro.stg.replaceability import SearchBudgetExceeded

        def boom(*args, **kwargs):
            raise SearchBudgetExceeded("forced for the exit-code contract")

        monkeypatch.setattr(repro.sat.engine, "check_safe_replacement", boom)
        good, _ = check_pair
        certs = tmp_path / "certs"
        assert main(
            ["--engine", "sat", "check", good, good, "--stg",
             "--certificates", str(certs)]
        ) == 2
        assert "aborted" in capsys.readouterr().err
        assert not certs.exists()

    def test_seed_is_logged_in_the_verdict_line(self, check_pair, capsys):
        good, bad = check_pair
        assert main(["check", good, bad, "--seed", "3"]) == 1
        assert "seed 3" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            pytest.param("check", flag, value, id="%s-%s" % (flag, value))
            for flag, value in (
                ("--samples", "0"), ("--samples", "-3"),
                ("--length", "0"), ("--length", "-1"),
            )
        ]
        + [
            ("atpg", "--length", "0"),
            ("atpg", "--length", "-3"),
            ("atpg", "--attempts", "0"),
            ("atpg", "--attempts", "-1"),
            ("redundancy", "--max-pairs", "-5"),
            ("fuzz", "--iterations", "0"),
            ("fuzz", "--iterations", "-4"),
            ("fuzz", "--time-budget", "0"),
            ("fuzz", "--time-budget", "-1"),
            ("serve", "--budget", "0"),
        ],
    )
    def test_non_positive_sample_settings_are_rejected(
        self, command, flag, value, check_pair, capsys
    ):
        """An empty sample batch, test set, search or fuzz run would
        print a vacuous pass.  The parser alone is driven, so a command
        that would accept the value (``serve`` serves forever) never
        starts."""
        good, _ = check_pair
        circuits = {"check": [good, good], "atpg": [good], "redundancy": [good]}
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *circuits.get(command, []), flag, value])
        assert exc.value.code == 2
        bound = "> 0" if flag == "--time-budget" else ">= 1"
        assert "argument %s: must be %s" % (flag, bound) in capsys.readouterr().err

    @pytest.mark.parametrize("second, status", [("good", 2), ("bad", 1)])
    def test_exhaustive_blown_budget_is_undecided(
        self, second, status, check_pair, capsys, monkeypatch
    ):
        """A blown pair budget answers undecided (2) with a retry hint;
        it never hides the sampled check's violation (1)."""
        import functools

        import repro.cli
        from repro.stg.ternary_equiv import decide_cls_equivalence

        monkeypatch.setattr(
            repro.cli,
            "decide_cls_equivalence",
            functools.partial(decide_cls_equivalence, max_pairs=1),
        )
        good, bad = check_pair
        other = {"good": good, "bad": bad}[second]
        assert main(["check", good, other, "--exhaustive"]) == status
        err = capsys.readouterr().err
        assert "CLS equivalence (exhaustive): undecided" in err
        assert "--samples" in err
