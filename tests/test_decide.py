"""One decision entry point: every surface renders the same verdicts.

``repro.decide.decide`` is the only code that picks a containment
engine and turns a blown budget or an oversized STG into *undecided*.
These tests hold the CLI's ``check --stg``, serve's
``safe-replacement`` and the circuit-level wrappers to the verdicts it
returns, and keep the dispatch from spreading again.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.cli import main
from repro.decide import (
    RELATIONS,
    Verdict,
    decide,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from repro.netlist.io_bench import parse_bench, write_bench
from repro.serve import ServeClient, start_background_server
from repro.stg.replaceability import SearchBudgetExceeded, decide_safe_replacement

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENGINES = ("explicit", "symbolic", "sat")

#: How ``check --stg`` names each engine (reordering at its default).
ENGINE_LINES = {
    "explicit": "containment engine: explicit (enumerated STGs)",
    "symbolic": "containment engine: symbolic (BDD fixpoints)",
    "sat": "containment engine: sat (bounded CNF unrolling)",
}


def _big():
    """4 latches (so ``auto`` picks explicit) but 20 inputs: its STG
    needs 2**24 entries, over the explicit engine's 2**22 guard."""
    return random_sequential_circuit(0, num_inputs=20, num_gates=30, num_latches=4)


@pytest.fixture(autouse=True)
def _restore_default_engine():
    """``main(["--engine", ...])`` sets the process-wide default."""
    engine = get_default_engine()
    yield
    set_default_engine(engine)


@pytest.fixture(scope="module")
def client():
    server, address, thread = start_background_server(port=0)
    with ServeClient(address) as client:
        for name, circuit in (
            ("c", figure1_design_c()),
            ("d", figure1_design_d()),
            ("big", _big()),
        ):
            client.result({"op": "load", "name": name, "bench": write_bench(circuit)})
        yield client
        client.request({"op": "shutdown"})
    thread.join(timeout=30)


@pytest.fixture
def figure1_paths(tmp_path):
    paths = {}
    for name, circuit in (("c", figure1_design_c()), ("d", figure1_design_d())):
        path = tmp_path / ("%s.bench" % name)
        path.write_text(write_bench(circuit))
        paths[name] = str(path)
    return paths


# ---------------------------------------------------------------------------
# (a) Figure 1 on every engine: decide == serve == check --stg.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("candidate, original", [("c", "d"), ("d", "c")])
def test_figure1_verdicts_equal_every_surface(
    engine, candidate, original, client, figure1_paths, capsys
):
    circuits = {"c": figure1_design_c(), "d": figure1_design_d()}
    implies, safe, least = decide(
        circuits[candidate],
        circuits[original],
        "implies",
        "safe",
        "least-delay",
        engine=engine,
    )
    hazardous = candidate == "c"
    assert (implies.holds, safe.holds, least.least_n) == (
        (False, False, 1) if hazardous else (True, True, 0)
    )
    assert {v.engine for v in (implies, safe, least)} == {engine}
    assert {v.reason for v in (implies, safe, least)} == {"requested"}

    served = client.result(
        {
            "op": "safe-replacement",
            "candidate": candidate,
            "original": original,
            "engine": engine,
        }
    )
    assert served == {
        "safe": safe.holds,
        "engine": safe.engine,
        "witness": safe.to_json()["witness"],
    }

    # ``check ORIGINAL RETIMED`` asks about retimed ⊑/≼ original.
    argv = ["--engine", engine, "check", figure1_paths[original]]
    assert main(argv + [figure1_paths[candidate], "--stg"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == [
        ENGINE_LINES[engine],
        "implication  (retimed ⊑ original): %s" % implies.holds,
        "safe replacement (retimed ≼ original): %s" % safe.holds,
        "least n with retimed^n ⊑ original: %s" % least.least_n,
    ]


def test_figure1_witness_is_the_papers_counterexample():
    for engine in ENGINES:
        (safe,) = decide(figure1_design_c(), figure1_design_d(), "safe", engine=engine)
        assert safe.status == "violated"
        assert safe.to_json()["witness"] == {
            "c_state": 2,
            "inputs": [0, 1],
            "outputs": [0, 1],
            "length": 2,
        }


def test_verdict_is_frozen_and_answers_in_the_order_asked():
    c, d = figure1_design_c(), figure1_design_d()
    verdicts = decide(c, d, "least-delay", "delayed", "implies", k=1)
    assert [v.relation for v in verdicts] == ["least-delay", "delayed", "implies"]
    assert [v.holds for v in verdicts] == [True, True, False]
    with pytest.raises(AttributeError):
        verdicts[0].status = "holds"
    assert set(RELATIONS) == {"implies", "safe", "delayed", "least-delay"}
    with pytest.raises(ValueError):
        decide(c, d, "equivalent")


def test_a_proved_implication_settles_the_other_relations():
    """C ⊑ D gives C ≼ D (Prop 3.1), every Cᵏ ⊑ D and n = 0 without
    asking the engine again."""
    d, c = figure1_design_d(), figure1_design_c()
    for engine in ENGINES:
        implies, safe, delayed, least = decide(
            d, c, "implies", "safe", "delayed", "least-delay", k=3, engine=engine
        )
        assert implies.holds and safe.holds and delayed.holds and least.least_n == 0
        assert {v.sat_result for v in (safe, delayed, least)} == {None}
        # Asked alone, C ≼ D runs its own check (the SAT certificate's source).
        (alone,) = decide(d, c, "safe", engine=engine)
        assert alone.holds and (alone.sat_result is not None) == (engine == "sat")


def test_auto_reason_names_the_latch_count():
    c, d = figure1_design_c(), figure1_design_d()
    (verdict,) = decide(c, d, "implies", engine="auto")
    assert verdict.engine == resolve_engine("auto", c, d) == "explicit"
    assert verdict.reason == "auto: 2 latches <= 9"


def test_symbolic_verdicts_carry_the_bdd_counters():
    (verdict,) = decide(
        figure1_design_c(), figure1_design_d(), "safe", engine="symbolic", reorder="off"
    )
    assert verdict.reorder == "off"
    assert verdict.bdd_stats
    assert all(isinstance(v, int) for v in verdict.bdd_stats.values())


def test_sat_verdicts_carry_the_certificate_material():
    implies, safe = decide(
        figure1_design_c(), figure1_design_d(), "implies", "safe", engine="sat"
    )
    assert implies.sat_result.kind == "implication"
    assert safe.sat_result.kind == "safe-replacement"
    assert safe.sat_result.violation == safe.violation


# ---------------------------------------------------------------------------
# (b) An STG too large to enumerate is undecided on every surface.
# ---------------------------------------------------------------------------


def test_oversized_stg_is_an_undecided_verdict():
    big = _big()
    assert resolve_engine(None, big, big) == "explicit"
    verdicts = decide(big, big, *RELATIONS)
    for verdict in verdicts:
        assert verdict.status == "undecided" and verdict.holds is None
        assert verdict.limit == "state-space"
        assert verdict.message == (
            "STG of %s needs 2**24 entries (limit 2**22)" % big.name
        )


def test_oversized_stg_in_repro_check(tmp_path, capsys):
    path = tmp_path / "big.bench"
    path.write_text(write_bench(_big()))
    assert main(["check", str(path), str(path), "--stg", "--max-stg-bits", "22"]) == 0
    out = capsys.readouterr().out
    assert (
        "STG analysis: skipped (state space over 2**22; try --engine symbolic)"
        in out.splitlines()
    )


def test_oversized_stg_in_serve_safe_replacement(client):
    reply = client.request(
        {"op": "safe-replacement", "candidate": "big", "original": "big"}
    )
    assert reply["error"] == {
        "code": "budget-exceeded",
        "message": 'undecided: STG of big needs 2**24 entries (limit 2**22) '
        '(retry with a bigger "budget" or the symbolic engine)',
    }


def test_oversized_stg_in_decide_safe_replacement():
    big = _big()
    with pytest.raises(SearchBudgetExceeded, match="needs 2\\*\\*24 entries"):
        decide_safe_replacement(big, big)


def test_explicit_gate_below_the_guard():
    c, d = figure1_design_c(), figure1_design_d()
    (verdict,) = decide(c, d, "implies", engine="explicit", max_stg_bits=2)
    assert verdict.limit == "state-space"
    assert verdict.message == "STG of %s needs 2**3 entries (limit 2**2)" % c.name
    # The other engines have no state-space gate.
    (verdict,) = decide(c, d, "implies", engine="symbolic", max_stg_bits=2)
    assert verdict.holds is False


# ---------------------------------------------------------------------------
# (c) budget=1 makes every engine undecided; serve's message is unchanged.
# ---------------------------------------------------------------------------

BUDGET_MESSAGES = {
    "explicit": "safe-replacement search exceeded 1 subset states",
    "symbolic": "symbolic safe-replacement search exceeded 1 buckets",
    "sat": "SAT search exceeded 1 conflicts",
}


@pytest.mark.parametrize("engine", ENGINES)
def test_budget_of_one_is_undecided(engine, client):
    (verdict,) = decide(
        figure1_design_c(), figure1_design_d(), "safe", engine=engine, budget=1
    )
    assert verdict.status == "undecided" and verdict.limit == "budget"
    assert verdict.message == BUDGET_MESSAGES[engine]
    assert verdict.to_json()["witness"] is None
    reply = client.request(
        {
            "op": "safe-replacement",
            "candidate": "c",
            "original": "d",
            "engine": engine,
            "budget": 1,
        }
    )
    assert reply["error"] == {
        "code": "budget-exceeded",
        "message": 'undecided: %s (retry with a bigger "budget" or the '
        "symbolic engine)" % BUDGET_MESSAGES[engine],
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_mismatched_interfaces_are_one_error_on_every_engine(engine):
    comb = parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
    with pytest.raises(ValueError) as exc:
        decide(load("s27"), comb, "implies", engine=engine)
    assert str(exc.value) == (
        "circuits have mismatched interfaces: 4/1 inputs, 1/1 outputs"
    )


def test_verdict_json_for_an_undecided_answer():
    (verdict,) = decide(
        figure1_design_c(), figure1_design_d(), "safe", engine="sat", budget=1
    )
    assert isinstance(verdict, Verdict)
    assert verdict.to_json() == {
        "relation": "safe",
        "status": "undecided",
        "engine": "sat",
        "reason": "requested",
        "limit": "budget",
        "message": "SAT search exceeded 1 conflicts",
        "least_n": None,
        "witness": None,
    }


# ---------------------------------------------------------------------------
# One dispatch site.
# ---------------------------------------------------------------------------

#: Modules allowed to resolve engines or build a symbolic checker: the
#: decision entry point, the symbolic engine's own module, and qa's
#: oracle arms, which drive each engine directly as independent voters.
DISPATCH_EXEMPT = {"decide.py", "stg/symbolic_replaceability.py", "qa/differential.py"}
DISPATCH_CALLS = {"resolve_engine", "SymbolicContainmentChecker"}


def _dispatch_calls():
    """``(module, line, callee)`` for each engine-dispatch call in src."""
    package = ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", getattr(func, "id", None))
            if called in DISPATCH_CALLS:
                found.append((module, node.lineno, called))
    return found


def test_engine_dispatch_lives_in_the_decide_module():
    calls = _dispatch_calls()
    assert any(module == "decide.py" for module, _, _ in calls)
    stray = [call for call in calls if call[0] not in DISPATCH_EXEMPT]
    assert stray == [], "engine dispatch outside repro.decide: %r" % stray


def test_resolve_engine_keeps_its_old_import_path():
    from repro.stg import symbolic_replaceability

    assert symbolic_replaceability.resolve_engine is resolve_engine
    with pytest.raises(AttributeError):
        symbolic_replaceability.no_such_name
