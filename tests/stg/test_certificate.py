"""The move certificate: C ⊑ D proved from the retiming's own history.

A proof must agree with the explicit engine (the ground truth), every
hazard-free session must be proved (Cor 4.4), and a broken record, a
broken netlist or the paper's hazard must never be proved.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.bench.paper_circuits import figure1_design_d
from repro.decide import decide
from repro.logic.functions import make_gate
from repro.netlist.circuit import Cell
from repro.retime.engine import RetimingSession
from repro.retime.moves import enabled_moves
from repro.stg import certificate
from repro.stg.certificate import MoveCertificate, certify
from repro.stg.equivalence import implies
from repro.stg.explicit import extract_stg

RELATIONS = ("implies", "safe", "delayed", "least-delay")


def _random_session(seed: int) -> RetimingSession:
    """A random circuit after random enabled moves, hazardous included."""
    rng = random.Random(seed)
    circuit = random_sequential_circuit(
        seed,
        num_inputs=rng.randint(1, 2),
        num_outputs=rng.randint(1, 2),
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, 3),
    )
    session = RetimingSession(circuit)
    for _ in range(rng.randint(0, 8)):
        moves = enabled_moves(session.current)
        if not moves:
            break
        session.apply(rng.choice(moves))
    return session


def _figure1_hazard() -> RetimingSession:
    session = RetimingSession(figure1_design_d())
    session.forward("fanQ")
    return session


def test_proofs_agree_with_the_explicit_engine_on_random_sessions():
    proved = hazard_free = 0
    for seed in range(220):
        session = _random_session(seed)
        failure, _ = certify(session.history, session.current, session.original)
        truth = implies(extract_stg(session.current), extract_stg(session.original))
        if failure is None:
            proved += 1
            assert truth, "certificate proved C ⊑ D where it fails: seed %d" % seed
        if session.is_safe_per_corollary44:
            hazard_free += 1
            assert failure is None, "hazard-free seed %d not proved: %s" % (
                seed,
                failure,
            )
    # Both kinds of session occur: the loop tested something.
    assert hazard_free >= 40 and proved > hazard_free


def test_the_paper_hazard_is_not_total():
    session = _figure1_hazard()
    failure, _ = certify(session.history, session.current, session.original)
    assert failure == certificate.NOT_TOTAL
    cert = MoveCertificate(session.history, session.current, session.original)
    # R (y1 = y2 = z) is closed; only totality catches the hazard.
    assert cert.closed() and not cert.total()


def _live_and_cell(circuit):
    """An AND cell whose flip to OR changes the circuit's STG."""
    stg = extract_stg(circuit)
    for cell in circuit.cells:
        if cell.function.name.rstrip("0123456789") != "AND":
            continue
        flipped = circuit.copy()
        function = make_gate("OR", cell.function.n_inputs)
        flipped.replace_cell(
            cell.name, Cell(cell.name, function, cell.inputs, cell.outputs)
        )
        if extract_stg(flipped).next_state != stg.next_state or (
            extract_stg(flipped).output != stg.output
        ):
            return flipped
    return None


def test_a_flipped_live_cell_is_not_proved():
    flipped_cases = 0
    for seed in range(200):
        session = _random_session(seed)
        if not session.history or not session.is_safe_per_corollary44:
            continue
        flipped = _live_and_cell(session.current)
        if flipped is None:
            continue
        failure, _ = certify(session.history, flipped, session.original)
        assert failure == certificate.NOT_CLOSED, seed
        flipped_cases += 1
    assert flipped_cases >= 5


def test_a_dropped_move_is_not_proved():
    dropped_cases = 0
    for seed in range(60):
        session = _random_session(seed)
        for index in range(len(session.history)):
            history = session.history[:index] + session.history[index + 1:]
            failure, _ = certify(history, session.current, session.original)
            assert failure is not None, (seed, index)
            dropped_cases += 1
    assert dropped_cases >= 50


def test_decide_routes_auto_through_the_certificate():
    session = RetimingSession(load("s27"))
    for _ in range(3):
        session.apply(enabled_moves(session.current, include_hazardous=False)[0])
    verdicts = decide(session.current, session.original, *RELATIONS, k=0,
                      session=session)
    assert [v.engine for v in verdicts] == ["certificate"] * 4
    assert {v.reason for v in verdicts} == {
        "certificate: %d moves composed" % len(session.history)
    }
    assert [v.holds for v in verdicts] == [True] * 4
    assert verdicts[-1].least_n == 0
    # Without the session, auto's engine says the same.
    plain = decide(session.current, session.original, *RELATIONS, k=0)
    assert [v.holds for v in plain] == [True] * 4
    assert plain[0].engine == "explicit"


def test_a_named_engine_skips_the_certificate():
    session = RetimingSession(load("s27"))
    (verdict,) = decide(session.current, session.original, "implies",
                        engine="explicit", session=session)
    assert verdict.engine == "explicit" and verdict.reason == "requested"


def test_a_failed_certificate_falls_back_to_autos_engine():
    session = _figure1_hazard()
    with_session = decide(session.current, session.original, *RELATIONS, k=1,
                          session=session)
    without = decide(session.current, session.original, *RELATIONS, k=1)
    assert [v.status for v in with_session] == [v.status for v in without]
    assert [v.least_n for v in with_session] == [v.least_n for v in without]
    assert with_session[0].engine == without[0].engine == "explicit"
    assert with_session[0].reason == without[0].reason + "; certificate not total"


def test_the_node_budget_fails_the_certificate(monkeypatch):
    session = RetimingSession(load("s27"))
    monkeypatch.setattr(certificate, "NODE_BUDGET", 8)
    failure, _ = certify(session.history, session.current, session.original)
    assert failure == certificate.OVER_BUDGET
    (verdict,) = decide(session.current, session.original, "implies", session=session)
    assert verdict.engine == "explicit" and verdict.holds is True
    assert verdict.reason.endswith("certificate over its node budget")


@pytest.mark.parametrize("name", ["s208", "s386"])
def test_iscas_min_area_retimings_are_certified(name):
    from repro.retime.apply import lag_to_moves
    from repro.retime.graph import build_retiming_graph
    from repro.retime.leiserson_saxe import min_period_retiming
    from repro.retime.min_area import min_area_retiming

    circuit = load(name)
    graph = build_retiming_graph(circuit)
    period = min_period_retiming(graph).period
    session = lag_to_moves(circuit, min_area_retiming(graph, period=period).lag)
    assert session.history
    failure, stats = certify(session.history, session.current, session.original)
    assert failure is None
    assert stats["peak_live_nodes"] < certificate.NODE_BUDGET
