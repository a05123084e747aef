"""Experiment S10 -- the ROADMAP item 1 pipeline at real ISCAS scale.

For every genuine ISCAS-89 circuit in the corpus (s27 .. s526):
optimise (min-period then min-area retiming), realise the lag as
atomic moves with full move classification, and verify the paper's
guarantees on the outcome -- Cor 4.4 safety where the move sequence is
hazard-free, the Thm 4.5 k bound, and Cor 5.3 CLS invariance.  STG
containment is gated by latch count; below the gate the move
certificate proves ``C ⊑ D`` from the session's own history, and where
it fails ``auto`` picks an engine (the explicit engine enumerates
2^latches states; the symbolic engine carries the mid-sized circuits).

Artefact: ``benchmarks/results/iscas_pipeline.txt`` -- one row per
circuit with the per-circuit k / Thm 4.5 accounting, and what decided
each containment cell: the certificate, an engine, or the gate.
"""

from __future__ import annotations

from repro.analysis.reporting import ascii_table, banner
from repro.bench.iscas import iscas89_names, load
from repro.retime.apply import lag_to_moves
from repro.retime.graph import build_retiming_graph
from repro.retime.leiserson_saxe import min_period_retiming
from repro.retime.min_area import min_area_retiming
from repro.retime.validity import check_retiming_validity

#: Explicit STG containment is exponential in latches; above this the
#: run still checks CLS invariance (polynomial) but records "(gated)".
STG_LATCH_GATE = 8


def run_pipeline():
    rows = []
    checks = []
    for name in iscas89_names():
        circuit = load(name)
        graph = build_retiming_graph(circuit)
        minp = min_period_retiming(graph)
        mina = min_area_retiming(graph, period=minp.period)
        session = lag_to_moves(circuit, mina.lag)
        check_stg = circuit.num_latches <= STG_LATCH_GATE
        report = check_retiming_validity(session, check_stg=check_stg, seed=0)
        rows.append(
            (
                name,
                "%d/%d/%d"
                % (len(circuit.inputs), len(circuit.outputs), circuit.num_latches),
                "%d -> %d" % (minp.original_period, minp.period),
                "%d -> %d" % (mina.original_registers, mina.registers),
                len(session.history),
                report.hazardous_moves,
                report.theorem45_k,
                "holds" if report.hazardous_moves == 0 else "n/a",
                "yes" if report.cls_invariant else "NO",
                {True: "yes", False: "NO", None: "(gated)"}[
                    report.delayed_implication_holds
                ],
                _decided_by(report),
            )
        )
        checks.append((name, minp, report, check_stg))
    return rows, checks


def _decided_by(report) -> str:
    """The containment cells' provenance: the certificate, an engine,
    or the latch gate (an engine that ran out of budget says so)."""
    if report.decided_by is None:
        return "(gated)"
    if report.implication_holds is None:
        return "%s (undecided)" % report.decided_by
    return report.decided_by


def test_iscas_pipeline_table(record_artifact):
    rows, checks = run_pipeline()
    assert len(rows) >= 10

    for name, minp, report, check_stg in checks:
        # Cor 5.3: every retiming is CLS-invariant, no exceptions.
        assert report.cls_invariant, name
        # The optimiser never worsens the period.
        assert minp.period <= minp.original_period, name
        # Thm 4.5 accounting: lag realisation uses backward moves and
        # forward moves over justifiable elements freely; k bounds the
        # worst-case delay and Cor 4.4 applies when no hazardous move
        # was needed.
        assert report.theorem45_k >= 0, name
        if report.hazardous_moves == 0 and check_stg:
            # Cor 4.4 safety, actually verified on the STG.
            assert report.implication_holds is not False, name
            assert report.safe_replacement_holds is not False, name
        if check_stg and report.delayed_implication_holds is not None:
            # Thm 4.5: C^k ⊑ D for the session's k.
            assert report.delayed_implication_holds, name
        assert report.consistent_with_paper(), name

    # Retiming genuinely improves the bigger reconstructions.
    improved = [name for name, minp, _r, _g in checks if minp.improved]
    assert {"s344", "s382", "s386", "s444", "s526"} <= set(improved)

    table = ascii_table(
        (
            "circuit",
            "PI/PO/DFF",
            "period",
            "registers",
            "moves",
            "hazardous",
            "k",
            "Cor 4.4",
            "CLS (Cor 5.3)",
            "C^k ⊑ D",
            "decided by",
        ),
        rows,
    )
    record_artifact(
        "iscas_pipeline",
        "\n".join(
            [
                banner("ISCAS-89 optimise -> classify -> verify pipeline"),
                table,
                "",
                "k is the Thm 4.5 delay bound from the move accounting; 'Cor 4.4"
                " holds' rows had zero hazardous moves, so C ⊑ D outright.",
                "STG containment columns are gated at %d latches; below the"
                " gate 'certificate' rows were proved from the move history,"
                " other rows name the engine auto picked.  CLS invariance is"
                " checked everywhere." % STG_LATCH_GATE,
            ]
        ),
    )
