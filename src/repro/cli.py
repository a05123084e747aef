"""Command-line interface: ``python -m repro [options] <command> ...``.

Global options (before the subcommand):

``--engine {explicit,symbolic,sat,auto}``
    containment engine for the ``⊑`` / ``≼`` analyses -- ``explicit``
    (enumerated STGs + subset construction), ``symbolic`` (BDD
    fixpoints), ``sat`` (bounded CNF unrolling) or ``auto`` (the
    default: explicit below the latch threshold, symbolic above); see
    :func:`repro.decide.decide`
``--reorder {off,auto,manual}``
    BDD dynamic variable reordering for the symbolic engine --
    ``auto`` (the default: sift when the manager crosses its node
    threshold), ``off`` (pin the declaration order) or ``manual``
    (sift once after compilation); verdicts are identical in every
    mode, only node counts and wall time differ
``--trace``
    enable the observability layer (:mod:`repro.obs`) for the run and
    print the span/counter summary to stderr on exit
``--report FILE.json``
    enable the observability layer and write the full
    :class:`~repro.obs.RunReport` as JSON to FILE

Subcommands:

``info``        circuit statistics, clock period, SHE analysis
``simulate``    binary / conservative-ternary / exact simulation
                (optionally dumping a VCD waveform)
``retime``      min-period and/or min-area retiming, writing .bench out
``check``       verify a retimed circuit against its original (sampled,
                exhaustive-CLS, and STG implication where tractable)
``atpg``        generate a stuck-at test set
``redundancy``  CLS-invariant redundancy removal (Section 6 program)
``paper``       replay the paper's Figure 1 story on the console
``serve``       run the persistent verification service: circuits and
                compiled programs stay resident across
                newline-delimited JSON requests over TCP or a unix
                socket, and compatible CLS sweeps from concurrent
                requests are micro-batched into shared lane passes
                (protocol reference: ``docs/SERVICE.md``)
``fuzz``        cross-engine conformance fuzzing: replay the regression
                corpus, stream seeded random cases through the engine
                matrix, shrink and bundle any disagreement
                (exit 1 if one survives; contract: ``docs/TESTING.md``)

All commands read and write ISCAS-89 ``.bench`` files (BLIF via the
``.blif`` extension), the formats the benchmark circuits of the paper's
era shipped in.  The full reference with worked examples is
``docs/CLI.md``.  Bad user input -- an unreadable or malformed circuit
file, a non-positive sample setting, a period below the minimum, a
``--max-stg-bits`` outside 0..22 -- ends in a one-line error, never a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import obs
from .analysis.reporting import ascii_table, banner
from .decide import ENGINES, decide, set_default_engine
from .logic.ternary import format_ternary_sequence, parse_ternary_string, to_ternary
from .netlist.circuit import CircuitError
from .netlist.io_bench import parse_bench, write_bench
from .netlist.transform import normalize_fanout
from .netlist.validate import check_interfaces, validate
from .retime.apply import lag_to_moves
from .retime.graph import build_retiming_graph
from .retime.leiserson_saxe import min_period_retiming
from .retime.min_area import min_area_retiming
from .retime.validity import cls_equivalent
from .sim.atpg import generate_tests
from .sim.binary import BinarySimulator, parse_state
from .sim.exact import SweepTooLarge, exact_outputs
from .sim.ternary_sim import TernarySimulator
from .stg.explicit import MAX_STG_BITS, extract_stg
from .stg.replaceability import SearchBudgetExceeded
from .stg.scc import she_analysis
from .stg.symbolic_replaceability import REORDER_MODES, set_default_reorder
from .stg.ternary_equiv import decide_cls_equivalence

__all__ = ["main"]


def _load(path: str, *, normalize: bool = True):
    """Load a circuit, dispatching on extension (.blif vs .bench).

    An unreadable file or a malformed/invalid circuit exits with
    ``<path>: <message>`` instead of a traceback.
    """
    try:
        with open(path) as handle:
            text = handle.read()
        if path.endswith(".blif"):
            from .netlist.io_blif import parse_blif

            circuit = parse_blif(text, name=path).circuit
        else:
            circuit = parse_bench(text, name=path)
        if normalize:
            circuit = normalize_fanout(circuit)
        validate(circuit)
    except OSError as exc:
        raise SystemExit("%s: %s" % (path, exc.strerror or exc)) from None
    except CircuitError as exc:
        raise SystemExit("%s: %s" % (path, exc)) from None
    return circuit


#: ``--max-stg-bits`` stops at the explicit engine's own STG guard.
_STG_BITS = range(MAX_STG_BITS + 1)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def _write_circuit(circuit, path: str, header: str) -> None:
    """Write a circuit, dispatching on extension (.blif vs .bench)."""
    if path.endswith(".blif"):
        from .netlist.io_blif import write_blif

        text = write_blif(circuit)
    else:
        text = write_bench(circuit, header=header)
    with open(path, "w") as handle:
        handle.write(text)


def _parse_sequence(text: str, width: int):
    """Parse ``01,10,11`` (one vector per cycle) or ``0111`` (single
    input) into a list of ternary vectors."""
    if "," in text:
        vectors = [parse_ternary_string(chunk) for chunk in text.split(",")]
    else:
        vectors = [(v,) for v in parse_ternary_string(text)]
    for vector in vectors:
        if len(vector) != width:
            raise SystemExit(
                "input vector %s has width %d, circuit has %d inputs"
                % (format_ternary_sequence(vector, sep=""), len(vector), width)
            )
    return vectors


def _definite(sequence, mode: str):
    """The Boolean vectors of a ternary *sequence*; exits on any X."""
    if any(v.value == 2 for vec in sequence for v in vec):
        raise SystemExit("%s simulation needs a definite input sequence" % mode)
    return [tuple(v.value == 1 for v in vec) for vec in sequence]


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_info(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    print(banner("circuit %s" % args.circuit))
    print(circuit.pretty())
    graph = build_retiming_graph(circuit)
    print()
    print("clock period (unit delays): %d" % graph.clock_period())
    print("registers:                  %d" % graph.num_registers)
    bits = circuit.num_latches + len(circuit.inputs)
    if bits <= args.max_stg_bits:
        report = she_analysis(extract_stg(circuit))
        print(
            "SHE: %d states, %d minimal, %d SCCs, %d TSCC(s) -> %s"
            % (
                report.num_states,
                report.num_blocks,
                report.num_sccs,
                report.num_terminal_sccs,
                "essentially resettable"
                if report.essentially_resettable
                else "NOT essentially resettable",
            )
        )
    else:
        print("SHE: skipped (state space over 2**%d)" % args.max_stg_bits)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    sequence = _parse_sequence(args.sequence, len(circuit.inputs))
    trace_for_vcd = None
    if args.mode == "cls":
        trace = TernarySimulator(circuit).run_from_unknown(sequence)
        trace_for_vcd = trace
        rows = [
            (
                cycle,
                format_ternary_sequence(trace.inputs[cycle], sep=""),
                format_ternary_sequence(trace.outputs[cycle], sep=""),
                format_ternary_sequence(trace.states[cycle + 1], sep=""),
            )
            for cycle in range(len(trace))
        ]
        print(ascii_table(("cycle", "inputs", "outputs", "state after"), rows))
    elif args.mode == "exact":
        try:
            outs = exact_outputs(circuit, _definite(sequence, "exact"))
        except SweepTooLarge as exc:
            raise SystemExit("%s: %s" % (args.circuit, exc)) from None
        rows = [
            (cycle, format_ternary_sequence(out, sep=""))
            for cycle, out in enumerate(outs)
        ]
        print(ascii_table(("cycle", "outputs (all power-up states)"), rows))
    else:  # binary
        if args.state is None:
            raise SystemExit("--state is required for binary simulation")
        try:
            state = parse_state(args.state)
        except ValueError as exc:
            raise SystemExit("--state %s: %s" % (args.state, exc))
        if len(state) != circuit.num_latches:
            raise SystemExit(
                "--state %s has %d bits, circuit has %d latches"
                % (args.state, len(state), circuit.num_latches)
            )
        trace = BinarySimulator(circuit).run(state, _definite(sequence, "binary"))
        trace_for_vcd = trace
        rows = [
            (
                cycle,
                "".join("1" if b else "0" for b in trace.inputs[cycle]),
                "".join("1" if b else "0" for b in trace.outputs[cycle]),
                "".join("1" if b else "0" for b in trace.states[cycle + 1]),
            )
            for cycle in range(len(trace))
        ]
        print(ascii_table(("cycle", "inputs", "outputs", "state after"), rows))
    if args.vcd:
        if trace_for_vcd is None:
            raise SystemExit("--vcd needs binary or cls mode (a full trace)")
        from .sim.vcd import trace_to_vcd

        with open(args.vcd, "w") as handle:
            handle.write(trace_to_vcd(circuit, trace_for_vcd))
        print("wrote %s" % args.vcd)
    return 0


def cmd_redundancy(args: argparse.Namespace) -> int:
    from .optimize.redundancy import remove_cls_redundancies

    circuit = _load(args.circuit)
    try:
        report = remove_cls_redundancies(circuit, max_pairs=args.max_pairs)
    except SearchBudgetExceeded as exc:
        print(
            "redundancy removal: undecided -- %s (retry with a bigger "
            "--max-pairs)" % exc,
            file=sys.stderr,
        )
        return 2
    print(banner("CLS-invariant redundancy removal on %s" % args.circuit))
    print(report.summary())
    for net, value in report.substitutions:
        print("  %s := %d" % (net, int(value)))
    if args.output:
        _write_circuit(
            report.circuit, args.output, "redundancy-removed from %s" % args.circuit
        )
        print("wrote %s" % args.output)
    return 0


def cmd_retime(args: argparse.Namespace) -> int:
    from .retime.delay_models import delay_model

    circuit = _load(args.circuit)
    graph = build_retiming_graph(circuit, delays=delay_model(circuit, args.delay_model))
    minp = min_period_retiming(graph)
    if args.period is not None:
        if args.period < minp.period:
            raise SystemExit(
                "%s: period %d is infeasible (minimum period %d)"
                % (args.circuit, args.period, minp.period)
            )
        period = args.period
    elif args.objective == "min-period":
        period = minp.period
    else:
        period = None

    if args.objective == "min-period" and args.period is None:
        lag = minp.lag
        achieved_period = minp.period
    else:
        result = min_area_retiming(graph, period=period)
        lag = result.lag
        achieved_period = result.period

    session = lag_to_moves(circuit, lag)
    retimed = session.current
    after = build_retiming_graph(
        retimed, delays=delay_model(retimed, args.delay_model)
    )
    print(banner("retiming %s (%s)" % (args.circuit, args.objective)))
    print("period:    %d -> %d" % (graph.clock_period(), after.clock_period()))
    print("registers: %d -> %d" % (graph.num_registers, after.num_registers))
    print(session.summary())
    if not cls_equivalent(circuit, retimed, count=6, length=10, seed=args.seed):
        print("WARNING: CLS invariance check failed -- this is a bug", file=sys.stderr)
        return 2
    print("CLS invariance (sampled): OK")
    if args.output:
        _write_circuit(retimed, args.output, "retimed from %s" % args.circuit)
        print("wrote %s" % args.output)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    original = _load(args.original)
    retimed = _load(args.retimed)
    try:
        check_interfaces(original, retimed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(banner("checking %s against %s" % (args.retimed, args.original)))
    sampled = cls_equivalent(
        original, retimed, count=args.samples, length=args.length, seed=args.seed
    )
    print(
        "CLS equivalence (sampled %d sequences, seed %d): %s"
        % (args.samples, args.seed, sampled)
    )
    verdict = 0 if sampled else 1
    if args.exhaustive:
        try:
            witness = decide_cls_equivalence(original, retimed)
        except SearchBudgetExceeded as exc:
            print(
                "CLS equivalence (exhaustive): undecided -- %s (the sampled "
                "verdict stands; retry with more --samples)" % exc,
                file=sys.stderr,
            )
            verdict = verdict or 2  # a sampled difference still wins
        else:
            if witness is None:
                print("CLS equivalence (exhaustive): EQUIVALENT")
            else:
                print(
                    "CLS equivalence (exhaustive): DIFFER -- %s" % witness.describe()
                )
                verdict = 1
    if args.stg:
        verdict = _check_containment(args, retimed, original) or verdict
    return verdict


_ENGINE_METHODS = {
    "explicit": "enumerated STGs",
    "symbolic": "BDD fixpoints",
    "sat": "bounded CNF unrolling",
}


def _check_containment(args: argparse.Namespace, retimed, original) -> int:
    """``check --stg``: print the verdicts (and write the SAT
    certificate bundle); 2 when one is undecided."""
    implies, safe, least = decide(
        retimed, original, "implies", "safe", "least-delay",
        max_stg_bits=args.max_stg_bits,
    )
    if implies.limit == "state-space":
        print(
            "STG analysis: skipped (state space over 2**%d; "
            "try --engine symbolic)" % args.max_stg_bits
        )
        return 0
    method = _ENGINE_METHODS[implies.engine]
    if implies.reorder not in (None, "auto"):
        method += ", reorder %s" % implies.reorder
    print("containment engine: %s (%s)" % (implies.engine, method))
    for label, verdict, answer in (
        ("implication  (retimed ⊑ original):", implies, implies.holds),
        ("safe replacement (retimed ≼ original):", safe, safe.holds),
        ("least n with retimed^n ⊑ original:", least, least.least_n),
    ):
        if verdict.undecided:
            print(
                "STG analysis: aborted -- %s (retry with --engine symbolic "
                "or a bigger budget)" % verdict.message,
                file=sys.stderr,
            )
            return 2
        print(label, answer)
    if args.certificates and safe.engine == "sat":
        from .sat.certificates import write_bundle

        if safe.sat_result is None:
            # Settled by C ⊑ D; the bundle needs the ≼ check's own proof.
            (safe,) = decide(retimed, original, "safe", engine="sat")
        if safe.undecided:
            print("STG analysis: aborted -- %s" % safe.message, file=sys.stderr)
            return 2
        files = write_bundle(args.certificates, safe.sat_result, retimed, original)
        print("certificates: wrote %s to %s" % (", ".join(files), args.certificates))
    return 0


def cmd_atpg(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    try:
        result = generate_tests(
            circuit,
            semantics=args.semantics,
            max_attempts=args.attempts,
            max_length=args.length,
            seed=args.seed,
        )
    except SweepTooLarge as exc:
        raise SystemExit("%s: %s" % (args.circuit, exc)) from None
    print(banner("ATPG for %s (%s semantics)" % (args.circuit, args.semantics)))
    print(result.summary())
    for index, test in enumerate(result.tests):
        print(
            "test %d: %s"
            % (index, ",".join("".join("1" if b else "0" for b in vec) for vec in test))
        )
    if result.undetected and args.verbose:
        print("undetected: %s" % ", ".join(str(f) for f in result.undetected))
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    from .bench.paper_circuits import TABLE1_INPUT_SEQUENCE, figure1_design_c, figure1_design_d
    from .sim.ternary_sim import cls_outputs

    d, c = figure1_design_d(), figure1_design_c()
    seq = TABLE1_INPUT_SEQUENCE
    print(banner("The Validity of Retiming Sequential Circuits -- Figure 1"))
    print("exact D: %s" % format_ternary_sequence(v[0] for v in exact_outputs(d, seq)))
    print("exact C: %s" % format_ternary_sequence(v[0] for v in exact_outputs(c, seq)))
    t_seq = [tuple(to_ternary(v) for v in vec) for vec in seq]
    print("CLS   D: %s" % format_ternary_sequence(v[0] for v in cls_outputs(d, t_seq)))
    print("CLS   C: %s" % format_ternary_sequence(v[0] for v in cls_outputs(c, t_seq)))
    print()
    print(
        "Retiming changed what an exact simulator sees, but not what the\n"
        "conservative three-valued simulator sees (Corollary 5.3)."
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.server import ReproServer

    async def run() -> None:
        server = ReproServer(
            host=args.host,
            port=args.port,
            unix_socket=args.socket,
            budget=args.budget,
            service_report_path=args.service_report,
        )
        await server.start()
        if server.unix_socket:
            print("serving on %s (unix socket)" % server.address, flush=True)
        else:
            print("serving on %s:%d" % tuple(server.address), flush=True)
        print('stop with {"op": "shutdown"} or Ctrl-C', flush=True)
        try:
            await server.wait_closed()
        except asyncio.CancelledError:
            await server.shutdown()
            raise

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted -- shut down", file=sys.stderr)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .qa.fuzz import run_fuzz

    if args.iterations is None and args.time_budget is None:
        args.iterations = 200
    client = None
    server = None
    try:
        if args.matrix == "full":
            # The served arms need a live service; run one on a daemon
            # thread for the duration of the fuzz.
            from .serve.client import ServeClient, start_background_server

            server, address, _thread = start_background_server(port=0)
            client = ServeClient(address)
        outcome = run_fuzz(
            seed=args.seed,
            iterations=args.iterations,
            time_budget=args.time_budget,
            matrix=args.matrix,
            corpus_dir=args.corpus,
            client=client,
            log=lambda line: print(line, flush=True),
        )
    finally:
        if client is not None:
            try:
                client.request({"op": "shutdown"})
                client.close()
            except Exception:
                pass
    print(outcome.summary())
    return 0 if outcome.ok else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Retiming-validity toolkit (Singhal/Pixley/Rudell/Brayton, DAC'95)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="containment engine for ⊑/≼ analyses: 'explicit' "
        "(enumerated STGs), 'symbolic' (BDD fixpoints), 'sat' (bounded "
        "CNF unrolling with exportable certificates; decides or exits "
        "undecided, never guesses) or 'auto' (default: explicit below "
        "the latch threshold, symbolic above; never sat)",
    )
    parser.add_argument(
        "--reorder",
        choices=REORDER_MODES,
        default=None,
        help="BDD dynamic variable reordering for the symbolic engine: "
        "'auto' (default: sift at the node threshold), 'off' (pin the "
        "declaration order) or 'manual' (sift once after compiling); "
        "verdicts are identical in every mode",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans/counters for the run and print the summary "
        "to stderr on exit",
    )
    parser.add_argument(
        "--report",
        metavar="FILE.json",
        default=None,
        help="record spans/counters for the run and write the JSON "
        "RunReport here",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="circuit statistics and SHE analysis")
    p.add_argument("circuit")
    p.add_argument(
        "--max-stg-bits", type=int, choices=_STG_BITS, metavar="N", default=16
    )
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("simulate", help="simulate a .bench circuit")
    p.add_argument("circuit")
    p.add_argument("--sequence", required=True, help="e.g. '0111' or '01,10,11'")
    p.add_argument("--mode", choices=("binary", "cls", "exact"), default="cls")
    p.add_argument("--state", help="power-up state for binary mode, e.g. '010'")
    p.add_argument("--vcd", help="write the trace as a VCD waveform here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("retime", help="optimise a circuit by retiming")
    p.add_argument("circuit")
    p.add_argument("--objective", choices=("min-period", "min-area"), default="min-period")
    p.add_argument("--period", type=int, help="period constraint for min-area")
    p.add_argument(
        "--delay-model", choices=("unit", "loaded"), default="unit",
        help="gate delay table used for period computation",
    )
    p.add_argument("-o", "--output", help="write the retimed .bench here")
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampled CLS invariance self-check",
    )
    p.set_defaults(func=cmd_retime)

    p = sub.add_parser("check", help="verify retimed vs original")
    p.add_argument("original")
    p.add_argument("retimed")
    p.add_argument("--samples", type=_positive_int, default=20)
    p.add_argument("--length", type=_positive_int, default=12)
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the sampled sequence batch (logged in the verdict "
        "line, so any failure reproduces from the printed command alone)",
    )
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--stg", action="store_true", help="also run STG implication analysis")
    p.add_argument(
        "--max-stg-bits", type=int, choices=_STG_BITS, metavar="N", default=16
    )
    p.add_argument(
        "--certificates",
        metavar="DIR",
        help="with --engine sat and --stg: write the DIMACS/SMV/witness "
        "certificate bundle for the safe-replacement verdict here",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("redundancy", help="CLS-invariant redundancy removal")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", help="write the optimised .bench here")
    p.add_argument("--max-pairs", type=int, default=50_000)
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("atpg", help="generate a stuck-at test set")
    p.add_argument("circuit")
    p.add_argument("--semantics", choices=("exact", "cls"), default="exact")
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser("paper", help="replay the paper's Figure 1 story")
    p.set_defaults(func=cmd_paper)

    p = sub.add_parser(
        "serve",
        help="run the persistent verification service (NDJSON over "
        "TCP/unix socket; see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7357, help="TCP port (0 = ephemeral)"
    )
    p.add_argument(
        "--socket",
        metavar="PATH",
        default=None,
        help="serve on a unix-domain socket instead of TCP",
    )
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="N",
        help="default search budget for containment/equivalence "
        "analyses (per-request \"budget\" overrides; exhaustion "
        "answers a budget-exceeded envelope, not a crash)",
    )
    p.add_argument(
        "--service-report",
        metavar="FILE.json",
        default=None,
        help="write the rolling service report here on shutdown",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "fuzz",
        help="cross-engine conformance fuzzing (corpus replay + seeded "
        "random differentials; see docs/TESTING.md)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed for the recipe stream")
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="fuzz N cases (default 200 when no --time-budget is given)",
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new cases after this much wall clock",
    )
    p.add_argument(
        "--matrix",
        choices=("quick", "std", "full"),
        default="std",
        help="arm matrix: quick (explicit+symbolic), std (+reorder, "
        "sat), full (+served arms; spawns a background server)",
    )
    p.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="regression corpus: replay every bundle in DIR first, and "
        "write shrunk bundles for new disagreements there",
    )
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.engine is not None:
        set_default_engine(args.engine)
    if args.reorder is not None:
        set_default_reorder(args.reorder)

    trace = args.trace
    report_path = args.report
    observe = trace or report_path is not None
    if observe:
        obs.reset()
        obs.enable(command=args.command)
    try:
        status = args.func(args)
    finally:
        if observe:
            obs.disable()
    if observe:
        run_report = obs.report()
        if report_path:
            run_report.write(report_path)
            print("wrote %s" % report_path, file=sys.stderr)
        if trace:
            print(run_report.summary(), file=sys.stderr)
        obs.reset()
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
