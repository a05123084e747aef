"""Certificate exports: the SAT engine's verdicts, re-checkable elsewhere.

Three artifact formats, each consumable by tooling this repo does not
ship (that is the point -- the verdict must survive outside the engine
that produced it):

* **DIMACS** (:func:`export_dimacs`) -- the miter CNF with a comment
  header documenting what each variable block means, so any DIMACS
  solver reproduces the SAT/UNSAT verdict at that unrolling depth.
* **SMV** (:func:`export_smv`) -- the safe-replacement miter as a NuSMV
  model: both circuits as modules with nondeterministic (free power-up)
  latches, one D instance per power-up state pinned by ``INIT``,
  sticky mismatch latches, and ``LTLSPEC G !(...)`` that holds iff
  ``C ≼ D`` -- the *unbounded* twin of the frame-unrolled CNF, checked
  by a model checker rather than a SAT solver.
* **Witness JSON** (:mod:`repro.sat.witness`) -- a replayable input
  trace, confirmed by :mod:`repro.sat.replay` with the stock
  simulators.

:func:`write_bundle` lays a verdict out as a self-contained directory
(circuits in ``.bench``, DIMACS, SMV, witness, MANIFEST) so a single
``python -m repro.sat.replay`` invocation re-checks it from files alone.
"""

from __future__ import annotations

import os
from itertools import product
from typing import Dict, List, Sequence

from ..netlist.circuit import Circuit
from ..netlist.io_bench import write_bench
from ..netlist.validate import check_interfaces
from ..sim.compiled import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_GENERIC,
    OP_JUNC,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    compile_circuit,
)
from .engine import SatResult
from .miter import CLSMiter, ImplicationMiter, SafeReplacementMiter, _int_bits
from .witness import witness_to_json

__all__ = ["export_dimacs", "export_smv", "write_bundle"]


# ---------------------------------------------------------------------------
# DIMACS with a variable-role header.
# ---------------------------------------------------------------------------


def _role_lines(miter) -> List[str]:
    """Human-readable map from CNF variable blocks to circuit roles."""
    lines = [
        "repro.sat %s miter: %s (C) vs %s (D), %d frame(s)"
        % (miter.kind, miter.c_circuit.name, miter.d_circuit.name, miter.frames),
        "true literal: %d (fixed true by a unit clause)" % miter.true_lit,
    ]

    def block(name: str, vars_: Sequence[int]) -> None:
        if vars_:
            lines.append("%s: vars %s" % (name, " ".join(str(v) for v in vars_)))

    if isinstance(miter, SafeReplacementMiter):
        block("C power-up state (MSB first)", miter.c_init_vars)
        for t, vars_ in enumerate(miter.input_vars):
            block("frame %d shared inputs" % t, vars_)
    elif isinstance(miter, ImplicationMiter):
        block("C power-up state (MSB first)", miter.c_init_vars)
        for t, vars_ in enumerate(miter.warmup_input_vars):
            block("warm-up frame %d inputs" % t, vars_)
        for d0, frames in enumerate(miter.pair_input_vars):
            for t, vars_ in enumerate(frames):
                block("vs D state %d, frame %d inputs" % (d0, t), vars_)
    elif isinstance(miter, CLSMiter):
        for t, rails in enumerate(miter.input_rails):
            flat: List[int] = []
            for a, b in rails:
                flat.extend((abs(a), abs(b)))
            block("frame %d ternary inputs (can0,can1 pairs)" % t, flat)
    return lines


def export_dimacs(miter) -> str:
    """The miter CNF in DIMACS, prefixed by a variable-role header.

    Satisfiable exactly when the miter's property is refutable at its
    unrolling depth; any off-the-shelf solver reproduces the verdict.
    """
    header = "".join("c %s\n" % line for line in _role_lines(miter))
    return header + miter.cnf.to_dimacs()


# ---------------------------------------------------------------------------
# SMV: the unbounded safe-replacement miter.
# ---------------------------------------------------------------------------


def _smv_module(circuit: Circuit, module_name: str) -> List[str]:
    """One circuit as an SMV module: latches are free-power-up ``VAR``s
    (no ``init`` assignment -- NuSMV leaves them nondeterministic, which
    is exactly the paper's arbitrary power-up state), nets are
    ``DEFINE``s mirroring the compiled op program."""
    cc = compile_circuit(circuit)
    params = ["i%d" % pin for pin in range(len(circuit.inputs))]
    lines = ["MODULE %s(%s)" % (module_name, ", ".join(params))]
    names: Dict[int, str] = {}
    for pin, net in enumerate(cc.input_ids):
        names[net] = "i%d" % pin
    lines.append("VAR")
    for pos, net in enumerate(cc.latch_out_ids):
        names[net] = "l%d" % pos
        lines.append("  l%d : boolean;" % pos)
    defines: List[str] = []
    for opcode, in_ids, out_ids, fn in cc.ops:
        args = [names[i] for i in in_ids]
        if opcode == OP_JUNC:
            for out in out_ids:
                names[out] = names[in_ids[0]]
            continue
        target = "n%d" % out_ids[0]
        if opcode in (OP_AND, OP_NAND):
            expr = " & ".join(args)
            if opcode == OP_NAND:
                expr = "!(%s)" % expr
        elif opcode in (OP_OR, OP_NOR):
            expr = " | ".join(args)
            if opcode == OP_NOR:
                expr = "!(%s)" % expr
        elif opcode in (OP_XOR, OP_XNOR):
            expr = " xor ".join(args)
            if opcode == OP_XNOR:
                expr = "!(%s)" % expr
        elif opcode == OP_NOT:
            expr = "!%s" % args[0]
        elif opcode == OP_BUF:
            expr = args[0]
        elif opcode == OP_MUX:
            sel, w0, w1 = args
            expr = "(%s & %s) | (!%s & %s)" % (sel, w1, sel, w0)
        elif opcode == OP_CONST0:
            expr = "FALSE"
        elif opcode == OP_CONST1:
            expr = "TRUE"
        elif opcode == OP_GENERIC:
            exprs = _generic_minterms(fn, args)
            for out, one_expr in zip(out_ids, exprs):
                names[out] = "n%d" % out
                defines.append("  n%d := %s;" % (out, one_expr))
            continue
        else:  # pragma: no cover - the opcode set is closed
            raise ValueError("unsupported opcode %d in SMV export" % opcode)
        names[out_ids[0]] = target
        defines.append("  %s := %s;" % (target, expr))
    for pin, net in enumerate(cc.output_ids):
        defines.append("  o%d := %s;" % (pin, names[net]))
    if defines:
        lines.append("DEFINE")
        lines.extend(defines)
    lines.append("ASSIGN")
    for pos, net in enumerate(cc.latch_in_ids):
        lines.append("  next(l%d) := %s;" % (pos, names[net]))
    return lines


def _generic_minterms(fn, args: Sequence[str]) -> List[str]:
    """Each output of a GENERIC cell as a disjunction of its binary
    minterms (the table is completely specified, so this is exact)."""
    per_output: List[List[str]] = [[] for _ in range(fn.n_outputs)]
    for row in product((False, True), repeat=len(args)):
        values = fn.eval_binary(row)
        term = " & ".join(
            arg if bit else "!%s" % arg for arg, bit in zip(args, row)
        ) or "TRUE"
        for k, value in enumerate(values):
            if value:
                per_output[k].append("(%s)" % term)
    return [" | ".join(terms) if terms else "FALSE" for terms in per_output]


def export_smv(c: Circuit, d: Circuit) -> str:
    """The **unbounded** safe-replacement miter as an SMV model.

    ``main`` instantiates C once (free power-up state, free inputs) and
    one D copy per power-up state, pinned by ``INIT``.  Sticky ``mm_j``
    latches remember whether copy ``j`` has mismatched C yet; the
    LTL spec ``G !(cur_mm_0 & cur_mm_1 & ...)`` says "never have *all*
    copies mismatched", which holds iff ``C ≼ D`` -- a model checker's
    answer cross-checks the bounded CNF verdicts with no frame cap.
    """
    check_interfaces(c, d)
    lines: List[str] = [
        "-- repro.sat safe-replacement miter: %s (C) vs %s (D)" % (c.name, d.name),
        "-- The LTLSPEC holds iff C is a safe replacement for D (C ≼ D).",
    ]
    lines.extend(_smv_module(c, "circ_c"))
    lines.append("")
    lines.extend(_smv_module(d, "circ_d"))
    lines.append("")
    lines.append("MODULE main")
    lines.append("VAR")
    inputs = ["in%d" % pin for pin in range(len(c.inputs))]
    for name in inputs:
        lines.append("  %s : boolean;" % name)
    arg_list = ", ".join(inputs)
    lines.append("  C : circ_c(%s);" % arg_list)
    copies = 1 << d.num_latches
    for j in range(copies):
        lines.append("  D%d : circ_d(%s);" % (j, arg_list))
    for j in range(copies):
        lines.append("  mm%d : boolean;" % j)
    for j in range(copies):
        bits = _int_bits(j, d.num_latches)
        if bits:
            pins = " & ".join(
                "D%d.l%d" % (j, pos) if bit else "!D%d.l%d" % (j, pos)
                for pos, bit in enumerate(bits)
            )
            lines.append("INIT %s" % pins)
    lines.append("DEFINE")
    for j in range(copies):
        diff = " | ".join(
            "(C.o%d xor D%d.o%d)" % (pin, j, pin)
            for pin in range(len(c.outputs))
        )
        lines.append("  diff%d := %s;" % (j, diff))
        lines.append("  cur_mm%d := mm%d | diff%d;" % (j, j, j))
    lines.append("ASSIGN")
    for j in range(copies):
        lines.append("  init(mm%d) := FALSE;" % j)
        lines.append("  next(mm%d) := cur_mm%d;" % (j, j))
    conj = " & ".join("cur_mm%d" % j for j in range(copies))
    lines.append("LTLSPEC G !(%s)" % conj)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Bundles: verdict + everything needed to re-check it, as files.
# ---------------------------------------------------------------------------


def write_bundle(
    directory: str,
    result: SatResult,
    c: Circuit,
    d: Circuit,
) -> List[str]:
    """Write a self-contained certificate directory; returns filenames.

    Always: both circuits (``c.bench``/``d.bench``), the deciding miter
    as DIMACS, and ``MANIFEST.txt``.  Safe-replacement verdicts add the
    unbounded SMV miter; violations add ``witness.json``, replayable
    via ``python -m repro.sat.replay witness.json --c c.bench --d
    d.bench``.
    """
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    def put(name: str, text: str) -> None:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        written.append(name)

    put("c.bench", write_bench(c, header="C (candidate): %s" % c.name))
    put("d.bench", write_bench(d, header="D (reference): %s" % d.name))
    if result.miter is not None:
        put("miter.dimacs", export_dimacs(result.miter))
    if result.kind == "safe-replacement":
        put("miter.smv", export_smv(c, d))
    if result.witness is not None:
        put("witness.json", witness_to_json(result.witness))
    power = "^%d" % result.k if result.k else ""
    verdict = {
        "safe-replacement": ("C ≼ D", "C ⋠ D"),
        "implication": ("C%s ⊑ D" % power, "C%s ⋢ D" % power),
        "cls": ("CLS-equivalent (bounded)", "CLS traces differ"),
    }[result.kind][0 if result.holds else 1]
    manifest = [
        "repro.sat certificate bundle",
        "kind: %s" % result.kind,
        "C: %s   D: %s" % (c.name, d.name),
        "verdict: %s  (method: %s, frames: %d)"
        % (verdict, result.method, result.frames),
        "files: %s" % ", ".join(written),
    ]
    if result.witness is not None:
        manifest.append(
            "re-check: python -m repro.sat.replay witness.json "
            "--c c.bench --d d.bench"
        )
    put("MANIFEST.txt", "\n".join(manifest) + "\n")
    return written
