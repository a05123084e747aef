"""BLIF (Berkeley Logic Interchange Format) reader and writer.

BLIF was the interchange format of the paper's own research group (SIS,
and later ABC); supporting it lets this library exchange circuits with
the classical synthesis tools.  The subset implemented:

* ``.model``, ``.inputs``, ``.outputs``, ``.end``;
* ``.names`` logic blocks (PLA cubes with ``-`` don't-cares, ON-set
  ``1`` rows or OFF-set ``0`` rows, constant blocks with no cubes);
* ``.latch input output [type control] [init]``.

Each ``.names`` block becomes a two-level AND/OR cone (one AND per
cube, an OR, and shared input inverters); no minimisation is attempted.
Latch *initial values* are parsed but deliberately **not** stored on the
circuit: the paper's whole model is that latches power up unknown.
:func:`parse_blif` returns them separately so callers that care can see
what the file claimed.

The writer emits one ``.names`` block per cell from its truth table
(fine for library-sized cells) and collapses junctions, mirroring the
``.bench`` writer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .builder import CircuitBuilder
from .circuit import Circuit, CircuitError
from .transform import collapse_junctions

__all__ = ["BlifParseError", "BlifModel", "parse_blif", "write_blif"]


class BlifParseError(CircuitError):
    """Raised on malformed BLIF input, with a line number."""

    def __init__(self, line_no: int, why: str) -> None:
        self.line_no = line_no
        super().__init__("BLIF line %d: %s" % (line_no, why))


@dataclass
class BlifModel:
    """A parsed BLIF model: the circuit plus side-channel metadata."""

    circuit: Circuit
    name: str
    latch_inits: Dict[str, int] = field(default_factory=dict)


def _logical_lines(text: str) -> List[Tuple[int, List[str]]]:
    """Join ``\\``-continued lines, strip comments, tokenise."""
    lines: List[Tuple[int, List[str]]] = []
    pending = ""
    pending_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if not pending:
            pending_no = line_no
        if body.endswith("\\"):
            pending += body[:-1] + " "
            continue
        pending += body
        tokens = pending.split()
        if tokens:
            lines.append((pending_no, tokens))
        pending = ""
    if pending.strip():
        lines.append((pending_no, pending.split()))
    return lines


def parse_blif(text: str, name: str = "blif") -> BlifModel:
    """Parse BLIF *text* into a :class:`BlifModel`.

    Only a single ``.model`` per file is supported (no hierarchy).
    """
    model_name = name
    inputs: List[str] = []
    outputs: List[str] = []
    latches: List[Tuple[int, str, str, Optional[int]]] = []
    names_blocks: List[Tuple[int, List[str], List[Tuple[str, str]]]] = []

    lines = _logical_lines(text)
    index = 0
    seen_model = False
    while index < len(lines):
        line_no, tokens = lines[index]
        keyword = tokens[0]
        if keyword == ".model":
            if seen_model:
                raise BlifParseError(line_no, "multiple .model blocks not supported")
            seen_model = True
            if len(tokens) > 1:
                model_name = tokens[1]
            index += 1
        elif keyword == ".inputs":
            inputs.extend(tokens[1:])
            index += 1
        elif keyword == ".outputs":
            outputs.extend(tokens[1:])
            index += 1
        elif keyword == ".latch":
            args = tokens[1:]
            if len(args) < 2:
                raise BlifParseError(line_no, ".latch needs input and output")
            data_in, data_out = args[0], args[1]
            init: Optional[int] = None
            rest = args[2:]
            # Optional [type control] pair then optional init digit.
            if rest and rest[-1] in ("0", "1", "2", "3"):
                init = int(rest[-1])
                rest = rest[:-1]
            if len(rest) not in (0, 2):
                raise BlifParseError(line_no, "malformed .latch clause")
            latches.append((line_no, data_in, data_out, init))
            index += 1
        elif keyword == ".names":
            signals = tokens[1:]
            if not signals:
                raise BlifParseError(line_no, ".names needs at least an output")
            cubes: List[Tuple[str, str]] = []
            index += 1
            while index < len(lines) and not lines[index][1][0].startswith("."):
                cube_no, cube_tokens = lines[index]
                if len(signals) == 1:
                    if len(cube_tokens) != 1 or cube_tokens[0] not in ("0", "1"):
                        raise BlifParseError(cube_no, "constant block expects a single 0/1")
                    cubes.append(("", cube_tokens[0]))
                else:
                    if len(cube_tokens) != 2:
                        raise BlifParseError(cube_no, "cube needs pattern and output value")
                    pattern, value = cube_tokens
                    if len(pattern) != len(signals) - 1 or any(
                        ch not in "01-" for ch in pattern
                    ):
                        raise BlifParseError(cube_no, "bad cube pattern %r" % pattern)
                    if value not in ("0", "1"):
                        raise BlifParseError(cube_no, "bad cube output %r" % value)
                    cubes.append((pattern, value))
                index += 1
            names_blocks.append((line_no, signals, cubes))
        elif keyword == ".end":
            index += 1
        else:
            raise BlifParseError(line_no, "unsupported construct %r" % keyword)

    # Build the circuit.  Intermediate nets must avoid every signal
    # name the file mentions anywhere (including later blocks).
    b = CircuitBuilder(model_name)
    mentioned = set(inputs) | set(outputs)
    for _, data_in, data_out, _ in latches:
        mentioned.update((data_in, data_out))
    for _, signals, _ in names_blocks:
        mentioned.update(signals)
    counter = [0]

    def fresh(stem: str) -> str:
        while True:
            counter[0] += 1
            candidate = "%s~%d" % (stem, counter[0])
            if candidate not in mentioned and not b.circuit.has_net(candidate):
                return candidate

    for signal in inputs:
        b.input(signal)
    for line_no, data_in, data_out, init in latches:
        b.latch(data_in, data_out, name="lat_%s" % data_out)

    inverter_cache: Dict[str, str] = {}

    def inverted(signal: str) -> str:
        net = inverter_cache.get(signal)
        if net is None:
            net = b.gate(
                "NOT",
                signal,
                name=b.circuit.fresh_name("inv_%s" % signal),
                out=fresh("inv"),
            )
            inverter_cache[signal] = net
        return net

    for block_index, (line_no, signals, cubes) in enumerate(names_blocks):
        out = signals[-1]
        ins = signals[:-1]
        values = {value for _, value in cubes}
        if len(values) > 1:
            raise BlifParseError(line_no, "mixed ON/OFF cubes in one .names block")
        polarity = values.pop() if values else "1"

        if not ins:
            constant = (polarity == "1") if cubes else False
            b.gate("CONST1" if constant else "CONST0", name="blk%d" % block_index, out=out)
            continue
        if not cubes:
            b.gate("CONST0", name="blk%d" % block_index, out=out)
            continue

        term_nets: List[str] = []
        for cube_index, (pattern, _) in enumerate(cubes):
            literals = []
            for ch, signal in zip(pattern, ins):
                if ch == "1":
                    literals.append(signal)
                elif ch == "0":
                    literals.append(inverted(signal))
            if not literals:
                # all-don't-care cube: function is the constant polarity
                term_nets = []
                b.gate(
                    "CONST1" if polarity == "1" else "CONST0",
                    name="blk%d" % block_index,
                    out=out,
                )
                break
            if len(literals) == 1:
                term_nets.append(literals[0])
            else:
                term_nets.append(
                    b.gate(
                        "AND",
                        *literals,
                        name="blk%d_c%d" % (block_index, cube_index),
                        out=fresh("cube"),
                    )
                )
        else:
            if len(term_nets) == 1 and polarity == "1":
                b.gate("BUF", term_nets[0], name="blk%d" % block_index, out=out)
            elif polarity == "1":
                b.gate("OR", *term_nets, name="blk%d" % block_index, out=out)
            elif len(term_nets) == 1:
                b.gate("NOT", term_nets[0], name="blk%d" % block_index, out=out)
            else:
                b.gate("NOR", *term_nets, name="blk%d" % block_index, out=out)

    for signal in outputs:
        b.output(signal)

    circuit = b.circuit
    # Validate references.
    for cell in circuit.cells:
        for net in cell.inputs:
            if not circuit.has_net(net):
                raise BlifParseError(0, "signal %r referenced but never defined" % net)
    for latch in circuit.latches:
        if not circuit.has_net(latch.data_in):
            raise BlifParseError(0, "latch input %r never defined" % latch.data_in)
    for net in circuit.outputs:
        if not circuit.has_net(net):
            raise BlifParseError(0, "output %r never defined" % net)

    inits = {
        "lat_%s" % data_out: init
        for _, _, data_out, init in latches
        if init is not None and init != 3
    }
    return BlifModel(circuit=circuit, name=model_name, latch_inits=inits)


def write_blif(circuit: Circuit, *, model: Optional[str] = None) -> str:
    """Render *circuit* as BLIF text (junctions collapsed).

    Each cell becomes a ``.names`` block listing its ON-set minterms --
    correct for any single-output cell; multi-output cells other than
    junctions are rejected.
    """
    flat = collapse_junctions(circuit)
    lines: List[str] = [".model %s" % (model or flat.name)]
    if flat.inputs:
        lines.append(".inputs %s" % " ".join(flat.inputs))
    if flat.outputs:
        lines.append(".outputs %s" % " ".join(dict.fromkeys(flat.outputs)))
    for latch in flat.latches:
        lines.append(".latch %s %s 3" % (latch.data_in, latch.data_out))
    for cell in flat.cells:
        fn = cell.function
        if fn.n_outputs != 1:
            raise CircuitError(
                "cell %s (%s) is multi-output; not representable in flat BLIF"
                % (cell.name, fn.name)
            )
        lines.append(".names %s" % " ".join(cell.inputs + cell.outputs))
        if fn.n_inputs == 0:
            if fn.eval_binary(())[0]:
                lines.append("1")
            continue
        for bits in itertools.product((False, True), repeat=fn.n_inputs):
            if fn.eval_binary(bits)[0]:
                lines.append(
                    "%s 1" % "".join("1" if bit else "0" for bit in bits)
                )
    lines.append(".end")
    return "\n".join(lines) + "\n"
