"""Tseitin CNF encoding of the compiled op program, dual-rail ternary.

One frame of a circuit is encoded exactly the way the lane simulators
evaluate it: every net carries a ``(can0, can1)`` rail pair -- ``(1,0)``
is 0, ``(0,1)`` is 1, ``(1,1)`` is X -- and each opcode of
:func:`repro.sim.compiled.compile_circuit`'s flat program becomes the
same dual-rail form ``_emit_ternary`` compiles to Python (AND's can0 is
the OR of the input can0s, XOR is the pairwise rail product chain, MUX
is the two-way rail blend, NOT swaps rails...).  The compiled program is
the **single source of truth** for cell semantics: the encoder walks
``CompiledCircuit.ops``, so a cell the simulators and the SAT engine
disagree on cannot exist by construction.  ``OP_GENERIC`` cells are
encoded by enumerating their ternary truth table
(``CellFunction.eval_ternary``), the same fallback the lane engines use.

Binary contexts (the containment miters, where machines are the paper's
completely specified binary STGs) do not pay for the second rail: a
*definite* net is one variable ``x`` with the rail pair aliased to
``(-x, x)``, and the rail-algebra helpers constant-fold through the
aliases, so a purely binary unrolling produces the familiar single-rail
Tseitin CNF.  Ternary contexts (the CLS miter) allocate both rails and
constrain them valid (``can0 | can1`` -- the ``(0,0)`` combination is
not a value).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Sequence, Tuple

from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit
from ..sim.compiled import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_CONST1,
    OP_JUNC,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    _RAIL_OF_T,
    compile_circuit,
)
from .cnf import CNF

__all__ = [
    "CircuitEncoder",
    "Rails",
    "decode_rails",
    "tseitin_and",
    "tseitin_or",
    "tseitin_xor",
]

#: A net's (can0, can1) rail pair as CNF literals.
Rails = Tuple[int, int]

#: Enumerating a GENERIC cell's ternary table is 3**n rows; this caps n.
MAX_GENERIC_INPUTS = 10


def _simplify(lits: Sequence[int], true_lit: int) -> Tuple[bool, List[int]]:
    """Drop true/duplicate literals for a conjunction.

    Returns ``(is_false, lits)`` -- ``is_false`` when a literal is
    constant-false or two literals are complementary.
    """
    out: List[int] = []
    seen = set()
    for lit in lits:
        if lit == true_lit:
            continue
        if lit == -true_lit or -lit in seen:
            return True, []
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return False, out


def tseitin_and(cnf: CNF, lits: Sequence[int], true_lit: int) -> int:
    """A literal equivalent to the conjunction of *lits*."""
    is_false, lits = _simplify(lits, true_lit)
    if is_false:
        return -true_lit
    if not lits:
        return true_lit
    if len(lits) == 1:
        return lits[0]
    y = cnf.new_var()
    for lit in lits:
        cnf.add(-y, lit)
    cnf.add_clause([y] + [-lit for lit in lits])
    return y


def tseitin_or(cnf: CNF, lits: Sequence[int], true_lit: int) -> int:
    """A literal equivalent to the disjunction of *lits*."""
    return -tseitin_and(cnf, [-lit for lit in lits], true_lit)


def tseitin_xor(cnf: CNF, p: int, q: int, true_lit: int) -> int:
    """A literal equivalent to ``p XOR q``."""
    for a, b in ((p, q), (q, p)):
        if a == true_lit:
            return -b
        if a == -true_lit:
            return b
    if p == q:
        return -true_lit
    if p == -q:
        return true_lit
    y = cnf.new_var()
    cnf.add(-y, p, q)
    cnf.add(-y, -p, -q)
    cnf.add(y, p, -q)
    cnf.add(y, -p, q)
    return y


def _blend(cnf: CNF, p: int, q: int, r: int, s: int, true_lit: int) -> int:
    """A literal equivalent to ``(p AND q) OR (r AND s)`` -- the rail
    product form shared by the XOR chain and the MUX."""
    return tseitin_or(
        cnf,
        [tseitin_and(cnf, [p, q], true_lit), tseitin_and(cnf, [r, s], true_lit)],
        true_lit,
    )


class CircuitEncoder:
    """Unrolls one circuit's compiled program into a shared CNF.

    One encoder per (circuit, CNF) pair; :meth:`encode_frame` appends
    one clock cycle and returns the output and next-state rails, which
    the caller chains into the next frame.  Helper constructors build
    the three flavours of frame boundary the miters need: free binary
    nets (one variable), constant nets (aliases of the true literal)
    and free ternary nets (two variables constrained valid).
    """

    def __init__(self, cnf: CNF, circuit: Circuit) -> None:
        self.cnf = cnf
        self.circuit = circuit
        self.cc = compile_circuit(circuit)
        self.true_lit = cnf.true_lit()

    # -- frame-boundary rails ---------------------------------------------

    def new_binary_rails(self, count: int) -> Tuple[List[int], List[Rails]]:
        """*count* fresh definite nets; returns (vars, rail pairs)."""
        vars_ = self.cnf.new_vars(count)
        return vars_, [(-v, v) for v in vars_]

    def new_ternary_rails(self, count: int) -> List[Rails]:
        """*count* fresh three-valued nets, each constrained valid."""
        rails: List[Rails] = []
        for _ in range(count):
            a, b = self.cnf.new_var(), self.cnf.new_var()
            self.cnf.add(a, b)  # (0,0) is not a value
            rails.append((a, b))
        return rails

    def constant_rails(self, bits: Sequence[bool]) -> List[Rails]:
        """Rails pinned to concrete binary values (via the true literal)."""
        t = self.true_lit
        return [(-t, t) if bit else (t, -t) for bit in bits]

    def all_x_rails(self, count: int) -> List[Rails]:
        """Rails pinned to X -- the CLS all-unknown power-up state."""
        t = self.true_lit
        return [(t, t)] * count

    # -- one clock cycle --------------------------------------------------

    def encode_frame(
        self, state: Sequence[Rails], inputs: Sequence[Rails]
    ) -> Tuple[List[Rails], List[Rails]]:
        """Append one cycle; returns (output rails, next-state rails)."""
        cc, cnf, t = self.cc, self.cnf, self.true_lit
        rails: Dict[int, Rails] = {}
        for pin, net in enumerate(cc.input_ids):
            rails[net] = inputs[pin]
        for pos, net in enumerate(cc.latch_out_ids):
            rails[net] = state[pos]
        for opcode, in_ids, out_ids, fn in cc.ops:
            az = [rails[i][0] for i in in_ids]
            bz = [rails[i][1] for i in in_ids]
            if opcode in (OP_AND, OP_NAND):
                can0 = tseitin_or(cnf, az, t)
                can1 = tseitin_and(cnf, bz, t)
                rails[out_ids[0]] = (can0, can1) if opcode == OP_AND else (can1, can0)
            elif opcode in (OP_OR, OP_NOR):
                can0 = tseitin_and(cnf, az, t)
                can1 = tseitin_or(cnf, bz, t)
                rails[out_ids[0]] = (can0, can1) if opcode == OP_OR else (can1, can0)
            elif opcode in (OP_XOR, OP_XNOR):
                oa, ob = az[0], bz[0]
                for a, b in zip(az[1:], bz[1:]):
                    oa, ob = (
                        _blend(cnf, oa, a, ob, b, t),
                        _blend(cnf, oa, b, ob, a, t),
                    )
                rails[out_ids[0]] = (oa, ob) if opcode == OP_XOR else (ob, oa)
            elif opcode == OP_NOT:
                rails[out_ids[0]] = (bz[0], az[0])
            elif opcode == OP_BUF:
                rails[out_ids[0]] = (az[0], bz[0])
            elif opcode == OP_MUX:
                (sa, w0a, w1a), (sb, w0b, w1b) = az, bz
                rails[out_ids[0]] = (
                    _blend(cnf, sb, w1a, sa, w0a, t),
                    _blend(cnf, sb, w1b, sa, w0b, t),
                )
            elif opcode == OP_CONST0:
                rails[out_ids[0]] = (t, -t)
            elif opcode == OP_CONST1:
                rails[out_ids[0]] = (-t, t)
            elif opcode == OP_JUNC:
                for out in out_ids:
                    rails[out] = (az[0], bz[0])
            else:  # OP_GENERIC: enumerate the ternary truth table
                self._encode_generic(fn, in_ids, out_ids, rails)
        outputs = [rails[net] for net in cc.output_ids]
        next_state = [rails[net] for net in cc.latch_in_ids]
        return outputs, next_state

    def _encode_generic(
        self,
        fn,
        in_ids: Sequence[int],
        out_ids: Sequence[int],
        rails: Dict[int, Rails],
    ) -> None:
        """Row-by-row encoding of ``fn.eval_ternary`` over valid inputs.

        For each of the ``3**n`` ternary input vectors, a clause per
        output rail forces the rail to the tabulated value whenever the
        input rails spell that vector.  Valid rails (never ``(0,0)``)
        make the row premises exhaustive, so the outputs are fully
        determined -- the same contract the lane engines' ``_generic_*``
        fallbacks implement.
        """
        cnf, t = self.cnf, self.true_lit
        if len(in_ids) > MAX_GENERIC_INPUTS:
            raise ValueError(
                "GENERIC cell with %d inputs exceeds the %d-input CNF cap"
                % (len(in_ids), MAX_GENERIC_INPUTS)
            )
        out_rails = [(cnf.new_var(), cnf.new_var()) for _ in out_ids]
        for net, pair in zip(out_ids, out_rails):
            rails[net] = pair
        in_rails = [rails[i] for i in in_ids]
        for vector in product((ZERO, ONE, X), repeat=len(in_ids)):
            # not-premise: the disjunction of each input rail differing
            # from this row's rail spelling.
            not_premise: List[int] = []
            for (a_lit, b_lit), value in zip(in_rails, vector):
                ra, rb = _RAIL_OF_T[value]
                not_premise.append(-a_lit if ra else a_lit)
                not_premise.append(-b_lit if rb else b_lit)
            values = fn.eval_ternary(tuple(vector))
            for (oa, ob), value in zip(out_rails, values):
                ra, rb = _RAIL_OF_T[value]
                self._add_row_clause(not_premise, oa if ra else -oa)
                self._add_row_clause(not_premise, ob if rb else -ob)

    def _add_row_clause(self, not_premise: Sequence[int], conclusion: int) -> None:
        """Add ``premise -> conclusion``, folding constant literals."""
        t = self.true_lit
        if conclusion == t:
            return
        lits: List[int] = []
        for lit in not_premise:
            if lit == t:
                return  # premise can never hold
            if lit != -t:
                lits.append(lit)
        if conclusion != -t:
            lits.append(conclusion)
        self.cnf.add_clause(lits)


def decode_rails(model: Dict[int, bool], rails: Rails, true_lit: int) -> T:
    """Read one net's ternary value out of a satisfying assignment."""

    def lit_value(lit: int) -> bool:
        if lit == true_lit:
            return True
        if lit == -true_lit:
            return False
        value = model[abs(lit)]
        return value if lit > 0 else not value

    a, b = lit_value(rails[0]), lit_value(rails[1])
    if a and b:
        return X
    if b:
        return ONE
    if a:
        return ZERO
    raise ValueError("invalid (0,0) rail pair in SAT model")
