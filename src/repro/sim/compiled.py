"""The compile-once evaluation core shared by every simulator.

Every experiment in this repository ultimately evaluates the same
combinational core thousands of times -- Table 1 sweeps, the exact
power-up-state sweep, CLS-invariance checks, fault grading, STG
extraction.  Instead of re-walking the name-keyed netlist cell by cell
each cycle, :class:`CompiledCircuit` lowers a
:class:`~repro.netlist.circuit.Circuit` **once** into a flat program:

* dense integer net ids (``net_index`` / ``net_names``),
* a topologically ordered opcode/operand array (``ops``), with opcodes
  classified from the cell library via
  :attr:`repro.logic.functions.CellFunction.family`,
* precomputed index vectors for the primary inputs, latch outputs
  (cycle sources), latch data inputs (next state) and primary outputs.

The compiled program is cached on the circuit (``_compiled_cache``)
next to ``_topo_cache`` and invalidated by exactly the same mutation
hooks, so the retiming engine can keep rewriting circuits freely.

Value representation -- lane masks
----------------------------------

All batched entry points are *lane parallel*: a net's value is one
arbitrary-precision Python integer whose bit ``i`` is lane ``i``'s
value (LSB = lane 0).  Bitwise ops on Python ints run at C speed per
30-bit limb, and with a single lane the same code is a fast scalar
simulator, without numpy overhead on small batches.  Two algebras
share that representation:

* **binary**: one mask per net; ``AND`` is ``&``, ``NOT`` is ``M ^ x``
  where ``M`` is the all-lanes mask.
* **conservative ternary (CLS)**: two masks per net, the *dual-rail*
  encoding ``(can0, can1)`` -- ``0 = (1, 0)``, ``1 = (0, 1)``,
  ``X = (1, 1)``.  Each opcode has a closed dual-rail form of its
  Kleene (per-cell exact) ternary table, e.g. for AND
  ``can0 = a.can0 | b.can0`` and ``can1 = a.can1 & b.can1``.

Three public scalar/mask entry points wrap this core:

* :meth:`CompiledCircuit.step_binary` -- scalar Boolean cycles,
* :meth:`CompiledCircuit.step_ternary` -- scalar conservative-ternary
  (CLS) cycles over :class:`~repro.logic.ternary.T`,
* :meth:`CompiledCircuit.step_binary_masks` /
  :meth:`CompiledCircuit.step_ternary_masks` -- the batched
  (lanes x nets) forms, which :mod:`repro.sim.exact`,
  :mod:`repro.sim.fault`, :mod:`repro.stg.explicit` and
  :mod:`repro.retime.validity` step directly.

This module owns the lane format of a power-up sweep: lane ``i`` holds
power-up state ``i``, and latch ``j`` takes bit ``n - 1 - j`` of ``i``
(:func:`exhaustive_state_masks`).

Each entry point takes the stuck-at ``overrides`` contract: an
overridden net holds the forced value no matter what its driver
computes, sources included.  The mask entry points generalise it to
per-lane forcing (:meth:`CompiledCircuit.binary_forcing`,
:meth:`CompiledCircuit.ternary_forcing`): a net may be stuck at 0 in
some lanes and at 1 in others, which is how :mod:`repro.sim.fault`
grades a pack of faults in one sweep.

Execution strategy: the program is *code-generated* -- one Python
statement per op, compiled with :func:`compile` once and memoised
globally by source text, so structurally identical circuits (e.g. a
benchmark rebuilding Figure 1 every round) share one code object.
Each domain has a plain and a forced step function; the forced one
also masks every net right after the net is loaded or computed, and
serves every override.  This is the only evaluation path of the
product; the test suite keeps a netlist-walking reference interpreter
(``tests/reference.py``) that evaluates cells through their
:class:`~repro.logic.functions.CellFunction` tables alone, and checks
both step functions against it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Sized, Tuple

import numpy as np

from ..logic.functions import CellFunction
from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit, CircuitError
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span

__all__ = [
    "CompiledCircuit",
    "Forcing",
    "check_width",
    "compile_circuit",
    "column_to_mask",
    "exhaustive_state_masks",
    "mask_to_column",
]

# ---------------------------------------------------------------------------
# Opcodes.
# ---------------------------------------------------------------------------

OP_AND = 0
OP_OR = 1
OP_NAND = 2
OP_NOR = 3
OP_XOR = 4
OP_XNOR = 5
OP_NOT = 6
OP_BUF = 7
OP_MUX = 8
OP_CONST0 = 9
OP_CONST1 = 10
OP_JUNC = 11
OP_GENERIC = 12

_FAMILY_TO_OP = {
    "AND": OP_AND,
    "OR": OP_OR,
    "NAND": OP_NAND,
    "NOR": OP_NOR,
    "XOR": OP_XOR,
    "XNOR": OP_XNOR,
    "NOT": OP_NOT,
    "BUF": OP_BUF,
    "MUX": OP_MUX,
    "CONST0": OP_CONST0,
    "CONST1": OP_CONST1,
    "JUNC": OP_JUNC,
    "GENERIC": OP_GENERIC,
}

#: One program step: (opcode, input net ids, output net ids, cell function).
#: The function reference is only consulted for ``OP_GENERIC``.
Op = Tuple[int, Tuple[int, ...], Tuple[int, ...], CellFunction]

#: Per-net operands of a forced step function, indexed by net id:
#: ``None`` for a free net, else the masks that force it (see
#: :meth:`CompiledCircuit.binary_forcing` and
#: :meth:`CompiledCircuit.ternary_forcing`).
Forcing = Tuple[Optional[Tuple[int, ...]], ...]


# ---------------------------------------------------------------------------
# Lane masks: ndarray columns in and out, and the exhaustive power-up sweep.
# ---------------------------------------------------------------------------


def column_to_mask(column: np.ndarray) -> int:
    """Pack a boolean lane column into an integer mask (bit i = lane i)."""
    packed = np.packbits(np.asarray(column, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def mask_to_column(mask: int, batch: int) -> np.ndarray:
    """Unpack an integer lane mask into a boolean column of length *batch*."""
    if batch == 0:
        return np.zeros(0, dtype=bool)
    nbytes = (batch + 7) // 8
    buf = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(buf, bitorder="little", count=batch).astype(bool)


@lru_cache(maxsize=128)
def exhaustive_state_masks(num_latches: int) -> Tuple[int, ...]:
    """Lane masks of the full ``2**n`` power-up sweep, per latch count.

    Lane ``i`` carries state ``i``; latch ``j`` takes bit ``n - 1 - j``
    of the index, so latch 0 is the most significant bit, as in
    :func:`repro.sim.binary.state_from_int`.  The masks depend on ``n``
    alone, so every exhaustive sweep over an ``n``-latch circuit shares
    one packed copy -- exact fault grading builds a fresh
    :class:`~repro.sim.exact.ExactSimulator` per fault and relies on it.
    """
    indices = np.arange(1 << num_latches, dtype=np.int64)
    return tuple(
        column_to_mask(((indices >> (num_latches - 1 - bit)) & 1).astype(bool))
        for bit in range(num_latches)
    )


# ---------------------------------------------------------------------------
# Generic-cell (non-library) lane-by-lane fallbacks.
# ---------------------------------------------------------------------------


def _generic_binary(fn: CellFunction, ins: Sequence[int], all_lanes: int) -> List[int]:
    outs = [0] * fn.n_outputs
    remaining = all_lanes
    while remaining:
        lane_bit = remaining & -remaining  # visit set lanes only
        remaining ^= lane_bit
        vals = fn.eval_binary(tuple(bool(m & lane_bit) for m in ins))
        for pin, v in enumerate(vals):
            if v:
                outs[pin] |= lane_bit
    return outs


_RAIL_OF_T = {ZERO: (1, 0), ONE: (0, 1), X: (1, 1)}
_T_OF_RAIL = {(1, 0): ZERO, (0, 1): ONE, (1, 1): X}


def _generic_ternary(
    fn: CellFunction, ins: Sequence[Tuple[int, int]], all_lanes: int
) -> List[Tuple[int, int]]:
    out_a = [0] * fn.n_outputs
    out_b = [0] * fn.n_outputs
    remaining = all_lanes
    while remaining:
        lane_bit = remaining & -remaining  # visit set lanes only
        remaining ^= lane_bit
        vector = tuple(
            _T_OF_RAIL[(1 if a & lane_bit else 0, 1 if b & lane_bit else 0)]
            for a, b in ins
        )
        vals = fn.eval_ternary(vector)
        for pin, v in enumerate(vals):
            ra, rb = _RAIL_OF_T[v]
            if ra:
                out_a[pin] |= lane_bit
            if rb:
                out_b[pin] |= lane_bit
    return list(zip(out_a, out_b))


# ---------------------------------------------------------------------------
# Code generation.
# ---------------------------------------------------------------------------

_CODE_CACHE: Dict[str, Any] = {}

#: Global memo of finished step functions keyed by (domain, program
#: signature).  Benchmarks and optimisation loops rebuild structurally
#: identical circuits constantly; sharing the compiled function across
#: instances turns recompilation into a dict lookup.
_FN_CACHE: Dict[Any, Callable] = {}


def _compile_source(source: str, env: Dict[str, Any]) -> Callable:
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro.sim.compiled>", "exec")
        _CODE_CACHE[source] = code
    exec(code, env)  # noqa: S102 - self-generated source, memoised
    return env["_f"]


def _memoised_fn(cc: "CompiledCircuit", domain: str) -> Callable:
    """Compiled step function for *domain*: ``b`` (binary lane masks),
    ``t`` (dual-rail ternary lane masks), or ``bf``/``tf``, their forced
    variants (see :meth:`CompiledCircuit.binary_forcing`)."""
    key = (domain, cc.signature)
    fn = _FN_CACHE.get(key)
    if fn is None:
        with _span("compile.codegen"):
            emit = _emit_binary if domain[0] == "b" else _emit_ternary
            source, env = emit(cc, forced=domain.endswith("f"))
            fn = _compile_source(source, env)
        _FN_CACHE[key] = fn
        _TRACE.incr("compile.codegen")
    else:
        _TRACE.incr("compile.codegen_cache_hits")
    return fn


def _prologue(cc: "CompiledCircuit", forced: bool) -> List[str]:
    """The ``def`` line, plus (forced) one local per net operand."""
    if not forced:
        return ["def _f(S, I, M):"]
    lines = ["def _f(S, I, M, F):"]
    if cc.num_nets:
        lines.append("    %s= F" % "".join("f%d, " % i for i in range(cc.num_nets)))
    return lines


def _emit_binary(cc: "CompiledCircuit", forced: bool) -> Tuple[str, Dict[str, Any]]:
    """Generate the binary lane-mask step function.

    Signature of the generated function:
    ``_f(S, I, M) -> (output_masks, next_state_masks)`` where ``S``/``I``
    are sequences of latch/input masks and ``M`` the all-lanes mask.
    The *forced* variant takes a fourth argument, the per-net operands
    of :meth:`CompiledCircuit.binary_forcing`, and applies them to each
    net right after the net is loaded or computed.
    """
    lines = _prologue(cc, forced)
    env: Dict[str, Any] = {"_gb": _generic_binary}
    force = "    if f{0}: v{0} = (v{0} | f{0}[0]) & f{0}[1]"
    for pin, net in enumerate(cc.input_ids):
        lines.append("    v%d = I[%d]" % (net, pin))
        if forced:
            lines.append(force.format(net))
    for pos, net in enumerate(cc.latch_out_ids):
        lines.append("    v%d = S[%d]" % (net, pos))
        if forced:
            lines.append(force.format(net))
    for index, (opcode, in_ids, out_ids, fn) in enumerate(cc.ops):
        xs = ["v%d" % i for i in in_ids]
        o = "v%d" % out_ids[0]
        if opcode == OP_AND:
            lines.append("    %s = %s" % (o, " & ".join(xs)))
        elif opcode == OP_OR:
            lines.append("    %s = %s" % (o, " | ".join(xs)))
        elif opcode == OP_NAND:
            lines.append("    %s = M ^ (%s)" % (o, " & ".join(xs)))
        elif opcode == OP_NOR:
            lines.append("    %s = M ^ (%s)" % (o, " | ".join(xs)))
        elif opcode == OP_XOR:
            lines.append("    %s = %s" % (o, " ^ ".join(xs)))
        elif opcode == OP_XNOR:
            lines.append("    %s = M ^ (%s)" % (o, " ^ ".join(xs)))
        elif opcode == OP_NOT:
            lines.append("    %s = M ^ %s" % (o, xs[0]))
        elif opcode == OP_BUF:
            lines.append("    %s = %s" % (o, xs[0]))
        elif opcode == OP_MUX:
            s, w0, w1 = xs
            lines.append("    %s = (%s & %s) | ((M ^ %s) & %s)" % (o, s, w1, s, w0))
        elif opcode == OP_CONST0:
            lines.append("    %s = 0" % o)
        elif opcode == OP_CONST1:
            lines.append("    %s = M" % o)
        elif opcode == OP_JUNC:
            for out in out_ids:
                lines.append("    v%d = %s" % (out, xs[0]))
        else:  # OP_GENERIC
            helper = "_fn%d" % index
            env[helper] = fn
            lines.append(
                "    %s = _gb(%s, (%s), M)"
                % (
                    "".join("v%d, " % out for out in out_ids),
                    helper,
                    "".join("%s, " % x for x in xs),
                )
            )
        if forced:
            lines.extend(force.format(out) for out in out_ids)
    outs = "".join("v%d, " % i for i in cc.output_ids)
    nxt = "".join("v%d, " % i for i in cc.latch_in_ids)
    lines.append("    return (%s), (%s)" % (outs, nxt))
    return "\n".join(lines) + "\n", env


def _emit_ternary(cc: "CompiledCircuit", forced: bool) -> Tuple[str, Dict[str, Any]]:
    """Generate the dual-rail ternary lane-mask step function.

    ``_f(S, I, M)`` takes sequences of ``(can0, can1)`` rail pairs and
    returns ``(output_rails, next_state_rails)``; the *forced* variant
    takes the operands of :meth:`CompiledCircuit.ternary_forcing` as
    ``F``, like :func:`_emit_binary`'s.
    """
    lines = _prologue(cc, forced)
    env: Dict[str, Any] = {"_gt": _generic_ternary}
    force = (
        "    if f{0}: a{0} = (a{0} | f{0}[0]) & f{0}[1]; b{0} = (b{0} | f{0}[2]) & f{0}[3]"
    )
    for pin, net in enumerate(cc.input_ids):
        lines.append("    a%d, b%d = I[%d]" % (net, net, pin))
        if forced:
            lines.append(force.format(net))
    for pos, net in enumerate(cc.latch_out_ids):
        lines.append("    a%d, b%d = S[%d]" % (net, net, pos))
        if forced:
            lines.append(force.format(net))

    def rails(ids):
        return ["a%d" % i for i in ids], ["b%d" % i for i in ids]

    for index, (opcode, in_ids, out_ids, fn) in enumerate(cc.ops):
        az, bz = rails(in_ids)
        oa, ob = "a%d" % out_ids[0], "b%d" % out_ids[0]
        if opcode in (OP_AND, OP_NAND):
            can0, can1 = " | ".join(az), " & ".join(bz)
            if opcode == OP_AND:
                lines.append("    %s = %s; %s = %s" % (oa, can0, ob, can1))
            else:
                lines.append("    %s = %s; %s = %s" % (oa, can1, ob, can0))
        elif opcode in (OP_OR, OP_NOR):
            can0, can1 = " & ".join(az), " | ".join(bz)
            if opcode == OP_OR:
                lines.append("    %s = %s; %s = %s" % (oa, can0, ob, can1))
            else:
                lines.append("    %s = %s; %s = %s" % (oa, can1, ob, can0))
        elif opcode in (OP_XOR, OP_XNOR):
            lines.append("    %s = %s; %s = %s" % (oa, az[0], ob, bz[0]))
            for a, b in zip(az[1:], bz[1:]):
                lines.append(
                    "    %s, %s = (%s & %s) | (%s & %s), (%s & %s) | (%s & %s)"
                    % (oa, ob, oa, a, ob, b, oa, b, ob, a)
                )
            if opcode == OP_XNOR:
                lines.append("    %s, %s = %s, %s" % (oa, ob, ob, oa))
        elif opcode == OP_NOT:
            lines.append("    %s = %s; %s = %s" % (oa, bz[0], ob, az[0]))
        elif opcode == OP_BUF:
            lines.append("    %s = %s; %s = %s" % (oa, az[0], ob, bz[0]))
        elif opcode == OP_MUX:
            (sa, w0a, w1a), (sb, w0b, w1b) = az, bz
            lines.append(
                "    %s = (%s & %s) | (%s & %s); %s = (%s & %s) | (%s & %s)"
                % (oa, sb, w1a, sa, w0a, ob, sb, w1b, sa, w0b)
            )
        elif opcode == OP_CONST0:
            lines.append("    %s = M; %s = 0" % (oa, ob))
        elif opcode == OP_CONST1:
            lines.append("    %s = 0; %s = M" % (oa, ob))
        elif opcode == OP_JUNC:
            for out in out_ids:
                lines.append("    a%d = %s; b%d = %s" % (out, az[0], out, bz[0]))
        else:  # OP_GENERIC
            helper = "_fn%d" % index
            env[helper] = fn
            lines.append(
                "    %s = _gt(%s, (%s), M)"
                % (
                    "".join("r%d_%d, " % (index, k) for k in range(len(out_ids))),
                    helper,
                    "".join("(a%d, b%d), " % (i, i) for i in in_ids),
                )
            )
            for k, out in enumerate(out_ids):
                lines.append("    a%d, b%d = r%d_%d" % (out, out, index, k))
        if forced:
            lines.extend(force.format(out) for out in out_ids)
    outs = "".join("(a%d, b%d), " % (i, i) for i in cc.output_ids)
    nxt = "".join("(a%d, b%d), " % (i, i) for i in cc.latch_in_ids)
    lines.append("    return (%s), (%s)" % (outs, nxt))
    return "\n".join(lines) + "\n", env


# ---------------------------------------------------------------------------
# The compiled circuit.
# ---------------------------------------------------------------------------


class CompiledCircuit:
    """A circuit lowered to a flat, dense-id evaluation program.

    Do not construct directly in normal use -- go through
    :func:`compile_circuit`, which caches the result on the circuit and
    participates in its mutation-invalidation contract.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.name = circuit.name
        nets = circuit.nets()
        self.net_names: Tuple[str, ...] = nets
        self.net_index: Dict[str, int] = {net: i for i, net in enumerate(nets)}
        self.num_nets = len(nets)

        index = self.net_index
        try:
            self.input_ids: Tuple[int, ...] = tuple(index[n] for n in circuit.inputs)
            self.latch_out_ids: Tuple[int, ...] = tuple(
                index[latch.data_out] for latch in circuit.latches
            )
            self.latch_in_ids: Tuple[int, ...] = tuple(
                index[latch.data_in] for latch in circuit.latches
            )
            self.output_ids: Tuple[int, ...] = tuple(index[n] for n in circuit.outputs)

            cells = circuit._cells  # noqa: SLF001 - lowering is a sim.core peer
            ops: List[Op] = []
            for cell_name in circuit.topological_cells():
                cell = cells[cell_name]
                fn = cell.function
                ops.append(
                    (
                        _FAMILY_TO_OP[fn.family],
                        tuple(index[n] for n in cell.inputs),
                        tuple(index[n] for n in cell.outputs),
                        fn,
                    )
                )
        except KeyError as exc:
            raise CircuitError(
                "cannot compile %s: net %s has no driver" % (circuit.name, exc)
            )
        self.ops: Tuple[Op, ...] = tuple(ops)
        self.num_inputs = len(self.input_ids)
        self.num_latches = len(self.latch_out_ids)
        self.num_outputs = len(self.output_ids)

        #: Structural identity of the program.  Two circuits with the
        #: same signature evaluate identically, so their generated step
        #: functions are interchangeable (the cell function itself only
        #: matters for GENERIC ops, whose callable is baked in).
        self.signature = (
            self.num_nets,
            self.input_ids,
            self.latch_out_ids,
            self.latch_in_ids,
            self.output_ids,
            tuple(
                (opcode, in_ids, out_ids, fn if opcode == OP_GENERIC else None)
                for opcode, in_ids, out_ids, fn in self.ops
            ),
        )
        self._fn_binary: Optional[Callable] = None
        self._fn_ternary: Optional[Callable] = None
        self._fn_binary_forced: Optional[Callable] = None
        self._fn_ternary_forced: Optional[Callable] = None

    # -- forcing -----------------------------------------------------------

    def net_id(self, net: str) -> int:
        """The dense id of *net*; :class:`CircuitError` if there is none."""
        try:
            return self.net_index[net]
        except KeyError:
            raise CircuitError("circuit %s has no net %r" % (self.name, net)) from None

    def binary_forcing(self, stuck: Mapping[int, Tuple[int, int]]) -> Forcing:
        """Operands of the forced binary step for per-lane stuck nets.

        *stuck* maps a net id to ``(zeros, ones)``, the lanes where the
        net is stuck at 0 and at 1.  The forced step computes
        ``v = (v | ones) & ~zeros`` right after the net is loaded or
        computed; a net missing from *stuck* costs one test of ``None``.
        """
        operands: List[Optional[Tuple[int, ...]]] = [None] * self.num_nets
        for net, (zeros, ones) in stuck.items():
            operands[net] = (ones, ~zeros)
        return tuple(operands)

    def ternary_forcing(self, stuck: Mapping[int, Tuple[int, int]]) -> Forcing:
        """Operands of the forced dual-rail step.

        *stuck* maps a net id to the rails ``(can0, can1)`` of its forced
        value over the forced lanes: a stuck-at-0 lane sets ``can0``, a
        stuck-at-1 lane ``can1``, an X lane both.  For stuck-at lanes
        ``s0``/``s1`` the forced step computes ``a = (a | s0) & ~s1`` and
        ``b = (b | s1) & ~s0``.
        """
        operands: List[Optional[Tuple[int, ...]]] = [None] * self.num_nets
        for net, (can0, can1) in stuck.items():
            operands[net] = (can0, ~(can1 & ~can0), can1, ~(can0 & ~can1))
        return tuple(operands)

    def forced_binary(
        self, overrides: Optional[Mapping[str, bool]], all_lanes: int
    ) -> Optional[Forcing]:
        """Lower a name-keyed stuck-at map, forced in every lane (None if empty)."""
        if not overrides:
            return None
        return self.binary_forcing(
            {
                self.net_id(net): (0, all_lanes) if v else (all_lanes, 0)
                for net, v in overrides.items()
            }
        )

    def forced_ternary(
        self, overrides: Optional[Mapping[str, T]], all_lanes: int
    ) -> Optional[Forcing]:
        """Lower a name-keyed ternary stuck-at map, forced in every lane."""
        if not overrides:
            return None
        return self.ternary_forcing(
            {
                self.net_id(net): tuple(all_lanes * bit for bit in _RAIL_OF_T[v])
                for net, v in overrides.items()
            }
        )

    # -- mask-level entry points ------------------------------------------

    def step_binary_masks(
        self,
        state_masks: Sequence[int],
        input_masks: Sequence[int],
        all_lanes: int,
        forced: Optional[Forcing] = None,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """One binary cycle over lane masks: ``(outputs, next_state)``.

        *forced* holds the operands of :meth:`binary_forcing` (or
        :meth:`forced_binary`), and selects the forced step function.
        """
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.compiled.binary.cycles"] = (
                counters.get("sim.compiled.binary.cycles", 0) + 1
            )
            counters["sim.compiled.binary.ops"] = (
                counters.get("sim.compiled.binary.ops", 0) + len(self.ops)
            )
            counters["sim.compiled.binary.lanes"] = (
                counters.get("sim.compiled.binary.lanes", 0) + all_lanes.bit_length()
            )
            if forced is not None:
                counters["sim.compiled.forced.cycles"] = (
                    counters.get("sim.compiled.forced.cycles", 0) + 1
                )
        if forced is not None:
            fn = self._fn_binary_forced
            if fn is None:
                fn = self._fn_binary_forced = _memoised_fn(self, "bf")
            return fn(state_masks, input_masks, all_lanes, forced)
        fn = self._fn_binary
        if fn is None:
            fn = self._fn_binary = _memoised_fn(self, "b")
        return fn(state_masks, input_masks, all_lanes)

    def step_ternary_masks(
        self,
        state_rails: Sequence[Tuple[int, int]],
        input_rails: Sequence[Tuple[int, int]],
        all_lanes: int,
        forced: Optional[Forcing] = None,
    ) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
        """One dual-rail ternary cycle over lane masks; *forced* holds
        the operands of :meth:`ternary_forcing` (or :meth:`forced_ternary`)."""
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.compiled.ternary.cycles"] = (
                counters.get("sim.compiled.ternary.cycles", 0) + 1
            )
            counters["sim.compiled.ternary.ops"] = (
                counters.get("sim.compiled.ternary.ops", 0) + len(self.ops)
            )
            counters["sim.compiled.ternary.lanes"] = (
                counters.get("sim.compiled.ternary.lanes", 0) + all_lanes.bit_length()
            )
            if forced is not None:
                counters["sim.compiled.forced.cycles"] = (
                    counters.get("sim.compiled.forced.cycles", 0) + 1
                )
        if forced is not None:
            fn = self._fn_ternary_forced
            if fn is None:
                fn = self._fn_ternary_forced = _memoised_fn(self, "tf")
            return fn(state_rails, input_rails, all_lanes, forced)
        fn = self._fn_ternary
        if fn is None:
            fn = self._fn_ternary = _memoised_fn(self, "t")
        return fn(state_rails, input_rails, all_lanes)

    # -- scalar entry points -----------------------------------------------

    def _check_arity(self, inputs: Sized, state: Sized) -> None:
        check_width(self, inputs)
        if len(state) != self.num_latches:
            raise ValueError(
                "circuit %s has %d latches, got state of length %d"
                % (self.name, self.num_latches, len(state))
            )

    def step_binary(
        self,
        state: Sequence[bool],
        inputs: Sequence[bool],
        overrides: Optional[Mapping[str, bool]] = None,
    ) -> Tuple[Tuple[bool, ...], Tuple[bool, ...]]:
        """One scalar Boolean cycle: ``(outputs, next_state)``."""
        self._check_arity(inputs, state)
        S = [1 if v else 0 for v in state]
        I = [1 if v else 0 for v in inputs]
        outs, nxt = self.step_binary_masks(S, I, 1, self.forced_binary(overrides, 1))
        return tuple(bool(v) for v in outs), tuple(bool(v) for v in nxt)

    def step_ternary(
        self,
        state: Sequence[T],
        inputs: Sequence[T],
        overrides: Optional[Mapping[str, T]] = None,
    ) -> Tuple[Tuple[T, ...], Tuple[T, ...]]:
        """One scalar conservative-ternary (CLS) cycle."""
        self._check_arity(inputs, state)
        S = [_RAIL_OF_T[v] for v in state]
        I = [_RAIL_OF_T[v] for v in inputs]
        outs, nxt = self.step_ternary_masks(S, I, 1, self.forced_ternary(overrides, 1))
        return (
            tuple(_T_OF_RAIL[r] for r in outs),
            tuple(_T_OF_RAIL[r] for r in nxt),
        )


def check_width(compiled: CompiledCircuit, vector: Sized) -> None:
    """Raise :class:`ValueError` unless *vector* has one value per input."""
    if len(vector) != compiled.num_inputs:
        raise ValueError(
            "circuit %s has %d inputs, got %d values"
            % (compiled.name, compiled.num_inputs, len(vector))
        )


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """The compiled program of *circuit*, cached on the circuit.

    The cache lives in ``circuit._compiled_cache``, right next to the
    topological-order cache, and is cleared by the same mutation hooks
    (:meth:`Circuit._invalidate_caches`) -- so a compiled program can
    never outlive the structure it was lowered from.
    """
    cached = circuit._compiled_cache  # noqa: SLF001 - by-design cache slot
    if isinstance(cached, CompiledCircuit):
        if _TRACE.enabled:
            _TRACE.incr("compile.cache_hits")
        return cached
    with _span("compile"):
        compiled = CompiledCircuit(circuit)
    _TRACE.incr("compile.circuits")
    _TRACE.incr("compile.ops", len(compiled.ops))
    circuit._compiled_cache = compiled  # noqa: SLF001
    return compiled
