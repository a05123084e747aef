"""Miter constructors: C-vs-D unrolled k frames into one CNF.

All three miters share the shape "unroll both machines over common
frame boundaries, compare outputs, assert a mismatch pattern"; they
differ in which side of the paper's quantifiers becomes copies and
which becomes free variables:

* :class:`SafeReplacementMiter` -- refutes ``C ≼ D`` at word length
  ``frames``: C runs once from a **free** power-up state on **free**
  inputs; D runs once per power-up state (the ``∃ d0`` of safe
  replacement turns into a finite conjunction: *every* copy must
  mismatch somewhere along the word).  SAT models decode to the
  paper's minimal-length violation strings when the driver deepens
  ``frames`` one at a time.
* :class:`ImplicationMiter` -- refutes ``Cᵏ ⊑ D``: a shared k-frame
  warm-up drives C's free power-up state to an arbitrary k-step
  successor c0 (Prop 4.2's delayed design), then per D power-up state
  an **independent** input word distinguishes c0 from it.  Because
  state equivalence of machines with ``N_C`` and ``N_D`` states is
  settled by words of length ``N_C + N_D - 1`` (the joint partition
  refinement depth), UNSAT at that bound *proves* containment.
* :class:`CLSMiter` -- hunts for a ternary word on which the two
  conservative (CLS) simulations, both started all-X, produce
  different output vectors at some frame.  This one genuinely uses the
  second rail: inputs are free three-valued nets.

Each miter records the variable roles it allocated so the engine can
decode witnesses from models and the DIMACS export can document its
variables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic.ternary import T
from ..netlist.circuit import Circuit
from ..netlist.validate import check_interfaces
from .cnf import CNF
from .encode import CircuitEncoder, Rails, decode_rails, tseitin_or, tseitin_xor

__all__ = ["SafeReplacementMiter", "ImplicationMiter", "CLSMiter"]


def _int_bits(value: int, width: int) -> List[bool]:
    """MSB-first bit vector -- the STG state/symbol convention
    (latch 0 / pin 0 is the most significant bit)."""
    return [bool((value >> (width - 1 - i)) & 1) for i in range(width)]


def bits_to_int(bits: List[bool]) -> int:
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


class _MiterBase:
    """Shared plumbing: the CNF, both encoders, witness decode helpers."""

    kind = "miter"

    def __init__(self, c: Circuit, d: Circuit, frames: int) -> None:
        check_interfaces(c, d)
        if frames < 1:
            raise ValueError("a miter needs at least one frame")
        self.c_circuit = c
        self.d_circuit = d
        self.frames = frames
        self.cnf = CNF()
        self.enc_c = CircuitEncoder(self.cnf, c)
        self.enc_d = CircuitEncoder(self.cnf, d)
        self.true_lit = self.cnf.true_lit()
        self.num_inputs = len(c.inputs)
        self.num_outputs = len(c.outputs)

    def _mismatch(self, out_c: List[Rails], out_d: List[Rails]) -> int:
        """A literal: "these two definite output vectors differ"."""
        diffs = [
            tseitin_xor(self.cnf, oc[1], od[1], self.true_lit)
            for oc, od in zip(out_c, out_d)
        ]
        return tseitin_or(self.cnf, diffs, self.true_lit)

    def _rail_mismatch(self, out_c: List[Rails], out_d: List[Rails]) -> int:
        """A literal: "these two ternary output vectors differ" (either
        rail disagrees on some pin)."""
        diffs: List[int] = []
        for oc, od in zip(out_c, out_d):
            diffs.append(tseitin_xor(self.cnf, oc[0], od[0], self.true_lit))
            diffs.append(tseitin_xor(self.cnf, oc[1], od[1], self.true_lit))
        return tseitin_or(self.cnf, diffs, self.true_lit)

    def _decode_bits(self, model: Dict[int, bool], vars_: List[int]) -> List[bool]:
        return [model[v] for v in vars_]

    def _decode_vector(self, model: Dict[int, bool], rails: List[Rails]) -> Tuple[T, ...]:
        return tuple(decode_rails(model, pair, self.true_lit) for pair in rails)


class SafeReplacementMiter(_MiterBase):
    """Is there a length-``frames`` input word C can answer in a way no
    D power-up state can?  SAT = a ``C ⋠ D`` witness of that length."""

    kind = "safe-replacement"

    def __init__(self, c: Circuit, d: Circuit, frames: int) -> None:
        super().__init__(c, d, frames)
        cnf = self.cnf
        self.c_init_vars, c_state = self.enc_c.new_binary_rails(c.num_latches)
        self.input_vars: List[List[int]] = []
        input_rails: List[List[Rails]] = []
        for _ in range(frames):
            vars_, rails = self.enc_c.new_binary_rails(self.num_inputs)
            self.input_vars.append(vars_)
            input_rails.append(rails)
        self.c_output_rails: List[List[Rails]] = []
        for t in range(frames):
            outputs, c_state = self.enc_c.encode_frame(c_state, input_rails[t])
            self.c_output_rails.append(outputs)
        # One D copy per power-up state; each must mismatch somewhere.
        for d0 in range(1 << d.num_latches):
            d_state = self.enc_d.constant_rails(_int_bits(d0, d.num_latches))
            mismatches: List[int] = []
            for t in range(frames):
                outputs, d_state = self.enc_d.encode_frame(d_state, input_rails[t])
                mismatches.append(self._mismatch(self.c_output_rails[t], outputs))
            cnf.add(tseitin_or(cnf, mismatches, self.true_lit))

    def decode(
        self, model: Dict[int, bool]
    ) -> Tuple[int, Tuple[int, ...], Tuple[int, ...], List[List[bool]], List[List[bool]]]:
        """(c_state, input symbols, output symbols, input bits, output bits)."""
        c_state = bits_to_int(self._decode_bits(model, self.c_init_vars))
        input_bits = [self._decode_bits(model, vars_) for vars_ in self.input_vars]
        output_bits = [
            [v == 1 for v in self._decode_vector(model, rails)]
            for rails in self.c_output_rails
        ]
        symbols = tuple(bits_to_int(bits) for bits in input_bits)
        outputs = tuple(bits_to_int(bits) for bits in output_bits)
        return c_state, symbols, outputs, input_bits, output_bits


class ImplicationMiter(_MiterBase):
    """Is some k-step successor of a C power-up state inequivalent to
    **every** D power-up state, with distinguishing words of length at
    most ``frames``?  SAT = a ``Cᵏ ⊑ D`` refutation."""

    kind = "implication"

    def __init__(self, c: Circuit, d: Circuit, frames: int, *, warmup: int = 0) -> None:
        super().__init__(c, d, frames)
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        self.warmup = warmup
        cnf = self.cnf
        self.c_init_vars, c0_state = self.enc_c.new_binary_rails(c.num_latches)
        self.warmup_input_vars: List[List[int]] = []
        for _ in range(warmup):
            vars_, rails = self.enc_c.new_binary_rails(self.num_inputs)
            self.warmup_input_vars.append(vars_)
            _, c0_state = self.enc_c.encode_frame(c0_state, rails)
        self.c0_rails = c0_state
        # Per D power-up state: an independent distinguishing word.
        self.pair_input_vars: List[List[List[int]]] = []
        self.pair_c_output_rails: List[List[List[Rails]]] = []
        self.pair_d_output_rails: List[List[List[Rails]]] = []
        for d0 in range(1 << d.num_latches):
            input_vars: List[List[int]] = []
            input_rails: List[List[Rails]] = []
            for _ in range(frames):
                vars_, rails = self.enc_c.new_binary_rails(self.num_inputs)
                input_vars.append(vars_)
                input_rails.append(rails)
            c_state = c0_state
            d_state = self.enc_d.constant_rails(_int_bits(d0, d.num_latches))
            c_outs: List[List[Rails]] = []
            d_outs: List[List[Rails]] = []
            mismatches: List[int] = []
            for t in range(frames):
                oc, c_state = self.enc_c.encode_frame(c_state, input_rails[t])
                od, d_state = self.enc_d.encode_frame(d_state, input_rails[t])
                c_outs.append(oc)
                d_outs.append(od)
                mismatches.append(self._mismatch(oc, od))
            cnf.add(tseitin_or(cnf, mismatches, self.true_lit))
            self.pair_input_vars.append(input_vars)
            self.pair_c_output_rails.append(c_outs)
            self.pair_d_output_rails.append(d_outs)

    def decode(self, model: Dict[int, bool]) -> Tuple[int, int, List[dict]]:
        """(c power-up state, c0 after warm-up, per-D-state experiments)."""
        c_init = bits_to_int(self._decode_bits(model, self.c_init_vars))
        c0_bits = [
            v == 1 for v in self._decode_vector(model, self.c0_rails)
        ]
        pairs: List[dict] = []
        for d0, input_vars in enumerate(self.pair_input_vars):
            inputs = [
                tuple(self._decode_bits(model, vars_)) for vars_ in input_vars
            ]
            c_outputs = [
                tuple(v == 1 for v in self._decode_vector(model, rails))
                for rails in self.pair_c_output_rails[d0]
            ]
            d_outputs = [
                tuple(v == 1 for v in self._decode_vector(model, rails))
                for rails in self.pair_d_output_rails[d0]
            ]
            pairs.append(
                {
                    "d_state": d0,
                    "inputs": inputs,
                    "c_outputs": c_outputs,
                    "d_outputs": d_outputs,
                }
            )
        return c_init, bits_to_int(c0_bits), pairs


class CLSMiter(_MiterBase):
    """Is there a ternary input word (both machines started all-X) on
    which the CLS output traces differ within ``frames`` cycles?"""

    kind = "cls"

    def __init__(self, c: Circuit, d: Circuit, frames: int) -> None:
        super().__init__(c, d, frames)
        cnf = self.cnf
        self.input_rails: List[List[Rails]] = [
            self.enc_c.new_ternary_rails(self.num_inputs) for _ in range(frames)
        ]
        c_state = self.enc_c.all_x_rails(c.num_latches)
        d_state = self.enc_d.all_x_rails(d.num_latches)
        self.c_output_rails: List[List[Rails]] = []
        self.d_output_rails: List[List[Rails]] = []
        mismatches: List[int] = []
        for t in range(frames):
            oc, c_state = self.enc_c.encode_frame(c_state, self.input_rails[t])
            od, d_state = self.enc_d.encode_frame(d_state, self.input_rails[t])
            self.c_output_rails.append(oc)
            self.d_output_rails.append(od)
            mismatches.append(self._rail_mismatch(oc, od))
        cnf.add(tseitin_or(cnf, mismatches, self.true_lit))

    def decode(
        self, model: Dict[int, bool]
    ) -> Tuple[List[Tuple[T, ...]], List[Tuple[T, ...]], List[Tuple[T, ...]], Optional[int]]:
        """(inputs, c outputs, d outputs, first differing cycle)."""
        inputs = [self._decode_vector(model, rails) for rails in self.input_rails]
        c_outputs = [self._decode_vector(model, rails) for rails in self.c_output_rails]
        d_outputs = [self._decode_vector(model, rails) for rails in self.d_output_rails]
        first = None
        for t, (vc, vd) in enumerate(zip(c_outputs, d_outputs)):
            if vc != vd:
                first = t
                break
        return inputs, c_outputs, d_outputs, first
