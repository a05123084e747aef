"""Combinational cell functions: binary and conservative ternary semantics.

A *cell function* describes what one library cell computes, independent
of any particular instantiation in a netlist.  Every cell function
carries two evaluators:

``eval_binary(inputs) -> outputs``
    the ordinary Boolean semantics over tuples of ``bool``;

``eval_ternary(inputs) -> outputs``
    the *conservative* three-valued semantics used by the CLS
    (Section 5 of the paper).  For a single cell the conservative
    semantics is the exact ternary image of the binary function --
    conservativeness arises globally, because each cell forgets the
    correlations between the ``X`` values on its inputs (the paper's
    AND-of-complementary-X example).

The default ternary evaluator provided by :class:`CellFunction` computes
the exact per-cell image by enumerating the definite completions of the
input vector and taking the pointwise :func:`~repro.logic.ternary.meet`
of the resulting outputs.  Standard gates override this with O(n) Kleene
evaluators, which coincide with the exact per-cell image (a classical
fact, verified exhaustively by the test-suite).

The registry at the bottom of this module defines the cell library of
the paper's circuit model (Section 3.2): single-output gates, the
multi-output fanout junction ``JUNC``, and constant cells.  Constant
cells deserve a note: the paper's Section 5 assumes that *"if all inputs
of any combinational element are X's, then all outputs are X's"*, an
assumption a constant cell violates; :attr:`CellFunction.all_x_to_all_x`
records whether each cell satisfies it, and the retiming validity report
requires Corollary 5.3 only when every cell a move crossed does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from .ternary import (
    ONE,
    T,
    X,
    ZERO,
    definite_completions,
    from_bool,
    meet,
    t_and_all,
    t_mux,
    t_not,
    t_or_all,
    t_xor_all,
)

__all__ = [
    "CellFunction",
    "make_gate",
    "junction",
    "registry_names",
    "get_function",
    "AND",
    "OR",
    "NAND",
    "NOR",
    "XOR",
    "XNOR",
    "NOT",
    "BUF",
    "MUX",
    "CONST0",
    "CONST1",
]

BinaryEval = Callable[[Tuple[bool, ...]], Tuple[bool, ...]]
TernaryEval = Callable[[Tuple[T, ...]], Tuple[T, ...]]


@dataclass(frozen=True)
class CellFunction:
    """The behaviour of one combinational library cell.

    Parameters
    ----------
    name:
        Library name, e.g. ``"AND"`` or ``"JUNC3"``.
    n_inputs, n_outputs:
        Pin counts.  All cells here have fixed arity; variable-arity
        gates are materialised per arity by :func:`make_gate`.
    binary:
        The Boolean evaluator.
    ternary:
        Optional fast conservative ternary evaluator.  When omitted the
        exact per-cell ternary image is computed from ``binary`` by
        completion enumeration (exponential in the number of X inputs --
        fine for library cells, which are small).
    """

    name: str
    n_inputs: int
    n_outputs: int
    binary: BinaryEval
    ternary: Optional[TernaryEval] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_inputs < 0 or self.n_outputs < 1:
            raise ValueError(
                "cell %s must have >= 0 inputs and >= 1 output" % self.name
            )

    # -- evaluation ---------------------------------------------------

    def eval_binary(self, inputs: Sequence[bool]) -> Tuple[bool, ...]:
        """Evaluate the Boolean function on a definite input vector."""
        if len(inputs) != self.n_inputs:
            raise ValueError(
                "cell %s expects %d inputs, got %d"
                % (self.name, self.n_inputs, len(inputs))
            )
        outputs = self.binary(tuple(bool(v) for v in inputs))
        if len(outputs) != self.n_outputs:
            raise AssertionError(
                "cell %s produced %d outputs, declared %d"
                % (self.name, len(outputs), self.n_outputs)
            )
        return outputs

    def eval_ternary(self, inputs: Sequence[T]) -> Tuple[T, ...]:
        """Evaluate the conservative ternary function.

        Uses the registered fast evaluator when present, otherwise the
        exact per-cell image (meet over all definite completions).
        """
        if len(inputs) != self.n_inputs:
            raise ValueError(
                "cell %s expects %d inputs, got %d"
                % (self.name, self.n_inputs, len(inputs))
            )
        vector = tuple(inputs)
        if self.ternary is not None:
            outputs = self.ternary(vector)
            if len(outputs) != self.n_outputs:
                raise AssertionError(
                    "cell %s ternary evaluator produced %d outputs, declared %d"
                    % (self.name, len(outputs), self.n_outputs)
                )
            return outputs
        return self.exact_ternary_image(vector)

    def exact_ternary_image(self, inputs: Sequence[T]) -> Tuple[T, ...]:
        """Exact ternary image of this cell on *inputs*.

        An output is definite iff every definite completion of the input
        vector produces the same Boolean value there.  This is the gold
        standard against which fast ternary evaluators are tested.
        """
        acc: Optional[Tuple[T, ...]] = None
        for completion in definite_completions(tuple(inputs)):
            out = self.eval_binary(tuple(v is ONE for v in completion))
            out_t = tuple(from_bool(v) for v in out)
            acc = out_t if acc is None else tuple(meet(a, b) for a, b in zip(acc, out_t))
        assert acc is not None
        return acc

    # -- structural queries --------------------------------------------

    @property
    def family(self) -> str:
        """The library family this cell evaluates as.

        One of ``AND OR NAND NOR XOR XNOR NOT BUF MUX CONST0 CONST1
        JUNC`` -- or ``GENERIC`` for cells outside the standard library
        (or with non-standard pin counts), which evaluators must handle
        via :meth:`eval_binary` / :meth:`eval_ternary`.  This is the
        opcode source for :mod:`repro.sim.compiled` and the batched
        simulators; family classification is by library name, exactly
        the convention :func:`make_gate` / :func:`junction` establish.
        """
        head = self.name.rstrip("0123456789")
        if head in _GATE_SPECS and self.n_outputs == 1 and self.n_inputs >= 1:
            return head
        if head == "JUNC" and self.n_inputs == 1 and self.n_outputs >= 1:
            return "JUNC"
        if self.name == "NOT" and (self.n_inputs, self.n_outputs) == (1, 1):
            return "NOT"
        if self.name == "BUF" and (self.n_inputs, self.n_outputs) == (1, 1):
            return "BUF"
        if self.name == "MUX" and (self.n_inputs, self.n_outputs) == (3, 1):
            return "MUX"
        if head == "CONST" and (self.n_inputs, self.n_outputs) == (0, 1):
            return "CONST1" if self.name.endswith("1") else "CONST0"
        return "GENERIC"

    @property
    def is_multi_output(self) -> bool:
        """True for cells with more than one output pin."""
        return self.n_outputs > 1

    def output_image(self) -> frozenset:
        """The set of producible output vectors (as bool tuples).

        This is the object the justifiability definition (Section 3.2)
        quantifies over: the cell is justifiable iff the image is all of
        ``2**n_outputs``.
        """
        image = set()
        for bits in itertools.product((False, True), repeat=self.n_inputs):
            image.add(self.eval_binary(bits))
        return frozenset(image)

    @property
    def is_justifiable(self) -> bool:
        """True iff every output vector is produced by some input vector."""
        return len(self.output_image()) == 2 ** self.n_outputs

    @property
    def all_x_to_all_x(self) -> bool:
        """Does an all-X input vector map to an all-X output vector?

        Section 5 requires this of every cell for the CLS-invariance
        theorem; constant cells are the canonical violators.  Cells with
        zero inputs vacuously have an "all-X" input, so a constant cell
        fails the check.
        """
        out = self.eval_ternary((X,) * self.n_inputs)
        return all(v is X for v in out)


# ---------------------------------------------------------------------------
# Gate constructors.
# ---------------------------------------------------------------------------


def _bool_and(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (all(inputs),)


def _bool_or(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (any(inputs),)


def _bool_nand(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (not all(inputs),)


def _bool_nor(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (not any(inputs),)


def _bool_xor(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    acc = False
    for v in inputs:
        acc ^= v
    return (acc,)


def _bool_xnor(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    acc = True
    for v in inputs:
        acc ^= v
    return (acc,)


def _bool_not(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (not inputs[0],)


def _bool_buf(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    return (inputs[0],)


def _bool_mux(inputs: Tuple[bool, ...]) -> Tuple[bool, ...]:
    select, when_zero, when_one = inputs
    return (when_one if select else when_zero,)


_GATE_SPECS: Dict[str, Tuple[BinaryEval, TernaryEval]] = {
    "AND": (_bool_and, lambda v: (t_and_all(v),)),
    "OR": (_bool_or, lambda v: (t_or_all(v),)),
    "NAND": (_bool_nand, lambda v: (t_not(t_and_all(v)),)),
    "NOR": (_bool_nor, lambda v: (t_not(t_or_all(v)),)),
    "XOR": (_bool_xor, lambda v: (t_xor_all(v),)),
    "XNOR": (_bool_xnor, lambda v: (t_not(t_xor_all(v)),)),
}


def make_gate(kind: str, n_inputs: int) -> CellFunction:
    """Build a single-output gate function of the given kind and arity.

    ``kind`` is one of ``AND OR NAND NOR XOR XNOR NOT BUF MUX CONST0
    CONST1``.  ``NOT``/``BUF`` require arity 1, ``MUX`` arity 3
    (select, data0, data1), constants arity 0.  Results are cached in a
    registry so that equal gates are the same object.
    """
    kind = kind.upper()
    key = (kind, n_inputs)
    cached = _REGISTRY.get(key)
    if cached is not None:
        return cached

    if kind in _GATE_SPECS:
        if n_inputs < 1:
            raise ValueError("%s gate needs at least one input" % kind)
        binary, ternary = _GATE_SPECS[kind]
        fn = CellFunction(
            name="%s%d" % (kind, n_inputs) if n_inputs != 2 else kind,
            n_inputs=n_inputs,
            n_outputs=1,
            binary=binary,
            ternary=ternary,
        )
    elif kind == "NOT":
        if n_inputs != 1:
            raise ValueError("NOT gate must have exactly one input")
        fn = CellFunction("NOT", 1, 1, _bool_not, lambda v: (t_not(v[0]),))
    elif kind == "BUF":
        if n_inputs != 1:
            raise ValueError("BUF gate must have exactly one input")
        fn = CellFunction("BUF", 1, 1, _bool_buf, lambda v: (v[0],))
    elif kind == "MUX":
        if n_inputs != 3:
            raise ValueError("MUX gate must have exactly three inputs")
        fn = CellFunction("MUX", 3, 1, _bool_mux, lambda v: (t_mux(v[0], v[1], v[2]),))
    elif kind == "CONST0":
        if n_inputs != 0:
            raise ValueError("CONST0 has no inputs")
        fn = CellFunction("CONST0", 0, 1, lambda v: (False,), lambda v: (ZERO,))
    elif kind == "CONST1":
        if n_inputs != 0:
            raise ValueError("CONST1 has no inputs")
        fn = CellFunction("CONST1", 0, 1, lambda v: (True,), lambda v: (ONE,))
    else:
        raise ValueError("unknown gate kind %r" % (kind,))

    _REGISTRY[key] = fn
    return fn


def junction(fanout: int) -> CellFunction:
    """The k-way fanout junction ``JUNC`` (Figure 5 of the paper).

    One input, ``fanout`` equal outputs.  For ``fanout > 1`` only the
    all-equal output vectors are producible, so the cell is
    non-justifiable -- the root cause of retiming's unsafety.
    """
    if fanout < 1:
        raise ValueError("junction fanout must be >= 1")
    key = ("JUNC", fanout)
    cached = _REGISTRY.get(key)
    if cached is not None:
        return cached

    def binary(inputs: Tuple[bool, ...], _k: int = fanout) -> Tuple[bool, ...]:
        return (inputs[0],) * _k

    def ternary(inputs: Tuple[T, ...], _k: int = fanout) -> Tuple[T, ...]:
        return (inputs[0],) * _k

    fn = CellFunction("JUNC%d" % fanout, 1, fanout, binary, ternary)
    _REGISTRY[key] = fn
    return fn


_REGISTRY: Dict[Tuple[str, int], CellFunction] = {}


def registry_names() -> Tuple[str, ...]:
    """Names of all cell functions materialised so far."""
    return tuple(sorted(fn.name for fn in _REGISTRY.values()))


def get_function(name: str) -> CellFunction:
    """Look up a cell function by its library name (e.g. ``AND3``,
    ``JUNC2``, ``MUX``), materialising it on demand."""
    name = name.upper()
    for fn in _REGISTRY.values():
        if fn.name == name:
            return fn
    # Parse trailing arity, e.g. AND3 / JUNC2.
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    if head == "JUNC" and tail:
        return junction(int(tail))
    if head in ("CONST",):
        return make_gate(name, 0)
    if tail:
        return make_gate(head, int(tail))
    defaults = {"AND": 2, "OR": 2, "NAND": 2, "NOR": 2, "XOR": 2, "XNOR": 2,
                "NOT": 1, "BUF": 1, "MUX": 3, "CONST0": 0, "CONST1": 0}
    if head in defaults:
        return make_gate(head, defaults[head])
    raise ValueError("unknown cell function name %r" % (name,))


# Convenience singletons for the common 2-input / 1-input library cells.
AND = make_gate("AND", 2)
OR = make_gate("OR", 2)
NAND = make_gate("NAND", 2)
NOR = make_gate("NOR", 2)
XOR = make_gate("XOR", 2)
XNOR = make_gate("XNOR", 2)
NOT = make_gate("NOT", 1)
BUF = make_gate("BUF", 1)
MUX = make_gate("MUX", 3)
CONST0 = make_gate("CONST0", 0)
CONST1 = make_gate("CONST1", 0)
