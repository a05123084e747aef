"""The conservative three-valued logic simulator (CLS) of Section 5.

The paper defines the CLS as a three-valued simulator over ``{0, 1, X}``
that "performs only local propagation of the X values (0·X = 0 but
1·X = X)" and "begins operation with all latches in the X state".  The
key theorem (Corollary 5.3) is that such a simulator **cannot
distinguish** a circuit from any retiming of it.

Local propagation means: each cell is evaluated with its own
(per-cell exact) ternary function, but correlations between X values on
different nets are forgotten.  Globally this loses information -- the
paper's example is an AND fed by an X and its complement: the true
output is 0, the CLS reports X.  That lost information is "precisely the
same information lost by moving a latch forward across an unjustifiable
element", which is why the invariance theorem holds.

Inputs may themselves be ternary (the theorems quantify over sequences
of three-valued input vectors); :func:`cls_outputs` is the convenience
entry point used by the benchmarks.  Each cycle runs on the dual-rail
program of :mod:`repro.sim.compiled`; the retiming validity checker
(:func:`repro.retime.validity.first_cls_difference`) steps the same
program over whole sequence batches, one lane per sequence.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from ..logic.ternary import T, TernaryLike, X, to_ternary
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from .compiled import compile_circuit
from .core import SimulationTrace

__all__ = ["TernarySimulator", "all_x_state", "cls_outputs", "cls_resets", "TernaryVec"]

TernaryVec = Tuple[T, ...]


class TernarySimulator:
    """Conservative three-valued cycle simulation.

    Parameters
    ----------
    circuit:
        The circuit to simulate.
    overrides:
        Optional stuck-at forcing (net -> :class:`T`), used by the
        three-valued fault analyses of Section 4's testing discussion.

    Every cycle evaluates through the dual-rail flat program of
    :mod:`repro.sim.compiled`.
    """

    def __init__(
        self, circuit: Circuit, overrides: Optional[Mapping[str, T]] = None
    ) -> None:
        self.circuit = circuit
        self.overrides = dict(overrides) if overrides else {}

    def step(
        self, state: Sequence[TernaryLike], inputs: Sequence[TernaryLike]
    ) -> Tuple[TernaryVec, TernaryVec]:
        """One clock cycle: returns ``(outputs, next_state)``."""
        in_vec = tuple(to_ternary(v) for v in inputs)
        st_vec = tuple(to_ternary(v) for v in state)
        return compile_circuit(self.circuit).step_ternary(
            st_vec, in_vec, overrides=self.overrides or None
        )

    def run(
        self,
        state: Sequence[TernaryLike],
        input_sequence: Iterable[Sequence[TernaryLike]],
    ) -> SimulationTrace:
        """Simulate the whole *input_sequence* from *state*."""
        trace: SimulationTrace = SimulationTrace()
        current = tuple(to_ternary(v) for v in state)
        trace.states.append(current)
        for raw in input_sequence:
            vector = tuple(to_ternary(v) for v in raw)
            outputs, current = self.step(current, vector)
            trace.inputs.append(vector)
            trace.outputs.append(outputs)
            trace.states.append(current)
        return trace

    def run_from_unknown(
        self, input_sequence: Iterable[Sequence[TernaryLike]]
    ) -> SimulationTrace:
        """Simulate from the all-X power-up state -- the CLS convention."""
        if _TRACE.enabled:
            _TRACE.incr("sim.cls.runs")
        return self.run(all_x_state(self.circuit), input_sequence)


def all_x_state(circuit: Circuit) -> TernaryVec:
    """The all-X (fully unknown) power-up state of *circuit*."""
    return (X,) * circuit.num_latches


def cls_outputs(
    circuit: Circuit, input_sequence: Iterable[Sequence[TernaryLike]]
) -> Tuple[TernaryVec, ...]:
    """CLS output sequence of *circuit* from the all-X state.

    This is the quantity Corollary 5.3 proves invariant under retiming:
    ``cls_outputs(C, pi) == cls_outputs(retime(C), pi)`` for every input
    sequence ``pi``.
    """
    sim = TernarySimulator(circuit)
    return tuple(sim.run_from_unknown(input_sequence).outputs)


def cls_resets(
    circuit: Circuit, input_sequence: Iterable[Sequence[TernaryLike]]
) -> bool:
    """Does *input_sequence* reset the circuit according to the CLS?

    A sequence resets the design (in the three-valued sense of
    Corollary 5.3's last sentence) when after applying it from the all-X
    state every latch holds a definite value.
    """
    sim = TernarySimulator(circuit)
    trace = sim.run_from_unknown(input_sequence)
    return all(v is not X for v in trace.final_state)
