"""The paper's hypothetical "sufficiently powerful simulator".

Section 2.1 defines a simulator which, for a given input sequence,
outputs at each time step:

* ``1`` iff **all** power-up states output 1 at that step,
* ``0`` iff all power-up states output 0,
* ``X`` otherwise (two power-up states disagree).

This is exact (non-conservative) three-valued simulation with respect to
an unknown power-up state.  The paper shows it *can* distinguish a
retimed circuit from the original (``0·0·1·0`` vs ``0·X·X·X`` for
Figure 1's D and C), which is what makes the CLS result interesting.

The implementation sweeps every power-up state with the compiled
lane-parallel core (:mod:`repro.sim.compiled`): one integer lane mask
per net carries all ``2**n`` lanes, starting from the memoised
:func:`~repro.sim.compiled.exhaustive_state_masks`, and the
universal/existential verdict per output pin is a single all-lanes
comparison (all ones -> ``1``, all zeros -> ``0``, anything else ->
``X``).  :func:`all_states_array` lists the same states as ndarray
rows, for the ``states`` surface of :class:`ExactSimulator`.

A sweep costs ``2**n`` lanes per cycle only until the power-up states
merge.  Once an input prefix has driven every swept state into one
state (Figure 2's initializing sequences), the lanes stay equal --
inputs and stuck-at forcing are the same in every lane -- so the rest
of the sequence runs on one lane, and each output is that lane's
definite value.  The answer is the same as stepping every lane to the
end; only the work differs.

The exhaustive sweep is capped at :data:`DEFAULT_MAX_LATCHES` latches
(:class:`SweepTooLarge` beyond).  Library callers may pass ``sample=``
to sweep random power-up states instead; sampling keeps the verdict
sound for ``X`` but may erroneously report a definite value.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .compiled import (
    check_width,
    column_to_mask,
    compile_circuit,
    exhaustive_state_masks,
    mask_to_column,
)

__all__ = [
    "DEFAULT_MAX_LATCHES",
    "ExactSimulator",
    "SweepTooLarge",
    "all_states_array",
    "exact_outputs",
    "is_initializing_sequence",
    "synchronized_state",
]

DEFAULT_MAX_LATCHES = 20

TernaryVec = Tuple[T, ...]


class SweepTooLarge(ValueError):
    """An exhaustive power-up sweep over more latches than its cap."""


def all_states_array(num_latches: int) -> np.ndarray:
    """All ``2**n`` states as a boolean array of shape ``(2**n, n)``.

    Row ``i`` equals :func:`repro.sim.binary.state_from_int` of ``i``
    (latch 0 is the most significant bit): the lanes of
    :func:`~repro.sim.compiled.exhaustive_state_masks`, one per row.
    """
    if num_latches < 0:
        raise ValueError("negative latch count")
    count = 1 << num_latches
    columns = [mask_to_column(mask, count) for mask in exhaustive_state_masks(num_latches)]
    return np.array(columns, dtype=bool).reshape(num_latches, count).T


def _one_state(state_masks: Sequence[int], lanes: int) -> bool:
    """Do all *lanes* hold one state (each latch all-0 or all-1)?"""
    return all(mask == 0 or mask == lanes for mask in state_masks)


class ExactSimulator:
    """Sweep power-up states to compute exact unknown-state outputs.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    max_latches:
        Guard for the exhaustive sweep; exceeding it raises
        :class:`SweepTooLarge` unless *sample* is given.
    sample:
        If set, use this many (at least one) uniformly random power-up
        states instead of all ``2**n`` (with *seed*); the result is then
        a sound under-approximation of disagreement (X never wrongly
        reported).
    overrides:
        Optional stuck-at forcing (net -> bool), for fault analyses.
    """

    def __init__(
        self,
        circuit: Circuit,
        *,
        max_latches: int = DEFAULT_MAX_LATCHES,
        sample: Optional[int] = None,
        seed: int = 0,
        overrides=None,
    ) -> None:
        self.circuit = circuit
        self.exhaustive = sample is None
        self._states: Optional[np.ndarray] = None
        if self.exhaustive:
            if circuit.num_latches > max_latches:
                raise SweepTooLarge(
                    "circuit %s has %d latches; the exact power-up sweep is "
                    "capped at %d" % (circuit.name, circuit.num_latches, max_latches)
                )
        else:
            if sample < 1:
                raise ValueError("sample must be at least 1, got %d" % sample)
            rng = np.random.default_rng(seed)
            self._states = rng.integers(
                0, 2, size=(int(sample), circuit.num_latches)
            ).astype(bool)
        self.overrides = dict(overrides) if overrides else {}

    @property
    def states(self) -> np.ndarray:
        """The swept power-up states, one row per lane."""
        if self._states is None:
            self._states = all_states_array(self.circuit.num_latches)
        return self._states

    def _initial_masks(self, states: Optional[np.ndarray]) -> Tuple[Tuple[int, ...], int]:
        """The power-up lane masks and their count; an explicit *states*
        array must have at least one row and one column per latch."""
        num_latches = self.circuit.num_latches
        if states is None and self.exhaustive:
            return exhaustive_state_masks(num_latches), 1 << num_latches
        rows = np.asarray(self.states if states is None else states, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != num_latches:
            raise ValueError(
                "circuit %s has %d latches, got power-up states of shape %s"
                % (self.circuit.name, num_latches, rows.shape)
            )
        if rows.shape[0] == 0:
            raise ValueError(
                "circuit %s: an exact sweep needs at least one power-up state"
                % self.circuit.name
            )
        masks = tuple(column_to_mask(rows[:, j]) for j in range(num_latches))
        return masks, rows.shape[0]

    def _sweep(
        self,
        states: Optional[np.ndarray],
        input_sequence: Iterable[Sequence[bool]],
    ) -> Tuple[Tuple[TernaryVec, ...], Tuple[int, ...], int, int]:
        """Run every swept state through the compiled core in mask form,
        on one lane from the first cycle at which all of them agree.

        Returns the exact outputs, the final state masks, the lanes they
        span (``1`` exactly when the swept states have merged into one)
        and the number of states swept.
        """
        compiled = compile_circuit(self.circuit)
        state_masks, batch = self._initial_masks(states)
        lanes = (1 << batch) - 1
        forced = compiled.forced_binary(self.overrides, lanes)
        outputs: List[TernaryVec] = []
        vectors = iter(input_sequence)
        with _span("sim.exact"):
            if not _one_state(state_masks, lanes):
                for vector in vectors:
                    check_width(compiled, vector)
                    out_masks, state_masks = compiled.step_binary_masks(
                        state_masks, [lanes if bit else 0 for bit in vector], lanes, forced
                    )
                    outputs.append(
                        tuple(
                            ONE if mask == lanes else (ZERO if mask == 0 else X)
                            for mask in out_masks
                        )
                    )
                    if _one_state(state_masks, lanes):
                        break
            wide_cycles = len(outputs)
            if _one_state(state_masks, lanes):
                # Every lane holds one state, and inputs and forcing are
                # the same in every lane, so the lanes stay equal: one
                # lane, fed each Boolean vector as its masks, finishes.
                lanes = 1
                state_masks = tuple(1 if mask else 0 for mask in state_masks)
                forced = compiled.forced_binary(self.overrides, 1)
                for vector in vectors:
                    check_width(compiled, vector)
                    out_masks, state_masks = compiled.step_binary_masks(
                        state_masks, vector, 1, forced
                    )
                    outputs.append(tuple([ONE if mask else ZERO for mask in out_masks]))
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.exact.sweeps"] = counters.get("sim.exact.sweeps", 0) + 1
            counters["sim.exact.lanes"] = counters.get("sim.exact.lanes", 0) + batch
            counters["sim.exact.cycles"] = (
                counters.get("sim.exact.cycles", 0) + len(outputs)
            )
            counters["sim.exact.synchronized_cycles"] = (
                counters.get("sim.exact.synchronized_cycles", 0)
                + len(outputs)
                - wide_cycles
            )
        return tuple(outputs), tuple(state_masks), lanes, batch

    def outputs(
        self, input_sequence: Iterable[Sequence[bool]], *, states: Optional[np.ndarray] = None
    ) -> Tuple[TernaryVec, ...]:
        """Exact three-valued output sequence for *input_sequence*.

        An optional explicit *states* array restricts the quantifier to
        a subset of power-up states -- the delayed-design analyses pass
        the reachable states of ``D^n`` here.
        """
        return self._sweep(states, input_sequence)[0]

    def final_states(
        self, input_sequence: Iterable[Sequence[bool]], *, states: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The final state of each swept power-up state, one row per
        state (duplicates possible; a synchronized sweep repeats its
        one state)."""
        _, final_masks, lanes, batch = self._sweep(states, input_sequence)
        if lanes == 1:
            return np.tile(np.array(final_masks, dtype=bool), (batch, 1))
        return np.stack([mask_to_column(mask, batch) for mask in final_masks], axis=1)


def exact_outputs(
    circuit: Circuit,
    input_sequence: Iterable[Sequence[bool]],
    *,
    max_latches: int = DEFAULT_MAX_LATCHES,
    sample: Optional[int] = None,
    seed: int = 0,
) -> Tuple[TernaryVec, ...]:
    """Convenience wrapper: exact unknown-power-up output sequence.

    >>> from repro.bench.paper_circuits import figure1_design_d
    >>> from repro.logic.ternary import format_ternary_sequence
    >>> seq = [(False,), (True,), (True,), (True,)]
    >>> outs = exact_outputs(figure1_design_d(), seq)
    >>> format_ternary_sequence(v[0] for v in outs)
    '0·0·1·0'
    """
    sim = ExactSimulator(circuit, max_latches=max_latches, sample=sample, seed=seed)
    return sim.outputs(input_sequence)


def is_initializing_sequence(
    circuit: Circuit,
    input_sequence: Iterable[Sequence[bool]],
    *,
    max_latches: int = DEFAULT_MAX_LATCHES,
) -> bool:
    """Does *input_sequence* drive every power-up state to one state?

    This is the classical notion of an initializing (synchronizing /
    reset) sequence: Figure 2 of the paper shows design D initialised by
    the length-1 sequence ``0`` while the retimed C is not.
    """
    return synchronized_state(circuit, input_sequence, max_latches=max_latches) is not None


def synchronized_state(
    circuit: Circuit,
    input_sequence: Iterable[Sequence[bool]],
    *,
    max_latches: int = DEFAULT_MAX_LATCHES,
) -> Optional[Tuple[bool, ...]]:
    """The unique state reached from all power-up states, or ``None``.

    Returns the state tuple if *input_sequence* initialises the circuit,
    ``None`` if at least two power-up states end up in different states.
    """
    sim = ExactSimulator(circuit, max_latches=max_latches)
    _, final_masks, lanes, _ = sim._sweep(None, input_sequence)  # noqa: SLF001
    return tuple(bool(mask) for mask in final_masks) if lanes == 1 else None
