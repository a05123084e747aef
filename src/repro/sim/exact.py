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
per net carries all ``2**n`` lanes, and the universal/existential
verdict per output pin is a single all-lanes comparison (all ones ->
``1``, all zeros -> ``0``, anything else -> ``X``).  The sweep is exact
up to :data:`DEFAULT_MAX_LATCHES` latches and falls back to random
state sampling beyond (sampling keeps the verdict sound for ``X`` but
may erroneously report a definite value; callers that need exactness
pass ``sample=None`` and accept the latch limit).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..logic.ternary import ONE, T, X, ZERO
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .compiled import check_width, column_to_mask, compile_circuit, mask_to_column
from .multi import all_states_array

__all__ = [
    "DEFAULT_MAX_LATCHES",
    "ExactSimulator",
    "exact_outputs",
    "is_initializing_sequence",
    "synchronized_state",
]

DEFAULT_MAX_LATCHES = 20

TernaryVec = Tuple[T, ...]


@lru_cache(maxsize=128)
def _exhaustive_state_masks(num_latches: int) -> Tuple[int, ...]:
    """Lane masks of the full ``2**n`` power-up sweep, per latch count.

    Lane ``i`` carries state ``i``; latch ``j`` takes bit ``n - 1 - j``
    of the index, matching :func:`all_states_array` row order.  The
    masks depend on ``n`` alone, so every exhaustive sweep over an
    ``n``-latch circuit shares one packed copy -- exact fault grading
    builds a fresh :class:`ExactSimulator` per fault and relies on it.
    """
    indices = np.arange(1 << num_latches, dtype=np.int64)
    return tuple(
        column_to_mask(((indices >> (num_latches - 1 - bit)) & 1).astype(bool))
        for bit in range(num_latches)
    )


class ExactSimulator:
    """Sweep power-up states to compute exact unknown-state outputs.

    Parameters
    ----------
    circuit:
        The circuit to analyse.
    max_latches:
        Guard for the exhaustive sweep; exceeding it raises unless
        *sample* is given.
    sample:
        If set, use this many uniformly random power-up states instead
        of all ``2**n`` (with *seed*); the result is then a sound
        under-approximation of disagreement (X never wrongly reported).
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
                raise ValueError(
                    "circuit %s has %d latches; exhaustive sweep capped at %d "
                    "(pass sample=... to subsample)"
                    % (circuit.name, circuit.num_latches, max_latches)
                )
        else:
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

    def _sweep(
        self,
        states: Optional[np.ndarray],
        input_sequence: Iterable[Sequence[bool]],
    ) -> Tuple[List[Tuple[int, ...]], Tuple[int, ...], int, int]:
        """Run all lanes through the compiled core, staying in mask form."""
        compiled = compile_circuit(self.circuit)
        if states is None and self.exhaustive:
            state_masks: Tuple[int, ...] = _exhaustive_state_masks(
                self.circuit.num_latches
            )
            batch = 1 << self.circuit.num_latches
        else:
            lanes = np.asarray(
                self.states if states is None else states, dtype=bool
            )
            batch = lanes.shape[0]
            state_masks = tuple(
                column_to_mask(lanes[:, j]) for j in range(lanes.shape[1])
            )
        all_lanes = (1 << batch) - 1
        forced = compiled.forced_binary(self.overrides, all_lanes)
        outputs_per_cycle: List[Tuple[int, ...]] = []
        with _span("sim.exact"):
            for vector in input_sequence:
                check_width(compiled, vector)
                input_masks = [all_lanes if bit else 0 for bit in vector]
                out_masks, state_masks = compiled.step_binary_masks(
                    state_masks, input_masks, all_lanes, forced
                )
                outputs_per_cycle.append(out_masks)
        if _TRACE.enabled:
            counters = _TRACE.counters
            counters["sim.exact.sweeps"] = counters.get("sim.exact.sweeps", 0) + 1
            counters["sim.exact.lanes"] = counters.get("sim.exact.lanes", 0) + batch
            counters["sim.exact.cycles"] = (
                counters.get("sim.exact.cycles", 0) + len(outputs_per_cycle)
            )
        return outputs_per_cycle, state_masks, all_lanes, batch

    def outputs(
        self, input_sequence: Iterable[Sequence[bool]], *, states: Optional[np.ndarray] = None
    ) -> Tuple[TernaryVec, ...]:
        """Exact three-valued output sequence for *input_sequence*.

        An optional explicit *states* array restricts the quantifier to
        a subset of power-up states -- the delayed-design analyses pass
        the reachable states of ``D^n`` here.
        """
        per_cycle, _, all_lanes, _ = self._sweep(states, input_sequence)
        return tuple(
            tuple(
                ONE if mask == all_lanes else (ZERO if mask == 0 else X)
                for mask in out_masks
            )
            for out_masks in per_cycle
        )

    def final_states(
        self, input_sequence: Iterable[Sequence[bool]], *, states: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The set of final states (as array rows, duplicates possible)."""
        _, final_masks, _, batch = self._sweep(states, input_sequence)
        if not final_masks:
            return np.zeros((batch, 0), dtype=bool)
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
    final = sim.final_states(input_sequence)
    if final.shape[0] == 0:
        return None
    first = final[0]
    if (final == first).all():
        return tuple(bool(v) for v in first)
    return None
