"""The reference interpreter: the test suite's one simulation oracle.

The product evaluates circuits only through the compile-once core of
:mod:`repro.sim.compiled`: generated step functions, a plain one and a
forced one per domain, the forced one serving every stuck-at override
and every packed fault-grading sweep.  This module checks that core
from outside.  It walks the netlist by name in topological order and
evaluates each cell only through its
:class:`~repro.logic.functions.CellFunction`
(:meth:`~repro.logic.functions.CellFunction.eval_binary` /
:meth:`~repro.logic.functions.CellFunction.eval_ternary`), never
through ``CompiledCircuit.ops`` or the generated code.

Binary evaluation is bit-parallel.  A net's value is a Python int
whose bit ``i`` is lane ``i``.  Each cell visits the rows of its truth
table that at least one lane selects, and ORs ``eval_binary(row)``
into exactly those lanes, so one call evaluates all ``2**L`` power-up
states of an ``L``-latch circuit.  With a single lane it is a plain
scalar interpreter.  Ternary evaluation runs one lane at a time.

Overrides follow the stuck-at contract of the product simulators: a
forced net holds its value whatever its driver computes, primary
inputs and latch outputs included.

The module also holds the retiming oracles: the W/D matrices by
all-pairs Floyd-Warshall (:func:`floyd_warshall_wd`); the textbook
Leiserson-Saxe min-area LP with a row for every pair the period
constrains (:func:`min_area_lp`), and a second LP over that LP's
optimal face that picks its greatest or least lag
(:func:`min_area_extreme_lag`); and the reader scan that
:meth:`Circuit.readers_of` replaced with an index (:func:`readers_by_scan`).

For the batched CLS check (:func:`repro.retime.validity.first_cls_difference`)
it holds the same question asked one sequence at a time, through scalar
:func:`~repro.sim.ternary_sim.cls_outputs` runs
(:func:`first_cls_difference_by_scalar`), and a mutant whose CLS
outputs differ from its circuit's wherever one output is definite
(:func:`with_output_inverted`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy

from repro.logic.functions import NOT
from repro.netlist.circuit import Circuit, Reader
from repro.retime.graph import HOST, HOST_OUT, RetimingGraph
from repro.retime.leiserson_saxe import WDMatrices, compute_wd, edge_arrays
from repro.sim.ternary_sim import cls_outputs

__all__ = [
    "exhaustive_masks",
    "first_cls_difference_by_scalar",
    "floyd_warshall_wd",
    "lane_mismatch",
    "min_area_extreme_lag",
    "min_area_lp",
    "pinned_vertices",
    "propagate",
    "propagate_masks",
    "readers_by_scan",
    "step",
    "step_masks",
    "with_output_inverted",
]


def _check_arity(circuit: Circuit, n_inputs: int, n_state: int) -> None:
    if n_inputs != len(circuit.inputs):
        raise ValueError(
            "circuit %s has %d inputs, got %d values"
            % (circuit.name, len(circuit.inputs), n_inputs)
        )
    if n_state != circuit.num_latches:
        raise ValueError(
            "circuit %s has %d latches, got state of length %d"
            % (circuit.name, circuit.num_latches, n_state)
        )


def _walk(circuit, input_values, state, overrides, evaluate: Callable) -> Dict:
    """Sources, then every cell in topological order, by net name."""
    values: Dict[str, object] = {}

    def write(net, value):
        values[net] = overrides.get(net, value)

    for net, value in zip(circuit.inputs, input_values):
        write(net, value)
    for latch, value in zip(circuit.latches, state):
        write(latch.data_out, value)
    for name in circuit.topological_cells():
        cell = circuit.cell(name)
        outs = evaluate(cell.function, [values[net] for net in cell.inputs])
        for net, value in zip(cell.outputs, outs):
            write(net, value)
    return values


def _eval_lanes(function, ins: Sequence[int], all_lanes: int) -> List[int]:
    """``function`` over lane masks, one ``eval_binary`` per selected row."""
    outs = [0] * function.n_outputs

    def visit(pin: int, selected: int, row: Tuple[bool, ...]) -> None:
        if not selected:
            return
        if pin == len(ins):
            for k, bit in enumerate(function.eval_binary(row)):
                if bit:
                    outs[k] |= selected
            return
        visit(pin + 1, selected & ~ins[pin], row + (False,))
        visit(pin + 1, selected & ins[pin], row + (True,))

    visit(0, all_lanes, ())
    return outs


def propagate_masks(
    circuit: Circuit,
    input_masks: Sequence[int],
    state_masks: Sequence[int],
    all_lanes: int,
    overrides: Optional[Mapping[str, bool]] = None,
) -> Dict[str, int]:
    """One binary cycle over lane masks: the complete net -> mask map.

    *all_lanes* has bit ``i`` set for every live lane; an overridden net
    is forced to 1 (or 0) in all of them.
    """
    _check_arity(circuit, len(input_masks), len(state_masks))
    forced = {net: all_lanes if v else 0 for net, v in (overrides or {}).items()}
    return _walk(
        circuit,
        input_masks,
        state_masks,
        forced,
        lambda fn, ins: _eval_lanes(fn, ins, all_lanes),
    )


def propagate(
    circuit: Circuit,
    input_values: Sequence,
    state: Sequence,
    *,
    ternary: bool,
    overrides: Optional[Mapping] = None,
) -> Dict:
    """One cycle of one lane: the complete net -> value map.

    Values are ``bool`` (``ternary=False``) or
    :class:`~repro.logic.ternary.T` (``ternary=True``), one per primary
    input in :attr:`Circuit.inputs` order and one per latch in
    :attr:`Circuit.latch_names` order.
    """
    if ternary:
        _check_arity(circuit, len(input_values), len(state))
        return _walk(
            circuit,
            input_values,
            state,
            overrides or {},
            lambda fn, ins: fn.eval_ternary(tuple(ins)),
        )
    masks = propagate_masks(
        circuit,
        [1 if v else 0 for v in input_values],
        [1 if v else 0 for v in state],
        1,
        overrides,
    )
    return {net: bool(mask) for net, mask in masks.items()}


def step(circuit: Circuit, state, inputs, *, ternary: bool, overrides=None):
    """One cycle of one lane: ``(outputs, next_state)``."""
    values = propagate(circuit, inputs, state, ternary=ternary, overrides=overrides)
    return (
        tuple(values[net] for net in circuit.outputs),
        tuple(values[latch.data_in] for latch in circuit.latches),
    )


def step_masks(circuit: Circuit, state_masks, input_masks, all_lanes: int):
    """One binary cycle over lane masks: ``(output masks, next-state masks)``."""
    values = propagate_masks(circuit, input_masks, state_masks, all_lanes)
    return (
        tuple(values[net] for net in circuit.outputs),
        tuple(values[latch.data_in] for latch in circuit.latches),
    )


def lane_mismatch(got: Sequence[int], expected: Sequence[int]) -> Optional[str]:
    """``None`` when two tuples of lane masks agree, else where they
    first differ (the masks are too long to print usefully)."""
    if len(got) != len(expected):
        return "%d masks, expected %d" % (len(got), len(expected))
    for pin, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            diff = a ^ b
            return "pin %d, lane %d" % (pin, (diff & -diff).bit_length() - 1)
    return None


def exhaustive_masks(n: int) -> Tuple[int, ...]:
    """Lane masks enumerating all ``2**n`` assignments of *n* variables.

    Lane ``i`` carries the binary expansion of ``i`` with variable 0 as
    the most significant bit -- the lane order of
    :func:`repro.sim.compiled.exhaustive_state_masks`.
    """
    total = 1 << n
    masks = []
    for var in range(n):
        half = 1 << (n - 1 - var)
        mask, width = ((1 << half) - 1) << half, 2 * half
        while width < total:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return tuple(masks)


# ---------------------------------------------------------------------------
# CLS: the first difference, one sequence at a time.
# ---------------------------------------------------------------------------


def first_cls_difference_by_scalar(a: Circuit, b: Circuit, sequences) -> Optional[Tuple[int, int]]:
    """The lowest sequence index whose CLS outputs from all-X differ on
    *a* and *b*, with its first differing cycle, or ``None``: one scalar
    :func:`~repro.sim.ternary_sim.cls_outputs` run per sequence."""
    for index, seq in enumerate(sequences):
        for cycle, (va, vb) in enumerate(zip(cls_outputs(a, seq), cls_outputs(b, seq))):
            if va != vb:
                return index, cycle
    return None


def with_output_inverted(circuit: Circuit, index: int = 0) -> Circuit:
    """A copy of *circuit* whose output *index* is read through a NOT.

    Its CLS outputs differ from *circuit*'s exactly at the cycles where
    that output is definite (NOT X is X)."""
    mutant = Circuit(circuit.name + "-inv%d" % index)
    for net in circuit.inputs:
        mutant.add_input(net)
    for cell in circuit.cells:
        mutant.add_cell(cell.name, cell.function, cell.inputs, cell.outputs)
    for latch in circuit.latches:
        mutant.add_latch(latch.name, latch.data_in, latch.data_out)
    for position, net in enumerate(circuit.outputs):
        if position == index:
            inverted = mutant.fresh_net(net + "_inv")
            mutant.add_cell(mutant.fresh_name("inv"), NOT, (net,), (inverted,))
            net = inverted
        mutant.add_output(net)
    return mutant


# ---------------------------------------------------------------------------
# Netlist: the reader scan.
# ---------------------------------------------------------------------------


def readers_by_scan(circuit: Circuit, net: str) -> Tuple[Reader, ...]:
    """All readers of *net* by scanning every cell pin, latch and
    output: cells in insertion order and pin order, then latches, then
    outputs -- the order :meth:`Circuit.readers_of` must keep."""
    readers: List[Reader] = []
    for cell in circuit.cells:
        for pin, in_net in enumerate(cell.inputs):
            if in_net == net:
                readers.append(("cell", cell.name, pin))
    for latch in circuit.latches:
        if latch.data_in == net:
            readers.append(("latch", latch.name))
    for index, out_net in enumerate(circuit.outputs):
        if out_net == net:
            readers.append(("output", index))
    return tuple(readers)


# ---------------------------------------------------------------------------
# W/D matrices: all-pairs Floyd-Warshall.
# ---------------------------------------------------------------------------


def floyd_warshall_wd(graph: RetimingGraph) -> WDMatrices:
    """All-pairs (W, D) by vectorised Floyd-Warshall, pivoting on every
    vertex.

    Each edge ``u -> v`` costs ``(w(e), -d(u))``, packed into one float
    ``w * base - d(u)`` with ``base`` above the total delay, exactly as
    :func:`~repro.retime.leiserson_saxe.compute_wd` packs it; the
    relaxation runs as |V| dense row+column broadcasts.  All quantities
    stay far below 2**53, so float64 arithmetic is exact.
    """
    n = len(graph.vertices)
    delays = numpy.array([graph.delays.get(v, 0) for v in graph.vertices], dtype=numpy.int64)
    base = float(delays.sum() + 1)
    tails, heads, weights = edge_arrays(graph)
    dist = numpy.full((n, n), numpy.inf)
    numpy.minimum.at(dist, (tails, heads), weights * base - delays[tails])
    for k in range(n):
        numpy.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    reachable = numpy.isfinite(dist)
    packed = numpy.where(reachable, dist, 0.0)
    w = numpy.ceil(packed / base).astype(numpy.int64)
    d = numpy.where(reachable, (w * base - packed).astype(numpy.int64) + delays, 0)
    return WDMatrices(w, d, reachable)


# ---------------------------------------------------------------------------
# Min-area retiming: the full Leiserson-Saxe LP.
# ---------------------------------------------------------------------------


def pinned_vertices(graph: RetimingGraph) -> Tuple[str, ...]:
    """The vertices whose lag min-area retiming fixes at 0: both hosts,
    and the first vertex, in ``graph.vertices`` order, of every weakly
    connected component that holds neither host (its objective and
    rows are shift-invariant)."""
    order = {v: i for i, v in enumerate(graph.vertices)}
    root = {v: v for v in graph.vertices}

    def find(v: str) -> str:
        while root[v] != v:
            v = root[v]
        return v

    for edge in graph.edges:
        a, b = sorted((find(edge.u), find(edge.v)), key=order.get)
        root[b] = a
    hosts = {find(HOST), find(HOST_OUT)}
    firsts = tuple(v for v in graph.vertices if root[v] == v and v not in hosts)
    return (HOST, HOST_OUT) + firsts


def _min_area_program(graph: RetimingGraph, period: Optional[int]):
    """The LP over the unpinned lags: objective, ``A_ub``, ``b_ub`` and
    the vertex of each column.  One row per edge and one per pair with
    ``D(u, v) > period``, with none left out."""
    from scipy.sparse import coo_matrix

    pinned = set(pinned_vertices(graph))
    free = [v for v in graph.vertices if v not in pinned]
    column = {v: i for i, v in enumerate(free)}
    rows = [(edge.u, edge.v, edge.weight) for edge in graph.edges]
    if period is not None:
        wd = compute_wd(graph)
        for i, j in zip(*(wd.reachable & (wd.d > period)).nonzero()):
            rows.append((graph.vertices[i], graph.vertices[j], int(wd.w[i, j]) - 1))
    objective = [0.0] * len(free)
    for edge in graph.edges:  # registers after = registers + sum lag(v) (in(v) - out(v))
        if edge.v in column:
            objective[column[edge.v]] += 1
        if edge.u in column:
            objective[column[edge.u]] -= 1
    entries, upper = [], []
    for u, v, bound in rows:  # lag(u) - lag(v) <= bound
        if u not in column and v not in column:
            if bound < 0:
                raise ValueError("period %r infeasible" % period)
            continue
        row = len(upper)
        if u in column:
            entries.append((row, column[u], 1.0))
        if v in column:
            entries.append((row, column[v], -1.0))
        upper.append(float(bound))
    r, c, x = zip(*entries)
    a_ub = coo_matrix((x, (r, c)), shape=(len(upper), len(free)))
    return objective, a_ub, upper, free


def _lag_of(graph: RetimingGraph, free, x) -> Dict[str, int]:
    lag = dict.fromkeys(graph.vertices, 0)
    for vertex, value in zip(free, x):
        lag[vertex] = int(round(value))
        assert abs(value - lag[vertex]) < 1e-6, (vertex, value)
    return lag


def min_area_lp(graph: RetimingGraph, period: Optional[int] = None) -> Tuple[int, Dict[str, int]]:
    """Min-area retiming as the full LP, solved by HiGHS: the optimal
    register count, and whichever optimal lag HiGHS returns."""
    from scipy.optimize import linprog

    objective, a_ub, upper, free = _min_area_program(graph, period)
    if not free:
        return graph.num_registers, dict.fromkeys(graph.vertices, 0)
    result = linprog(objective, A_ub=a_ub, b_ub=upper, bounds=(None, None), method="highs")
    assert result.success, result.message
    lag = _lag_of(graph, free, result.x)
    return graph.registers_after(lag), lag


def min_area_extreme_lag(
    graph: RetimingGraph, period: Optional[int], registers: int, *, greatest: bool
) -> Dict[str, int]:
    """The greatest (or least) lag among those of minimum register
    count *registers* at *period*: a second LP maximising (or
    minimising) the sum of the lags over the full LP's rows plus the
    row "registers after <= *registers*".  The optimal lags form a
    lattice, so the extreme sum picks out its top (or bottom)."""
    from scipy.optimize import linprog
    from scipy.sparse import vstack

    objective, a_ub, upper, free = _min_area_program(graph, period)
    if not free:
        return dict.fromkeys(graph.vertices, 0)
    result = linprog(
        [-1.0 if greatest else 1.0] * len(free),
        A_ub=vstack([a_ub, [objective]]),
        b_ub=upper + [float(registers - graph.num_registers)],
        bounds=(None, None),
        method="highs",
    )
    assert result.success, result.message
    lag = _lag_of(graph, free, result.x)
    assert graph.registers_after(lag) == registers
    return lag
