"""The Leiserson-Saxe retiming graph model (Section 3.1, Figure 4).

A design is abstracted as a finite edge-weighted directed graph
``G = (V, E)``: vertices are the combinational elements plus a special
``HOST`` vertex standing for the environment; there is an edge for every
connection between elements, weighted by the number of latches along it;
the host connects to every primary input and is fed by every primary
output.  A *retiming* is an integer ``lag`` per vertex (host lag 0) such
that every retimed edge weight ``w_r(e) = w(e) + lag(v) - lag(u)`` is
non-negative.

The paper's Section 3.1 criticism is reproduced faithfully: the graph
does **not** record on which side of a fanout junction the latches sit,
so Figure 1's distinct designs D and C map to the *same* retiming graph
(our Figure 4 benchmark asserts exactly this).  For circuits in
single-fanout normal form the ambiguity disappears because junctions
are ordinary (multi-output) vertices.

This module builds retiming graphs from circuits, checks lag legality,
computes retimed weights, the total register count, and the
combinational clock period (unit gate delays by default, junctions and
buffers free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.circuit import Circuit

__all__ = [
    "HOST",
    "HOST_OUT",
    "HOST_VERTICES",
    "RetimingEdge",
    "RetimingGraph",
    "build_retiming_graph",
    "default_delay",
]

#: The host vertex is *split* into a source half (driving the primary
#: inputs) and a sink half (fed by the primary outputs).  A single host
#: vertex would put every combinational PI-to-PO path on a zero-weight
#: cycle through the environment, wrecking period computation; the
#: split is the standard remedy and changes nothing else, since both
#: halves are pinned to lag 0 (the paper's "host is required to have a
#: lag of 0").
HOST = "HOST"
HOST_OUT = "HOST'"
HOST_VERTICES = frozenset((HOST, HOST_OUT))


@dataclass(frozen=True)
class RetimingEdge:
    """One connection ``u -> v`` carrying *weight* latches.

    ``sink_pin`` disambiguates parallel edges (multiple connections
    between the same pair of vertices are common -- e.g. a 2-input AND
    fed twice by the same junction vertex).
    """

    u: str
    v: str
    weight: int
    sink_pin: int = 0

    def retimed_weight(self, lag: Mapping[str, int]) -> int:
        """``w(e) + lag(v) - lag(u)`` for the given lag assignment."""
        return self.weight + lag.get(self.v, 0) - lag.get(self.u, 0)


def default_delay(circuit: Circuit) -> Dict[str, int]:
    """Unit-delay model: every gate costs 1, junctions and buffers 0,
    the host 0."""
    delays: Dict[str, int] = {HOST: 0}
    for cell in circuit.cells:
        family = cell.function.name.rstrip("0123456789")
        delays[cell.name] = 0 if family in ("JUNC", "BUF") else 1
    return delays


class RetimingGraph:
    """An edge-weighted retiming graph with vertex delays.

    A graph is never mutated after construction, which lets the
    Leiserson-Saxe solvers memoise its W/D matrices on it.
    """

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Sequence[RetimingEdge],
        delays: Optional[Mapping[str, int]] = None,
        name: str = "G",
    ) -> None:
        self.name = name
        self.vertices: Tuple[str, ...] = tuple(vertices)
        for host in (HOST, HOST_OUT):
            if host not in self.vertices:
                self.vertices = (host,) + self.vertices
        self.edges: Tuple[RetimingEdge, ...] = tuple(edges)
        self.delays: Dict[str, int] = dict(delays) if delays else {v: 1 for v in self.vertices}
        self.delays.setdefault(HOST, 0)
        self.delays.setdefault(HOST_OUT, 0)
        index = {v: i for i, v in enumerate(self.vertices)}
        for edge in self.edges:
            if edge.u not in index or edge.v not in index:
                raise ValueError("edge %s references unknown vertex" % (edge,))
            if edge.weight < 0:
                raise ValueError("edge %s has negative weight" % (edge,))
        self._wd = None  # memoised by leiserson_saxe.compute_wd

    # -- basic queries -----------------------------------------------------

    @property
    def num_registers(self) -> int:
        """Total latches: the sum of edge weights."""
        return sum(edge.weight for edge in self.edges)

    def is_legal_lag(self, lag: Mapping[str, int]) -> bool:
        """Every retimed edge weight non-negative and host lags 0."""
        if lag.get(HOST, 0) != 0 or lag.get(HOST_OUT, 0) != 0:
            return False
        return all(edge.retimed_weight(lag) >= 0 for edge in self.edges)

    def retimed_weights(self, lag: Mapping[str, int]) -> Dict[RetimingEdge, int]:
        """Map each edge to its retimed weight (raises on illegality)."""
        result: Dict[RetimingEdge, int] = {}
        for edge in self.edges:
            w = edge.retimed_weight(lag)
            if w < 0:
                raise ValueError(
                    "lag assignment illegal: edge %s -> %s gets weight %d"
                    % (edge.u, edge.v, w)
                )
            result[edge] = w
        return result

    def registers_after(self, lag: Mapping[str, int]) -> int:
        """Total register count after retiming by *lag*.  Summed over
        ``edges``, not over :meth:`retimed_weights`' keys: two identical
        parallel edges are one key there."""
        weights = self.retimed_weights(lag)
        return sum(weights[edge] for edge in self.edges)

    # -- clock period -------------------------------------------------------

    def clock_period(self, weights: Optional[Mapping[RetimingEdge, int]] = None) -> int:
        """Maximum combinational path delay (sum of vertex delays along
        any zero-weight path), i.e. the minimum feasible clock period
        of the (possibly retimed) graph.

        Raises :class:`ValueError` on a zero-weight cycle (an illegal
        circuit: a combinational loop).
        """
        weight_of: Callable[[RetimingEdge], int] = (
            (lambda e: weights[e]) if weights is not None else (lambda e: e.weight)
        )
        # Longest path in the DAG of zero-weight edges (vertex-weighted).
        zero_succ: Dict[str, List[str]] = {v: [] for v in self.vertices}
        indegree: Dict[str, int] = {v: 0 for v in self.vertices}
        for edge in self.edges:
            if weight_of(edge) == 0:
                zero_succ[edge.u].append(edge.v)
                indegree[edge.v] += 1
        ready = [v for v in self.vertices if indegree[v] == 0]
        arrival: Dict[str, int] = {v: self.delays.get(v, 0) for v in self.vertices}
        processed = 0
        best = 0
        while ready:
            v = ready.pop()
            processed += 1
            best = max(best, arrival[v])
            for succ in zero_succ[v]:
                arrival[succ] = max(arrival[succ], arrival[v] + self.delays.get(succ, 0))
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if processed != len(self.vertices):
            raise ValueError("zero-weight cycle: combinational loop in %s" % self.name)
        return best

    # -- display -------------------------------------------------------------

    def pretty(self) -> str:
        lines = [
            "RetimingGraph %s: %d vertices, %d edges, %d registers, period %d"
            % (self.name, len(self.vertices), len(self.edges), self.num_registers, self.clock_period())
        ]
        for edge in self.edges:
            lines.append("  %s -%d-> %s" % (edge.u, edge.weight, edge.v))
        return "\n".join(lines)

    def canonical_form(self) -> Tuple:
        """A hashable normal form used to compare graphs for equality
        up to edge order (the Figure 4 demonstration compares the
        graphs of D and C this way)."""
        return (
            tuple(sorted(self.vertices)),
            tuple(sorted((e.u, e.v, e.weight) for e in self.edges)),
        )


def build_retiming_graph(
    circuit: Circuit,
    *,
    delays: Optional[Mapping[str, int]] = None,
    merge_junctions: bool = False,
) -> RetimingGraph:
    """Extract the Leiserson-Saxe retiming graph of *circuit*.

    One vertex per cell plus ``HOST``.  For every cell input pin, the
    driver is found by walking backwards through any chain of latches;
    the number of latches crossed becomes the edge weight.  Primary
    inputs come from the host; every primary output feeds the host.

    With ``merge_junctions=True``, junction cells are dissolved into
    their driver (treated as wires), reproducing the *classical* LS
    graph in which fanout is invisible -- this is the mode in which
    Figure 1's D and C collapse to the same graph (Figure 4).
    """
    junction_names = {cell.name for cell in circuit.junction_cells()} if merge_junctions else set()

    def walk_to_driver(net: str) -> Tuple[str, int]:
        """Follow latches (and dissolved junctions) back to the driving
        vertex; returns (vertex, latches crossed)."""
        crossed = 0
        current = net
        while True:
            driver = circuit.driver_of(current)
            if driver[0] == "input":
                return HOST, crossed
            if driver[0] == "latch":
                crossed += 1
                current = circuit.latch(driver[1]).data_in
                continue
            cell_name = driver[1]
            if cell_name in junction_names:
                current = circuit.cell(cell_name).inputs[0]
                continue
            return cell_name, crossed

    vertices = [HOST] + [
        cell.name for cell in circuit.cells if cell.name not in junction_names
    ]
    edges: List[RetimingEdge] = []
    for cell in circuit.cells:
        if cell.name in junction_names:
            continue
        for pin, net in enumerate(cell.inputs):
            u, weight = walk_to_driver(net)
            edges.append(RetimingEdge(u, cell.name, weight, sink_pin=pin))
    for index, net in enumerate(circuit.outputs):
        u, weight = walk_to_driver(net)
        edges.append(RetimingEdge(u, HOST_OUT, weight, sink_pin=index))

    delay_map = dict(delays) if delays is not None else default_delay(circuit)
    return RetimingGraph(vertices, edges, delay_map, name=circuit.name)
