"""Structural bounds on retiming delay (Section 4's closing remark).

After Theorem 4.5 the paper notes:

    "the maximum number of forward retiming moves across any gate can
     be bounded by the maximum number of registers in any simple cycle
     in the circuit", where cycles may pass from the primary outputs
     through the host to the primary inputs.

This module computes that bound on the Leiserson-Saxe retiming graph:
fuse the two host halves back into the single host vertex of the
classical model (so PO -> host -> PI paths close cycles, per the
paper's footnote 4) and maximise the edge-weight sum over simple
cycles.  The cycles are node-simple: parallel edges between two
vertices make one hop, weighted by the heaviest of them.  They are
enumerated with Johnson's algorithm, whose time is linear in the
number of cycles found; that number is exponential in general, so
:data:`MAX_CYCLES` guards the search.

Consequence made checkable: for any retiming realised by
:func:`repro.retime.apply.lag_to_moves`, the session's Theorem 4.5 `k`
never exceeds this structural bound -- a property the test-suite
verifies on random circuits.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..netlist.circuit import Circuit
from ..retime.graph import HOST, HOST_OUT, RetimingGraph, build_retiming_graph

__all__ = ["MAX_CYCLES", "max_registers_on_simple_cycle", "retiming_delay_bound"]

MAX_CYCLES = 100_000


def _fused_successors(graph: RetimingGraph) -> Dict[str, Dict[str, int]]:
    """``u -> {v: heaviest weight of an edge u -> v}`` on the graph with
    its two host halves fused into one host vertex."""
    fused = {v: HOST if v == HOST_OUT else v for v in graph.vertices}
    successors: Dict[str, Dict[str, int]] = {v: {} for v in fused.values()}
    for edge in graph.edges:
        hops = successors[fused[edge.u]]
        v = fused[edge.v]
        hops[v] = max(edge.weight, hops.get(v, 0))
    return successors


def _cycles_through(
    adjacency: Dict[str, Dict[str, int]], start: str
) -> Iterator[List[str]]:
    """Johnson's search: every simple cycle through *start*, once each.
    A vertex stays blocked until a path through it closes a cycle, so
    no dead end is explored twice."""
    path = [start]
    blocked: Set[str] = {start}
    blocked_by: Dict[str, Set[str]] = {}
    stack = [iter(adjacency[start])]
    closed = [False]
    while stack:
        for w in stack[-1]:
            if w == start:
                yield path[:]
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(iter(adjacency[w]))
                blocked.add(w)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = {v}
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.remove(u)
                        unblock.update(blocked_by.pop(u, ()))
            else:
                for w in adjacency[v]:
                    blocked_by.setdefault(w, set()).add(v)


def _simple_cycles(successors: Dict[str, Dict[str, int]]) -> Iterator[List[str]]:
    """Every node-simple cycle once, as its vertex sequence: the
    self-loops, then the cycles through each vertex in turn, which then
    leaves the graph."""
    adjacency = {
        u: {v: w for v, w in hops.items() if v != u} for u, hops in successors.items()
    }
    for u, hops in successors.items():
        if u in hops:
            yield [u]
    for start in list(adjacency):
        yield from _cycles_through(adjacency, start)
        del adjacency[start]
        for hops in adjacency.values():
            hops.pop(start, None)


def max_registers_on_simple_cycle(
    graph: RetimingGraph, *, max_cycles: int = MAX_CYCLES
) -> int:
    """The maximum total edge weight over simple cycles of the fused
    (single-host) retiming graph; 0 if the graph is acyclic.

    Raises :class:`MemoryError` past *max_cycles* enumerated cycles.
    """
    successors = _fused_successors(graph)
    best = 0
    for count, cycle in enumerate(_simple_cycles(successors), 1):
        if count > max_cycles:
            raise MemoryError("more than %d simple cycles" % max_cycles)
        hops = zip(cycle, cycle[1:] + cycle[:1])
        best = max(best, sum(successors[u][v] for u, v in hops))
    return best


def retiming_delay_bound(circuit: Circuit, **kwargs) -> int:
    """The paper's structural bound on Theorem 4.5's k for *circuit*."""
    return max_registers_on_simple_cycle(build_retiming_graph(circuit), **kwargs)
