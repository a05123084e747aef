"""Gate-level sequential circuit model.

This is the paper's circuit model (Section 3.2): a net-list of
elementary library cells -- combinational gates (possibly multi-output)
and edge-triggered latches -- interconnected by wires, clocked by a
single implicit clock.  Latches have **no** set/reset pins and **no**
initial value: the power-up state is arbitrary, which is the entire
point of the paper.  Latches that do have synchronous control pins are
lowered to a simple latch surrounded by gates by
:func:`repro.netlist.transform.lower_sync_latch`.

Representation
--------------

* A *net* is a named wire with exactly one driver.
* Drivers are primary inputs, cell output pins, or latch outputs.
* Readers are cell input pins, latch data inputs, or primary outputs.
* A net may have any number of readers in a general circuit;
  :func:`repro.netlist.transform.normalize_fanout` rewrites the circuit
  into *single-fanout normal form*, where every net has exactly one
  reader and all fanout is explicit through ``JUNC`` cells.  The
  retiming move engine requires normal form, exactly as the paper
  requires junctions to be modelled as multi-output ``JUNC`` elements.

The class is deliberately mutable (the retiming engine performs
thousands of small rewrites); :meth:`Circuit.copy` provides cheap
snapshots and every analysis that must not mutate takes a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..logic.functions import CellFunction

__all__ = ["Cell", "Latch", "Driver", "Reader", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised on structurally invalid circuit manipulations."""


@dataclass(frozen=True)
class Cell:
    """One combinational cell instance.

    ``inputs`` and ``outputs`` are tuples of net names, positionally
    matched to the pins of :attr:`function`.
    """

    name: str
    function: CellFunction
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) != self.function.n_inputs:
            raise CircuitError(
                "cell %s: %s expects %d inputs, got %d"
                % (self.name, self.function.name, self.function.n_inputs, len(self.inputs))
            )
        if len(self.outputs) != self.function.n_outputs:
            raise CircuitError(
                "cell %s: %s drives %d outputs, got %d"
                % (self.name, self.function.name, self.function.n_outputs, len(self.outputs))
            )
        if len(set(self.outputs)) != len(self.outputs):
            raise CircuitError("cell %s drives the same net twice" % self.name)


@dataclass(frozen=True)
class Latch:
    """One edge-triggered latch: samples ``data_in`` into ``data_out``.

    No initial value -- the power-up state is unknown (Section 1).
    """

    name: str
    data_in: str
    data_out: str


#: Where a net's value comes from.
Driver = Tuple[str, ...]  # ("input", net) | ("cell", cell, pin) | ("latch", latch)
#: Where a net's value goes.
Reader = Tuple[str, ...]  # ("cell", cell, pin) | ("latch", latch) | ("output", index)


class Circuit:
    """A mutable gate-level sequential circuit.

    Parameters
    ----------
    name:
        A label used in reports.

    Notes
    -----
    The latch insertion order defines the canonical *state vector*
    order used by the simulators and STG tools: ``state[i]`` is the
    content of ``circuit.latch_names[i]``.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._cells: Dict[str, Cell] = {}
        self._latches: Dict[str, Latch] = {}
        self._drivers: Dict[str, Driver] = {}
        self._topo_cache: Optional[Tuple[str, ...]] = None
        self._compiled_cache: Optional[object] = None
        self._readers_cache: Optional[Dict[str, Tuple[Reader, ...]]] = None

    def _invalidate_caches(self) -> None:
        """Drop every structure-derived cache.

        Called by every mutator.  The topological order, the reader
        index and the compiled evaluation program
        (:mod:`repro.sim.compiled`) share exactly one invalidation
        contract: any structural change clears all three.
        """
        self._topo_cache = None
        self._compiled_cache = None
        self._readers_cache = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input nets, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output nets, in declaration order (duplicates allowed)."""
        return tuple(self._outputs)

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """All combinational cell instances."""
        return tuple(self._cells.values())

    @property
    def latches(self) -> Tuple[Latch, ...]:
        """All latches, in state-vector order."""
        return tuple(self._latches.values())

    @property
    def cell_names(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    @property
    def latch_names(self) -> Tuple[str, ...]:
        """Latch names in state-vector order."""
        return tuple(self._latches)

    @property
    def num_latches(self) -> int:
        return len(self._latches)

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> Cell:
        """Look up a cell by instance name."""
        try:
            return self._cells[name]
        except KeyError:
            raise CircuitError("no cell named %r in %s" % (name, self.name))

    def latch(self, name: str) -> Latch:
        """Look up a latch by name."""
        try:
            return self._latches[name]
        except KeyError:
            raise CircuitError("no latch named %r in %s" % (name, self.name))

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    def nets(self) -> Tuple[str, ...]:
        """All driven nets."""
        return tuple(self._drivers)

    def has_net(self, net: str) -> bool:
        return net in self._drivers

    def driver_of(self, net: str) -> Driver:
        """The unique driver of *net*.

        Returns ``("input", net)``, ``("cell", cell_name, pin_index)``
        or ``("latch", latch_name)``.
        """
        try:
            return self._drivers[net]
        except KeyError:
            raise CircuitError("net %r has no driver in %s" % (net, self.name))

    def readers_of(self, net: str) -> Tuple[Reader, ...]:
        """All readers of *net*: cell pins in cell and pin order, then
        latch data inputs, then POs.

        :func:`~repro.netlist.transform.normalize_fanout` numbers fanout
        branches in this order.  The net -> readers index behind it is
        built on first use and dropped by every mutator.
        """
        if self._readers_cache is None:
            index: Dict[str, List[Reader]] = {}
            for cell in self._cells.values():
                for pin, in_net in enumerate(cell.inputs):
                    index.setdefault(in_net, []).append(("cell", cell.name, pin))
            for latch in self._latches.values():
                index.setdefault(latch.data_in, []).append(("latch", latch.name))
            for position, out_net in enumerate(self._outputs):
                index.setdefault(out_net, []).append(("output", position))
            self._readers_cache = {n: tuple(readers) for n, readers in index.items()}
        return self._readers_cache.get(net, ())

    def fanout_count(self, net: str) -> int:
        """Number of readers of *net*."""
        return len(self.readers_of(net))

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def _claim_net(self, net: str, driver: Driver) -> None:
        if not net:
            raise CircuitError("empty net name")
        if net in self._drivers:
            raise CircuitError(
                "net %r already driven by %r in %s" % (net, self._drivers[net], self.name)
            )
        self._drivers[net] = driver

    def add_input(self, net: str) -> str:
        """Declare a primary input driving net *net*."""
        self._claim_net(net, ("input", net))
        self._inputs.append(net)
        self._invalidate_caches()
        return net

    def add_output(self, net: str) -> None:
        """Declare net *net* as a primary output (the net must exist by
        simulation time, not necessarily yet)."""
        self._outputs.append(net)
        self._invalidate_caches()

    def add_cell(
        self,
        name: str,
        function: CellFunction,
        inputs: Sequence[str],
        outputs: Sequence[str],
    ) -> Cell:
        """Instantiate *function* as cell *name*.

        The output nets are claimed by this cell; input nets may be
        declared later (validation catches genuinely dangling nets).
        """
        if name in self._cells or name in self._latches:
            raise CircuitError("duplicate element name %r in %s" % (name, self.name))
        cell = Cell(name, function, tuple(inputs), tuple(outputs))
        for pin, net in enumerate(cell.outputs):
            self._claim_net(net, ("cell", name, pin))
        self._cells[name] = cell
        self._invalidate_caches()
        return cell

    def add_latch(self, name: str, data_in: str, data_out: str) -> Latch:
        """Add a latch sampling *data_in* into *data_out*."""
        if name in self._cells or name in self._latches:
            raise CircuitError("duplicate element name %r in %s" % (name, self.name))
        latch = Latch(name, data_in, data_out)
        self._claim_net(data_out, ("latch", name))
        self._latches[name] = latch
        self._invalidate_caches()
        return latch

    def remove_cell(self, name: str) -> Cell:
        """Remove cell *name*, releasing its output nets."""
        cell = self.cell(name)
        del self._cells[name]
        for net in cell.outputs:
            del self._drivers[net]
        self._invalidate_caches()
        return cell

    def remove_latch(self, name: str) -> Latch:
        """Remove latch *name*, releasing its output net."""
        latch = self.latch(name)
        del self._latches[name]
        del self._drivers[latch.data_out]
        self._invalidate_caches()
        return latch

    def replace_cell(self, name: str, cell: Cell) -> None:
        """Replace cell *name* in place (same name, new pins/function)."""
        old = self.cell(name)
        if cell.name != name:
            raise CircuitError("replacement cell must keep the name %r" % name)
        del self._cells[name]
        for net in old.outputs:
            del self._drivers[net]
        claimed: List[str] = []
        try:
            for pin, net in enumerate(cell.outputs):
                self._claim_net(net, ("cell", name, pin))
                claimed.append(net)
        except CircuitError:
            # Roll back to the old cell to keep the circuit consistent.
            for net in claimed:
                del self._drivers[net]
            for pin, net in enumerate(old.outputs):
                self._drivers[net] = ("cell", name, pin)
            self._cells[name] = old
            raise
        self._cells[name] = cell
        self._invalidate_caches()

    def fresh_net(self, stem: str) -> str:
        """A net name based on *stem* not yet used in the circuit."""
        if stem and stem not in self._drivers:
            return stem
        index = 0
        while True:
            candidate = "%s$%d" % (stem, index)
            if candidate not in self._drivers:
                return candidate
            index += 1

    def fresh_name(self, stem: str) -> str:
        """An element (cell/latch) name based on *stem* not yet used."""
        if stem and stem not in self._cells and stem not in self._latches:
            return stem
        index = 0
        while True:
            candidate = "%s$%d" % (stem, index)
            if candidate not in self._cells and candidate not in self._latches:
                return candidate
            index += 1

    # ------------------------------------------------------------------
    # Topological order of the combinational core.
    # ------------------------------------------------------------------

    def topological_cells(self) -> Tuple[str, ...]:
        """Cell names in a topological order of the combinational core.

        Latch boundaries break the dependency edges (a cell reading a
        latch output does not depend on the cell driving the latch
        input).  Raises :class:`CircuitError` if the combinational core
        is cyclic.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        # Build dependency counts: cell B depends on cell A if some
        # input net of B is an output net of A (no latch in between --
        # nets are single segments, so this is direct).
        dependents: Dict[str, List[str]] = {name: [] for name in self._cells}
        indegree: Dict[str, int] = {name: 0 for name in self._cells}
        for cell in self._cells.values():
            for net in cell.inputs:
                driver = self._drivers.get(net)
                if driver is not None and driver[0] == "cell":
                    dependents[driver[1]].append(cell.name)
                    indegree[cell.name] += 1

        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for succ in dependents[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._cells):
            cyclic = sorted(name for name, deg in indegree.items() if deg > 0)
            raise CircuitError(
                "combinational cycle in %s through cells: %s"
                % (self.name, ", ".join(cyclic[:10]))
            )
        self._topo_cache = tuple(order)
        return self._topo_cache

    # ------------------------------------------------------------------
    # Normal form and structure queries.
    # ------------------------------------------------------------------

    def is_normal_form(self) -> bool:
        """True iff every net has exactly one reader (fanout via JUNC).

        This is the paper's modelling assumption after Figure 5: "each
        output of each gate (latch) fans out to exactly one other gate
        (latch)".  Nets with zero readers also violate normal form.
        """
        return all(self.fanout_count(net) == 1 for net in self._drivers)

    def junction_cells(self) -> Tuple[Cell, ...]:
        """All JUNC cells in the circuit."""
        return tuple(
            cell for cell in self._cells.values() if cell.function.name.startswith("JUNC")
        )

    def stats(self) -> Dict[str, int]:
        """Size statistics used by reports and benchmarks."""
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "cells": len(self._cells),
            "latches": len(self._latches),
            "nets": len(self._drivers),
            "junctions": len(self.junction_cells()),
        }

    # ------------------------------------------------------------------
    # Copy / equality / display.
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """A structural deep copy (cells/latches are immutable, shared)."""
        other = Circuit(name or self.name)
        other._inputs = list(self._inputs)
        other._outputs = list(self._outputs)
        other._cells = dict(self._cells)
        other._latches = dict(self._latches)
        other._drivers = dict(self._drivers)
        # Caches are derived purely from the (immutable-element) structure,
        # so a structural copy may share them until either side mutates.
        other._topo_cache = self._topo_cache
        other._compiled_cache = self._compiled_cache
        other._readers_cache = self._readers_cache
        return other

    def structurally_equal(self, other: "Circuit") -> bool:
        """Exact structural identity (same names, nets and pins)."""
        return (
            self._inputs == other._inputs
            and self._outputs == other._outputs
            and self._cells == other._cells
            and self._latches == other._latches
        )

    def __repr__(self) -> str:
        s = self.stats()
        return "<Circuit %s: %d PI, %d PO, %d cells, %d latches>" % (
            self.name,
            s["inputs"],
            s["outputs"],
            s["cells"],
            s["latches"],
        )

    def pretty(self) -> str:
        """Multi-line net-list dump, stable across runs."""
        lines = [repr(self)]
        lines.append("  inputs:  %s" % ", ".join(self._inputs))
        lines.append("  outputs: %s" % ", ".join(self._outputs))
        for cell in self._cells.values():
            lines.append(
                "  cell %-12s %-6s (%s) -> (%s)"
                % (cell.name, cell.function.name, ", ".join(cell.inputs), ", ".join(cell.outputs))
            )
        for latch in self._latches.values():
            lines.append("  latch %-11s %s -> %s" % (latch.name, latch.data_in, latch.data_out))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Iteration helpers used by the simulators.
    # ------------------------------------------------------------------

    def source_nets(self) -> Iterator[str]:
        """Nets whose value is fixed at the start of each cycle: primary
        inputs and latch outputs."""
        for net in self._inputs:
            yield net
        for latch in self._latches.values():
            yield latch.data_out
