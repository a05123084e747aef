"""Structural circuit transforms.

Three families of transforms, all taken straight from the paper's
modelling section:

* **Fanout normalisation** (Section 3.2, Figure 5): every net with more
  than one reader is rewritten to fan out through an explicit
  multi-output ``JUNC`` cell, so that afterwards every net has exactly
  one reader.  The retiming move engine operates on this *single-fanout
  normal form*; forward moves across the inserted ``JUNC`` cells are
  precisely the hazardous moves of Section 4.
* **Junction collapsing**: the inverse rewrite, used when exporting to
  formats (like ISCAS ``.bench``) that represent fanout implicitly.
* **Synchronous-control latch lowering** (Section 1): a latch with a
  synchronous reset/set/load-enable pin is modelled as a simple latch
  surrounded by gates ("a synchronous reset latch with positive logic
  reset signal R and data input D is modelled by a simple latch and an
  AND gate fed by not(R) and D").

All transforms build and return a **new** circuit; inputs are never
mutated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic.functions import junction
from .builder import CircuitBuilder
from .circuit import Circuit, CircuitError

__all__ = [
    "normalize_fanout",
    "collapse_junctions",
    "sweep_dangling",
    "rewire_readers",
    "synchronous_reset_latch",
    "synchronous_set_latch",
    "enable_latch",
]


def normalize_fanout(circuit: Circuit, name: Optional[str] = None) -> Circuit:
    """Rewrite *circuit* into single-fanout normal form.

    Every net with k > 1 readers gets a ``JUNC`` cell with k outputs;
    each reader is moved to its own branch net.  Nets with exactly one
    reader are untouched.  Element order (and hence the latch state
    vector order) is preserved; inserted junctions are appended after
    the original cells with deterministic names ``<net>@junc``.

    Returns a new circuit; raises :class:`CircuitError` if the input has
    an internal net with zero readers (such a net cannot be normalised
    into "exactly one reader" form).  Unread *primary inputs* are
    tolerated: they are part of the interface contract and survive
    optimisations that stop using them.
    """
    result = Circuit(name or circuit.name)

    # Pass 1: decide the branch net for every (net, reader) pair.
    rewire: Dict[Tuple, str] = {}  # reader tuple -> branch net it should read
    junction_plan: List[Tuple[str, Tuple[str, ...]]] = []  # (source net, branch nets)
    used_names = set(circuit.nets())
    primary_inputs = set(circuit.inputs)
    for net in circuit.nets():
        readers = circuit.readers_of(net)
        if len(readers) == 0:
            if net in primary_inputs:
                continue
            raise CircuitError(
                "net %r in %s has no readers; cannot normalise" % (net, circuit.name)
            )
        if len(readers) == 1:
            continue
        branches: List[str] = []
        for index, reader in enumerate(readers):
            branch = "%s@f%d" % (net, index)
            while branch in used_names:
                branch += "_"
            used_names.add(branch)
            branches.append(branch)
            rewire[(net,) + tuple(reader)] = branch
        junction_plan.append((net, tuple(branches)))

    def target(net: str, reader: Tuple) -> str:
        return rewire.get((net,) + tuple(reader), net)

    # Pass 2: rebuild the circuit with rewired readers.
    for net in circuit.inputs:
        result.add_input(net)
    for cell in circuit.cells:
        new_inputs = tuple(
            target(in_net, ("cell", cell.name, pin)) for pin, in_net in enumerate(cell.inputs)
        )
        result.add_cell(cell.name, cell.function, new_inputs, cell.outputs)
    for latch in circuit.latches:
        result.add_latch(
            latch.name, target(latch.data_in, ("latch", latch.name)), latch.data_out
        )
    for index, net in enumerate(circuit.outputs):
        result.add_output(target(net, ("output", index)))
    for net, branches in junction_plan:
        result.add_cell(
            result.fresh_name("%s@junc" % net), junction(len(branches)), (net,), branches
        )
    return result


def collapse_junctions(circuit: Circuit, name: Optional[str] = None) -> Circuit:
    """Remove all ``JUNC`` cells, reconnecting readers to the source net.

    Chains of junctions collapse transitively.  The result generally has
    multi-reader nets (i.e. it is *not* in normal form).
    """
    # Map each junction branch net to its ultimate non-junction source.
    source: Dict[str, str] = {}
    junctions = {cell.name: cell for cell in circuit.junction_cells()}
    for cell in junctions.values():
        for branch in cell.outputs:
            source[branch] = cell.inputs[0]

    def resolve(net: str) -> str:
        seen = set()
        while net in source:
            if net in seen:
                raise CircuitError("junction cycle through net %r" % net)
            seen.add(net)
            net = source[net]
        return net

    result = Circuit(name or circuit.name)
    for net in circuit.inputs:
        result.add_input(net)
    for cell in circuit.cells:
        if cell.name in junctions:
            continue
        result.add_cell(
            cell.name,
            cell.function,
            tuple(resolve(n) for n in cell.inputs),
            cell.outputs,
        )
    for latch in circuit.latches:
        result.add_latch(latch.name, resolve(latch.data_in), latch.data_out)
    for net in circuit.outputs:
        result.add_output(resolve(net))
    return result


def rewire_readers(circuit: Circuit, net: str, replacement: str, name: Optional[str] = None) -> Circuit:
    """Reconnect every reader of *net* to *replacement*.

    The driver of *net* is left in place (possibly dangling -- run
    :func:`sweep_dangling` afterwards).  Used by optimisations that
    substitute a signal, e.g. constant replacement in redundancy
    removal.  Returns a new circuit.
    """
    if not circuit.has_net(net):
        raise CircuitError("no net %r in %s" % (net, circuit.name))
    if not circuit.has_net(replacement):
        raise CircuitError("no replacement net %r in %s" % (replacement, circuit.name))
    result = Circuit(name or circuit.name)

    def fix(candidate: str) -> str:
        return replacement if candidate == net else candidate

    for pi in circuit.inputs:
        result.add_input(pi)
    for cell in circuit.cells:
        result.add_cell(
            cell.name, cell.function, tuple(fix(n) for n in cell.inputs), cell.outputs
        )
    for latch in circuit.latches:
        result.add_latch(latch.name, fix(latch.data_in), latch.data_out)
    for po in circuit.outputs:
        result.add_output(fix(po))
    return result


def sweep_dangling(circuit: Circuit, name: Optional[str] = None) -> Circuit:
    """Remove cells and latches none of whose outputs are read,
    repeatedly, until a fixpoint.

    Primary inputs are never removed (the interface is part of the
    design contract) even if unread.  Returns a new circuit.
    """
    current = circuit.copy(name or circuit.name)
    while True:
        removed = False
        for cell in current.cells:
            if all(current.fanout_count(n) == 0 for n in cell.outputs):
                current.remove_cell(cell.name)
                removed = True
        for latch in current.latches:
            if current.fanout_count(latch.data_out) == 0:
                current.remove_latch(latch.name)
                removed = True
        if not removed:
            return current


# ---------------------------------------------------------------------------
# Synchronous-control latch lowering (builder helpers).
# ---------------------------------------------------------------------------


def synchronous_reset_latch(
    builder: CircuitBuilder,
    data: str,
    reset: str,
    *,
    name: Optional[str] = None,
    data_out: Optional[str] = None,
) -> str:
    """A latch with an active-high synchronous reset, lowered to gates.

    Implements the paper's Section 1 model: the latch samples
    ``AND(data, NOT(reset))``.  Returns the latch output net.
    """
    stem = name or "rlatch"
    not_r = builder.gate("NOT", reset, name="%s_rn" % stem)
    gated = builder.gate("AND", not_r, data, name="%s_rg" % stem)
    return builder.latch(gated, data_out, name=name)


def synchronous_set_latch(
    builder: CircuitBuilder,
    data: str,
    set_signal: str,
    *,
    name: Optional[str] = None,
    data_out: Optional[str] = None,
) -> str:
    """A latch with an active-high synchronous set: samples
    ``OR(data, set)``.  Returns the latch output net."""
    stem = name or "slatch"
    gated = builder.gate("OR", set_signal, data, name="%s_sg" % stem)
    return builder.latch(gated, data_out, name=name)


def enable_latch(
    builder: CircuitBuilder,
    data: str,
    enable: str,
    *,
    name: Optional[str] = None,
    data_out: Optional[str] = None,
) -> str:
    """A load-enable latch: holds its value when *enable* is 0.

    Lowered to a MUX feeding a simple latch, with the latch output fed
    back to the MUX's "hold" input.  Returns the latch output net.
    """
    stem = name or "elatch"
    q = builder.net(data_out if data_out is not None else "%s_q" % stem)
    mux_out = builder.gate("MUX", enable, q, data, name="%s_mx" % stem)
    builder.latch(mux_out, q, name=name)
    return q
