"""``Circuit.readers_of`` answers from a lazily built net -> readers
index; it must equal the reader scan of ``tests/reference.py``, order
included, after every mutation and on copies that share the index."""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.logic.functions import AND, NOT, OR
from repro.netlist.circuit import Cell, Circuit
from reference import readers_by_scan


def _all_nets(circuit: Circuit):
    """Every driven net and every net something reads."""
    nets = set(circuit.nets()) | set(circuit.outputs)
    for cell in circuit.cells:
        nets.update(cell.inputs)
    nets.update(latch.data_in for latch in circuit.latches)
    return sorted(nets)


def _assert_index_matches_scan(circuit: Circuit) -> None:
    for net in _all_nets(circuit) + ["no-such-net"]:
        assert circuit.readers_of(net) == readers_by_scan(circuit, net), net
        assert circuit.fanout_count(net) == len(readers_by_scan(circuit, net))


def _mutate(circuit: Circuit, rng: random.Random) -> None:
    """One random structural edit, drawn from every mutator."""
    nets = list(circuit.nets())
    # replace_cell twice over: it is the mutator that reorders readers.
    kind = rng.choice(
        ["add_input", "add_output", "add_cell", "add_latch", "remove_cell",
         "remove_latch", "replace_cell", "replace_cell"]
    )
    if kind == "add_input":
        circuit.add_input(circuit.fresh_net("pi"))
    elif kind == "add_output" and nets:
        circuit.add_output(rng.choice(nets))
    elif kind == "add_cell" and nets:
        inputs = (rng.choice(nets), rng.choice(nets))
        circuit.add_cell(circuit.fresh_name("c"), AND, inputs, (circuit.fresh_net("n"),))
    elif kind == "add_latch" and nets:
        circuit.add_latch(circuit.fresh_name("l"), rng.choice(nets), circuit.fresh_net("q"))
    elif kind == "remove_cell" and circuit.num_cells:
        circuit.remove_cell(rng.choice(circuit.cell_names))
    elif kind == "remove_latch" and circuit.num_latches:
        circuit.remove_latch(rng.choice(circuit.latch_names))
    elif kind == "replace_cell" and circuit.num_cells and nets:
        # Same outputs, rewired inputs; the cell moves to the end of
        # the cell order, so its readers move behind the others.
        old = circuit.cell(rng.choice(circuit.cell_names))
        function = NOT if len(old.outputs) == 1 and rng.random() < 0.5 else old.function
        inputs = tuple(rng.choice(nets) for _ in range(function.n_inputs))
        circuit.replace_cell(old.name, Cell(old.name, function, inputs, old.outputs))


@pytest.mark.parametrize("seed", range(12))
def test_readers_match_the_scan_under_random_mutations(seed):
    rng = random.Random(seed)
    circuit = random_sequential_circuit(seed, num_inputs=3, num_gates=12, num_latches=3)
    _assert_index_matches_scan(circuit)
    for _ in range(40):
        if rng.random() < 0.25:
            # A copy shares the built index until either side mutates.
            other = circuit.copy()
            _mutate(other, rng)
            _assert_index_matches_scan(other)
            _assert_index_matches_scan(circuit)
        _mutate(circuit, rng)
        _assert_index_matches_scan(circuit)


def test_replace_cell_moves_its_readers_behind_the_rest():
    c = Circuit("order")
    c.add_input("a")
    c.add_cell("g1", NOT, ("a",), ("n1",))
    c.add_cell("g2", NOT, ("a",), ("n2",))
    c.add_output("a")
    assert c.readers_of("a") == (("cell", "g1", 0), ("cell", "g2", 0), ("output", 0))
    c.replace_cell("g1", Cell("g1", OR, ("n2", "a"), ("n1",)))
    assert c.readers_of("a") == (("cell", "g2", 0), ("cell", "g1", 1), ("output", 0))
    assert c.readers_of("n2") == (("cell", "g1", 0),)
