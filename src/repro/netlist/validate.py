"""Structural validation of circuits.

A circuit must satisfy a handful of well-formedness conditions before
the simulators and the retiming engine will accept it:

1. every net read by a cell, latch or primary output has a driver;
2. the combinational core is acyclic (every cycle in the circuit passes
   through at least one latch -- the paper's definition of a synchronous
   circuit requires "each cycle contains at least one latch");
3. names of cells and latches are unique (enforced at construction) and
   no net is driven twice (likewise);
4. optionally, the circuit is in single-fanout normal form.

:func:`validate` collects all violations instead of stopping at the
first, which makes the error messages actually useful when a generator
or transform goes wrong.  :func:`check_interfaces` guards every
question about a *pair* of circuits: the paper's relations compare two
machines over one input and one output alphabet.
"""

from __future__ import annotations

from typing import List

from .circuit import Circuit, CircuitError

__all__ = ["ValidationError", "validate", "check_normal_form", "check_interfaces"]


class ValidationError(CircuitError):
    """Raised by :func:`validate` with all violations listed."""

    def __init__(self, circuit_name: str, problems: List[str]) -> None:
        self.problems = list(problems)
        message = "circuit %s is malformed:\n  - %s" % (
            circuit_name,
            "\n  - ".join(problems),
        )
        super().__init__(message)


def validate(circuit: Circuit, require_normal_form: bool = False) -> None:
    """Check structural well-formedness, raising :class:`ValidationError`
    listing every violation found.

    Parameters
    ----------
    circuit:
        The circuit to check.
    require_normal_form:
        Additionally require single-fanout normal form (every net read
        exactly once); the retiming move engine needs this.
    """
    problems: List[str] = []

    # 1. Dangling reads.
    for cell in circuit.cells:
        for pin, net in enumerate(cell.inputs):
            if not circuit.has_net(net):
                problems.append(
                    "cell %s input pin %d reads undriven net %r" % (cell.name, pin, net)
                )
    for latch in circuit.latches:
        if not circuit.has_net(latch.data_in):
            problems.append(
                "latch %s data input reads undriven net %r" % (latch.name, latch.data_in)
            )
    for index, net in enumerate(circuit.outputs):
        if not circuit.has_net(net):
            problems.append("primary output %d reads undriven net %r" % (index, net))

    # 2. Combinational cycles.
    try:
        circuit.topological_cells()
    except CircuitError as exc:
        problems.append(str(exc))

    # 3. Unread nets (warn-level: they break normal form, and usually a bug).
    if require_normal_form:
        problems.extend(check_normal_form(circuit))

    if problems:
        raise ValidationError(circuit.name, problems)


def check_normal_form(circuit: Circuit) -> List[str]:
    """Return the list of normal-form violations (empty when in NF).

    Normal form = every net has exactly one reader, i.e. all fanout is
    explicit through JUNC cells (the paper's modelling assumption).
    """
    problems: List[str] = []
    for net in circuit.nets():
        count = circuit.fanout_count(net)
        if count == 0:
            problems.append("net %r has no reader" % net)
        elif count > 1:
            problems.append("net %r has %d readers (fanout not normalised)" % (net, count))
    return problems


def check_interfaces(a: Circuit, b: Circuit) -> None:
    """Raise :class:`ValueError` unless *a* and *b* have as many primary
    inputs, and as many primary outputs, as each other."""
    if len(a.inputs) != len(b.inputs) or len(a.outputs) != len(b.outputs):
        raise ValueError(
            "circuits have mismatched interfaces: %d/%d inputs, %d/%d outputs"
            % (len(a.inputs), len(b.inputs), len(a.outputs), len(b.outputs))
        )
