"""VCD (Value Change Dump) waveform export.

Turns a :class:`~repro.sim.core.SimulationTrace` into the standard VCD
text format, so traces from any of the simulators -- including the
three-valued ones, VCD has first-class ``x`` -- can be inspected in
GTKWave or any other waveform viewer.  One VCD timestep per clock
cycle; inputs, outputs and latch states are emitted as scalar wires.
The test suite reads the same dialect back (``tests/vcd_reader.py``)
for a loss-free round-trip check.
"""

from __future__ import annotations

import string
from typing import Dict, List, Tuple, Union

from ..logic.ternary import T, X
from ..netlist.circuit import Circuit
from .core import SimulationTrace

__all__ = ["trace_to_vcd"]

_ID_ALPHABET = string.ascii_letters + string.digits + "!@#$%^&*_+-=~"


def _identifier(index: int) -> str:
    base = len(_ID_ALPHABET)
    out = ""
    while True:
        out = _ID_ALPHABET[index % base] + out
        index //= base
        if index == 0:
            return out


def _vcd_value(value: Union[bool, T]) -> str:
    if isinstance(value, T):
        if value is X:
            return "x"
        return "1" if value.value == 1 else "0"
    return "1" if value else "0"


def trace_to_vcd(
    circuit: Circuit,
    trace: SimulationTrace,
    *,
    timescale: str = "1ns",
    module: str = "repro",
) -> str:
    """Render *trace* (from any simulator over *circuit*) as VCD text.

    Signals: every primary input (``in.*``), primary output (``out.*``)
    and latch state (``state.*``).  The latch values shown at time t are
    the state *entering* cycle t.
    """
    signals: List[Tuple[str, str]] = []  # (reference name, vcd id)
    values_per_cycle: List[Dict[str, Union[bool, T]]] = []

    names: List[str] = []
    for net in circuit.inputs:
        names.append("in.%s" % net)
    for index in range(len(circuit.outputs)):
        names.append("out.%s_%d" % (circuit.outputs[index], index))
    for latch_name in circuit.latch_names:
        names.append("state.%s" % latch_name)
    for index, name in enumerate(names):
        signals.append((name, _identifier(index)))

    for cycle in range(len(trace)):
        row: Dict[str, Union[bool, T]] = {}
        for net, value in zip(circuit.inputs, trace.inputs[cycle]):
            row["in.%s" % net] = value
        for index, value in enumerate(trace.outputs[cycle]):
            row["out.%s_%d" % (circuit.outputs[index], index)] = value
        for latch_name, value in zip(circuit.latch_names, trace.states[cycle]):
            row["state.%s" % latch_name] = value
        values_per_cycle.append(row)

    id_of = dict(signals)
    lines: List[str] = []
    lines.append("$date generated by repro $end")
    lines.append("$version repro retiming-validity toolkit $end")
    lines.append("$timescale %s $end" % timescale)
    lines.append("$scope module %s $end" % module)
    for name, vcd_id in signals:
        lines.append("$var wire 1 %s %s $end" % (vcd_id, name))
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    previous: Dict[str, str] = {}
    for cycle, row in enumerate(values_per_cycle):
        lines.append("#%d" % cycle)
        if cycle == 0:
            lines.append("$dumpvars")
        for name, _ in signals:
            rendered = _vcd_value(row[name])
            if cycle == 0 or previous.get(name) != rendered:
                lines.append("%s%s" % (rendered, id_of[name]))
                previous[name] = rendered
        if cycle == 0:
            lines.append("$end")
    lines.append("#%d" % len(values_per_cycle))
    return "\n".join(lines) + "\n"
