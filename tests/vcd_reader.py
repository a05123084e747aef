"""A reader for the VCD dialect that :func:`repro.sim.vcd.trace_to_vcd`
writes, so the tests can round-trip every exported waveform."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.logic.ternary import ONE, T, X, ZERO


_TERNARY_OF = {"0": ZERO, "1": ONE, "x": X, "X": X}


@dataclass
class VcdWaves:
    """A parsed VCD dump: per-signal ternary waveforms, one value per
    clock cycle (the export convention of :func:`trace_to_vcd`)."""

    timescale: str = "1ns"
    module: str = "repro"
    signals: List[str] = field(default_factory=list)
    waves: Dict[str, List[T]] = field(default_factory=dict)

    @property
    def num_cycles(self) -> int:
        return len(next(iter(self.waves.values()))) if self.waves else 0

    def wave(self, name: str) -> Tuple[T, ...]:
        """Full waveform of one signal as a ternary tuple."""
        return tuple(self.waves[name])


def parse_vcd(text: str) -> VcdWaves:
    """Parse the scalar-wire VCD dialect written by :func:`trace_to_vcd`.

    Value changes are forward-filled, so every signal's waveform has
    exactly one (ternary) value per timestep.  Signals that never dump
    a value before their first referenced timestep start at ``X``.
    Raises :class:`ValueError` on unknown identifier codes or vector
    (``b...``/``r...``) value changes, which this dialect never emits.
    """
    timescale = "1ns"
    module = "repro"
    name_of: Dict[str, str] = {}
    order: List[str] = []
    changes: List[Tuple[int, str, str]] = []  # (time, signal name, value char)
    time = 0
    last_time = 0
    in_header = True

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_header:
            tokens = line.split()
            if tokens[0] == "$timescale" and len(tokens) >= 2:
                timescale = tokens[1]
            elif tokens[0] == "$scope" and len(tokens) >= 3:
                module = tokens[2]
            elif tokens[0] == "$var":
                # $var wire 1 <id> <name> $end
                vcd_id, name = tokens[3], tokens[4]
                name_of[vcd_id] = name
                order.append(name)
            elif tokens[0] == "$enddefinitions":
                in_header = False
            continue
        if line.startswith("#"):
            time = int(line[1:])
            last_time = max(last_time, time)
            continue
        if line.startswith("$"):  # $dumpvars / $end markers
            continue
        if line[0] in "brBR":
            raise ValueError("vector value changes are not supported: %r" % line)
        value, vcd_id = line[0], line[1:]
        if value not in _TERNARY_OF:
            raise ValueError("unsupported VCD value %r" % line)
        if vcd_id not in name_of:
            raise ValueError("value change for undeclared id %r" % vcd_id)
        changes.append((time, name_of[vcd_id], value))

    # The exporter writes a trailing bare "#num_cycles" sentinel; the
    # waveforms therefore span cycles [0, last_time).
    num_cycles = last_time
    waves: Dict[str, List[T]] = {name: [] for name in order}
    current: Dict[str, T] = {name: X for name in order}
    pending = sorted(changes, key=lambda c: c[0])
    index = 0
    for cycle in range(num_cycles):
        while index < len(pending) and pending[index][0] <= cycle:
            _, name, value = pending[index]
            current[name] = _TERNARY_OF[value]
            index += 1
        for name in order:
            waves[name].append(current[name])
    return VcdWaves(timescale=timescale, module=module, signals=order, waves=waves)
