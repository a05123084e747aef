"""Parameterised sequential-circuit generators.

The paper's theorems are circuit-independent, so the benchmark and
property-test workloads are generated: random sequential netlists (for
hypothesis-style sweeps), pipelines (the datapath style the paper's
introduction motivates), LFSRs and counters (latch-rich feedback), and
the classic Leiserson-Saxe systolic correlator (the canonical circuit
on which min-period retiming shows a real win).

All generators return circuits in *single-fanout normal form* (fanout
through explicit ``JUNC`` cells), ready for the retiming move engine,
and all are deterministic in their arguments (seeded RNG, no global
state).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..netlist.builder import CircuitBuilder
from ..netlist.circuit import Circuit
from ..netlist.transform import normalize_fanout
from ..netlist.validate import validate

__all__ = [
    "random_sequential_circuit",
    "pipeline_circuit",
    "lfsr_circuit",
    "counter_circuit",
    "shift_register",
    "correlator",
    "datapath_controller",
]

_GATE_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT")


def random_sequential_circuit(
    seed: int,
    *,
    num_inputs: int = 2,
    num_gates: int = 8,
    num_latches: int = 3,
    num_outputs: int = 1,
    name: Optional[str] = None,
) -> Circuit:
    """A random synchronous circuit, acyclic-by-construction.

    Gates are created in order and may read primary inputs, earlier gate
    outputs, and latch outputs (so every combinational path is a DAG);
    latch data inputs are drawn from gate outputs, closing sequential
    feedback loops.  Nets left unread are XOR-folded into the first
    primary output, so the interface arity is exactly
    ``(num_inputs, num_outputs)`` for every seed -- machine-pair
    analyses (implication, safe replacement) rely on that.  The
    returned circuit is in single-fanout normal form.
    """
    if num_gates < 1 or num_inputs < 1:
        raise ValueError("need at least one input and one gate")
    rng = random.Random(seed)
    b = CircuitBuilder(name or "rand%d" % seed)

    pi_nets = [b.input("pi%d" % i) for i in range(num_inputs)]
    latch_out_nets = [b.net("q%d" % i) for i in range(num_latches)]
    available: List[str] = list(pi_nets) + list(latch_out_nets)

    gate_outputs: List[str] = []
    for g in range(num_gates):
        kind = rng.choice(_GATE_KINDS)
        arity = 1 if kind == "NOT" else rng.choice((2, 2, 2, 3))
        ins = [rng.choice(available) for _ in range(arity)]
        out = b.gate(kind, *ins, name="g%d" % g, out="n%d" % g)
        gate_outputs.append(out)
        available.append(out)

    for i, q in enumerate(latch_out_nets):
        data_in = rng.choice(gate_outputs)
        b.latch(data_in, q, name="l%d" % i)

    # Choose declared outputs, then fold every still-unread net into the
    # first output through an XOR sink so that normalisation sees no
    # dangling nets and the output arity stays fixed.
    chosen = [rng.choice(gate_outputs) for _ in range(num_outputs)]
    circuit = b.circuit
    unread = [
        net
        for net in circuit.nets()
        if circuit.fanout_count(net) == 0 and net not in chosen
    ]
    if unread:
        chosen[0] = b.gate("XOR", chosen[0], *unread, name="sinkx")
    for net in chosen:
        b.output(net)
    validate(circuit)
    return normalize_fanout(circuit)


def pipeline_circuit(
    stages: int,
    width: int,
    *,
    seed: int = 0,
    name: Optional[str] = None,
) -> Circuit:
    """A ``stages``-deep, ``width``-wide pipelined datapath.

    Each stage is a random 2-level combinational slice followed by a
    full latch bank -- the register-heavy structure retiming trades
    latches around in.  The final stage's latch outputs are the primary
    outputs.
    """
    if stages < 1 or width < 1:
        raise ValueError("stages and width must be positive")
    rng = random.Random(seed)
    b = CircuitBuilder(name or "pipe%dx%d" % (stages, width))
    current = [b.input("in%d" % i) for i in range(width)]
    for s in range(stages):
        level: List[str] = []
        for w in range(width):
            kind = rng.choice(("AND", "OR", "XOR", "NAND"))
            a = current[w]
            bnet = current[(w + 1) % width] if width > 1 else current[w]
            if a == bnet:
                out = b.gate("NOT", a, name="s%dg%d" % (s, w))
            else:
                out = b.gate(kind, a, bnet, name="s%dg%d" % (s, w))
            level.append(out)
        current = [b.latch(net, name="r%d_%d" % (s, w)) for w, net in enumerate(level)]
    for net in current:
        b.output(net)
    circuit = b.circuit
    for net in circuit.nets():
        if circuit.fanout_count(net) == 0:
            circuit.add_output(net)
    validate(circuit)
    return normalize_fanout(circuit)


def lfsr_circuit(taps: Sequence[int], *, name: Optional[str] = None) -> Circuit:
    """A Fibonacci LFSR with the given tap positions (0-based).

    Has an ``enable`` input XORed into the feedback so the circuit is
    input-sensitive; the serial output is the last stage.
    """
    taps = sorted(set(taps))
    if not taps:
        raise ValueError("need at least one tap")
    length = max(taps) + 1
    b = CircuitBuilder(name or "lfsr%d" % length)
    enable = b.input("enable")
    stages = [b.net("s%d" % i) for i in range(length)]
    feedback = enable
    for t in taps:
        feedback = b.gate("XOR", feedback, stages[t], name="fb%d" % t)
    previous = feedback
    for i in range(length):
        b.latch(previous, stages[i], name="ff%d" % i)
        previous = stages[i]
    b.output(stages[-1])
    circuit = b.circuit
    for net in circuit.nets():
        if circuit.fanout_count(net) == 0:
            circuit.add_output(net)
    validate(circuit)
    return normalize_fanout(circuit)


def counter_circuit(bits: int, *, name: Optional[str] = None) -> Circuit:
    """A ``bits``-bit binary counter with an ``inc`` input.

    Ripple-carry increment: bit i toggles when all lower bits and
    ``inc`` are 1.  The primary output is the carry-out.
    """
    if bits < 1:
        raise ValueError("need at least one bit")
    b = CircuitBuilder(name or "ctr%d" % bits)
    inc = b.input("inc")
    state = [b.net("c%d" % i) for i in range(bits)]
    carry = inc
    for i in range(bits):
        nxt = b.gate("XOR", state[i], carry, name="x%d" % i)
        carry = b.gate("AND", state[i], carry, name="a%d" % i) if i < bits - 1 else carry
        b.latch(nxt, state[i], name="ff%d" % i)
        if i == bits - 1:
            break
    # carry-out of the top bit
    top_carry = b.gate("AND", state[bits - 1], carry, name="aout") if bits > 1 else carry
    b.output(top_carry)
    circuit = b.circuit
    for net in circuit.nets():
        if circuit.fanout_count(net) == 0:
            circuit.add_output(net)
    validate(circuit)
    return normalize_fanout(circuit)


def shift_register(length: int, *, name: Optional[str] = None) -> Circuit:
    """A serial-in serial-out shift register of the given length."""
    if length < 1:
        raise ValueError("length must be positive")
    b = CircuitBuilder(name or "sr%d" % length)
    current = b.input("si")
    for i in range(length):
        current = b.latch(current, name="ff%d" % i)
    b.output(current)
    return b.build()


def correlator(k: int, *, name: Optional[str] = None) -> Circuit:
    """A systolic auto-correlator in the Leiserson-Saxe shape.

    A k-stage delay line feeds k-1 comparators (XNOR of adjacent taps);
    the comparator outputs are accumulated through a combinational AND
    chain to the single output.  This is the structure of [LS83]'s
    running correlator example: the original clock period is dominated
    by the accumulation chain, and min-period retiming shortens it by
    borrowing registers from the delay line -- at the price of forward
    moves across the tap fanout junctions, i.e. exactly the hazardous
    moves this paper is about.  That combination (real speed-up, real
    hazard, CLS invariance regardless) makes it the flagship workload
    of the optimisation benchmarks.
    """
    if k < 3:
        raise ValueError("correlator needs k >= 3")
    b = CircuitBuilder(name or "correlator%d" % k)
    x = b.input("x")
    taps: List[str] = []
    current = x
    for i in range(k):
        current = b.latch(current, name="d%d" % i)
        taps.append(current)
    comparators = [
        b.gate("XNOR", taps[i], taps[i + 1], name="cmp%d" % i) for i in range(k - 1)
    ]
    acc = comparators[0]
    for i in range(1, k - 1):
        acc = b.gate("AND", acc, comparators[i], name="acc%d" % i)
    b.output(acc)
    circuit = b.circuit
    for net in circuit.nets():
        if circuit.fanout_count(net) == 0:
            circuit.add_output(net)
    validate(circuit)
    return normalize_fanout(circuit)


def datapath_controller(
    width: int = 4, *, seed: int = 0, name: Optional[str] = None
) -> Circuit:
    """The paper's Section 1 motivating design style, as a generator.

    A controller whose single state bit has a synchronous reset
    (lowered to gates per Section 1) drives a ``width``-bit datapath
    register bank with NO reset pins: once the controller is running it
    gates the datapath inputs, so the datapath initialises through the
    input stream rather than a global reset line -- "for many designs
    of this style, the controller contributes less than 10% of the
    total latches".

    Interface: inputs ``rst, d0..d{width-1}``; outputs: the reduced
    (AND) datapath contents gated by the controller state.
    """
    from ..netlist.transform import synchronous_reset_latch

    rng = random.Random(seed)
    b = CircuitBuilder(name or "dpctl%d" % width)
    rst = b.input("rst")
    data = [b.input("d%d" % i) for i in range(width)]

    # Controller: 'running' flips on once any data arrives post-reset.
    running_next = b.net("running_next")
    running = synchronous_reset_latch(b, running_next, rst, name="ctl")
    any_data = data[0]
    for i in range(1, width):
        any_data = b.gate("OR", any_data, data[i], name="any%d" % i)
    b.gate("OR", running, any_data, name="ctl_or", out="running_next")

    # Datapath: each lane holds its input once running, else recycles a
    # random earlier lane (structure varies with the seed).
    lanes: List[str] = []
    for i in range(width):
        q = b.net("dp%d" % i)
        recycle = lanes[rng.randrange(len(lanes))] if lanes and rng.random() < 0.5 else q
        held = b.gate("MUX", running, recycle, data[i], name="m%d" % i)
        b.latch(held, q, name="r%d" % i)
        lanes.append(q)

    acc = lanes[0]
    for i in range(1, width):
        acc = b.gate("AND", acc, lanes[i], name="red%d" % i)
    b.output(b.gate("AND", acc, running, name="gate_out"))
    circuit = b.circuit
    for net in circuit.nets():
        if circuit.fanout_count(net) == 0:
            circuit.add_output(net)
    validate(circuit)
    return normalize_fanout(circuit)
