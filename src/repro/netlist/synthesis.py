"""Two-level synthesis: turn an explicit STG back into a net-list.

The inverse of :func:`repro.stg.explicit.extract_stg`: given a
completely specified Mealy machine, produce a gate-level circuit whose
STG is the given one.  This closes the loop for the library --
specifications written as transition tables (classic FSM benchmarks,
counterexample machines from the replaceability checker, hand-written
controllers) become circuits every other tool here can retime,
simulate and fault-grade.

The implementation is plain two-level sum-of-products over the state
and input variables:

* one shared NOT per variable,
* one shared minterm AND per (state, input-symbol) pair that is used by
  at least one next-state or output bit,
* one OR per next-state / output bit over its minterms,
* constant cells for bits that are identically 0 or 1.

No logic minimisation is attempted (this is a synthesis substrate, not
espresso); the result is normalised to single-fanout form.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .builder import CircuitBuilder
from .circuit import Circuit
from .transform import normalize_fanout, sweep_dangling
from .validate import validate

__all__ = ["synthesize_stg"]


def synthesize_stg(stg, *, name: Optional[str] = None) -> Circuit:
    """Synthesise a circuit realising the machine *stg*.

    State encoding is the STG's own (latch j holds bit j of the state
    index, MSB first), so ``extract_stg(synthesize_stg(m))`` is equal to
    ``m`` entry for entry -- the round-trip property the test-suite
    checks.
    """
    n = stg.num_latches
    m = stg.num_inputs
    b = CircuitBuilder(name or ("%s_synth" % stg.name))

    input_nets = [b.input("x%d" % i) for i in range(m)]
    state_nets = [b.net("s%d" % j) for j in range(n)]

    # Shared inverters.
    not_input = [b.gate("NOT", net, name="nx%d" % i) for i, net in enumerate(input_nets)]
    not_state = [b.gate("NOT", net, name="ns%d" % j) for j, net in enumerate(state_nets)]

    def literals(state: int, symbol: int) -> List[str]:
        lits: List[str] = []
        for j in range(n):
            bit = (state >> (n - 1 - j)) & 1
            lits.append(state_nets[j] if bit else not_state[j])
        for i in range(m):
            bit = (symbol >> (m - 1 - i)) & 1
            lits.append(input_nets[i] if bit else not_input[i])
        return lits

    minterms: Dict[Tuple[int, int], str] = {}

    def minterm(state: int, symbol: int) -> str:
        key = (state, symbol)
        net = minterms.get(key)
        if net is None:
            lits = literals(state, symbol)
            if not lits:
                net = b.const(1, name="mT")
            elif len(lits) == 1:
                net = b.gate("BUF", lits[0], name="m%d_%d" % key)
            else:
                net = b.gate("AND", *lits, name="m%d_%d" % key)
            minterms[key] = net
        return net

    def sop(bit_of: "callable", label: str) -> str:
        """OR of the minterms where ``bit_of(state, symbol)`` is 1."""
        terms = [
            (s, a)
            for s in range(stg.num_states)
            for a in range(stg.num_symbols)
            if bit_of(s, a)
        ]
        total = stg.num_states * stg.num_symbols
        if not terms:
            return b.const(0, name="k0_%s" % label)
        if len(terms) == total:
            return b.const(1, name="k1_%s" % label)
        nets = [minterm(s, a) for s, a in terms]
        if len(nets) == 1:
            return b.gate("BUF", nets[0], name="or_%s" % label)
        return b.gate("OR", *nets, name="or_%s" % label)

    # Next-state logic.
    for j in range(n):
        def next_bit(s: int, a: int, _j: int = j) -> bool:
            return bool((stg.next_state[s][a] >> (n - 1 - _j)) & 1)

        data_in = sop(next_bit, "d%d" % j)
        b.latch(data_in, state_nets[j], name="ff%d" % j)

    # Output logic.
    for k in range(stg.num_outputs):
        def out_bit(s: int, a: int, _k: int = k) -> bool:
            return bool((stg.output[s][a] >> (stg.num_outputs - 1 - _k)) & 1)

        b.output(sop(out_bit, "o%d" % k))

    circuit = sweep_dangling(b.circuit)
    # Latch state nets may have been swept if a state bit drives nothing
    # -- that would change the state space, so forbid it by re-adding a
    # sink: actually a swept latch means the machine never observed that
    # bit; keep fidelity by refusing.
    if circuit.num_latches != n:
        raise ValueError(
            "synthesis dropped %d unobservable state bits of %s; the STG is "
            "not in reduced dependency form" % (n - circuit.num_latches, stg.name)
        )
    validate(circuit)
    return normalize_fanout(circuit)
