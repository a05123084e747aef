"""Symbolic (BDD-based) sequential analysis.

Pixley's SHE and the safe-replacement work the paper builds on ran
their state-space analyses symbolically; this module provides that
substrate on top of :mod:`repro.logic.bdd`:

* :class:`SymbolicMachine` -- a circuit compiled to BDDs: one next-state
  function per latch, one function per primary output, a
  **conjunctively partitioned transition relation** (one conjunct
  ``s_k' <-> f_k(s, i)`` per latch), and image/preimage operators that
  fold the fused ``relprod`` over the partition with an early
  quantification schedule -- each quantified variable is eliminated at
  the last conjunct whose support mentions it, so the intermediate
  products stay near the size of the individual conjuncts.  Whether a
  machine actually *uses* the partition is decided per machine
  (``partitioned="auto"``): partitioning pays exactly when the
  schedule's kills keep pace with the chain's variable introductions
  (shift/permutation/pipeline shapes); for entangled machines the
  monolith -- built once, reused every iteration -- wins, and auto
  mode falls back to it;
* symbolic forward reachability and the symbolic **delayed design**
  ``D^n`` (the image-of-everything chain of Section 3.4), cross-checked
  against the explicit computation in the test-suite;
* :func:`product_outputs_equivalent` -- the classic miter-style check:
  from a given set of initial *state pairs*, do two circuits produce
  identical outputs on every input sequence?  Combined with the
  delayed-state sets this decides statements like "C^1 is equivalent to
  D" (Figure 2's claim) without ever enumerating states.

Variable order: for each machine, current/next state variables are
interleaved (``s0 s0' s1 s1' ...``) so the image computation's
next-to-current renaming is order-compatible; input variables go last
and are shared between machines in product mode.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..logic.bdd import BDD, BDDManager
from ..netlist.circuit import Circuit

__all__ = [
    "SymbolicMachine",
    "cell_output_bdd",
    "net_functions",
    "symbolic_delayed_states",
    "product_outputs_equivalent",
    "relprod_chain",
]


def quantification_schedule(
    manager: BDDManager,
    partitions: Sequence[BDD],
    quantify: Sequence[str],
) -> Tuple[List[str], List[Tuple[BDD, List[str]]]]:
    """Early-quantification plan for ``exists(quantify, states & AND(partitions))``.

    Returns ``(upfront, [(partition, kill), ...])``: *upfront* are the
    quantified variables no partition mentions (eliminable from the
    state set before the chain starts); each *kill* list holds the
    variables whose **last** supporting conjunct is that partition, so
    they can be folded away by the fused ``relprod`` at that step
    instead of surviving into every later intermediate product.  The
    plan depends only on supports (stable across dynamic reordering).
    """
    last: Dict[str, int] = {}
    for idx, part in enumerate(partitions):
        support = set(manager.support(part))
        for name in quantify:
            if name in support:
                last[name] = idx
    upfront = [name for name in quantify if name not in last]
    kills: List[List[str]] = [[] for _ in partitions]
    for name, idx in last.items():
        kills[idx].append(name)
    return upfront, [(part, kill) for part, kill in zip(partitions, kills)]


def relprod_chain(
    manager: BDDManager,
    states: BDD,
    partitions: Sequence[BDD],
    quantify: Sequence[str],
    *,
    plan: Optional[Tuple[List[str], List[Tuple[BDD, List[str]]]]] = None,
) -> BDD:
    """``exists(quantify, states & AND(partitions))`` without ever
    building the conjunction: fold the fused ``relprod`` over the
    partition under an early quantification schedule.  Pass a cached
    *plan* (from :func:`quantification_schedule`) inside fixpoint loops.
    """
    if plan is None:
        plan = quantification_schedule(manager, partitions, quantify)
    upfront, steps = plan
    current = states.exists(upfront) if upfront else states
    for part, kill in steps:
        current = manager.relprod(current, part, kill)
    return current


class SymbolicMachine:
    """A circuit's functional and relational symbolic encodings.

    Parameters
    ----------
    circuit:
        The circuit to compile.
    manager:
        Shared :class:`BDDManager` (one is created when omitted).
    prefix:
        Distinguishes the state variables of multiple machines in one
        manager (product constructions).
    input_vars:
        Optional pre-built input variable handles (so two machines can
        share their primary inputs); must match the circuit's input
        count.
    partitioned:
        When true, image computation folds ``relprod`` over the
        per-latch conjuncts in :attr:`partitions`; the monolithic
        :attr:`transition` is still available but built lazily.  When
        false the historical monolithic relation is built eagerly and
        used throughout.  The default ``"auto"`` decides from support
        sparsity: partitioning pays exactly when early quantification
        can fire, so machines whose next-state functions touch at most
        half the variables on average stay partitioned, while dense
        machines -- where every conjunct mentions nearly everything and
        nothing can be quantified before the last step -- fall back to
        the monolith, which is built once and reused every iteration.
        The resolved boolean is exposed as :attr:`partitioned`.
    """

    #: ``partitioned="auto"`` keeps the machine partitioned when the
    #: image chain's working set never grows by more than this many
    #: variables over the state set itself (see
    #: :meth:`_early_quantification_pays`).
    AUTO_PARTITION_PEAK_WIDTH = 2

    def __init__(
        self,
        circuit: Circuit,
        manager: Optional[BDDManager] = None,
        *,
        prefix: str = "",
        input_vars: Optional[Sequence[BDD]] = None,
        partitioned: object = "auto",
    ) -> None:
        if partitioned not in (True, False, "auto"):
            raise ValueError(
                "partitioned must be True, False or 'auto', not %r" % (partitioned,)
            )
        self.circuit = circuit
        self.manager = manager if manager is not None else BDDManager()
        m = self.manager

        # Interleaved current/next state variables.
        self.state_names: List[str] = []
        self.next_names: List[str] = []
        self.state_vars: List[BDD] = []
        self.next_vars: List[BDD] = []
        for latch in circuit.latches:
            cur = "%ss.%s" % (prefix, latch.name)
            nxt = "%ss.%s'" % (prefix, latch.name)
            self.state_names.append(cur)
            self.next_names.append(nxt)
            self.state_vars.append(m.variable(cur))
            self.next_vars.append(m.variable(nxt))

        if input_vars is not None:
            if len(input_vars) != len(circuit.inputs):
                raise ValueError("input_vars arity mismatch")
            self.input_vars = list(input_vars)
            self.input_names = [m.support(v)[0] for v in self.input_vars]
        else:
            self.input_names = ["i.%s" % net for net in circuit.inputs]
            self.input_vars = [m.variable(name) for name in self.input_names]

        #: Next-state function per latch and output function per primary
        #: output, over (state, input) variables.
        self.next_functions, self.output_functions = net_functions(
            circuit, m, self.input_vars, self.state_vars
        )

        #: Conjunctively partitioned transition relation: one conjunct
        #: ``s_k' <-> f_k(s, i)`` per latch, in latch order.
        self.partitions: List[BDD] = [
            nxt_var.iff(fn)
            for nxt_var, fn in zip(self.next_vars, self.next_functions)
        ]
        if partitioned == "auto":
            partitioned = self._early_quantification_pays()
        self.partitioned = partitioned
        self._transition: Optional[BDD] = None
        if not partitioned:
            self._transition = m.conjunction(self.partitions)

        self._next_to_state = dict(zip(self.next_names, self.state_names))
        self._state_to_next = dict(zip(self.state_names, self.next_names))
        self._transition_by_symbol: Dict[int, BDD] = {}
        self._partitions_by_symbol: Dict[int, List[BDD]] = {}
        self._outputs_by_symbol: Dict[int, List[BDD]] = {}
        self._image_plan = None
        self._preimage_plan = None
        self._image_plan_by_symbol: Dict[int, object] = {}
        self._preimage_plan_by_symbol: Dict[int, object] = {}

    def _early_quantification_pays(self) -> bool:
        """The ``partitioned="auto"`` heuristic: partitioning wins when
        the early-quantification schedule keeps the image chain's
        working set flat.  Each chain step introduces one next-state
        variable; when the kills keep pace (shift registers,
        permutations, pipelines) every intermediate product ranges over
        about as many variables as the state set itself and the chain
        is cheap.  When introductions outrun kills -- entangled
        machines whose variables are shared across many conjuncts --
        the intermediates range over nearly everything at once, the
        chain re-pays that cost on *every* image, and the once-built
        monolith wins."""
        if not self.partitions:
            return False
        quantify = self.state_names + self.input_names
        _, steps = quantification_schedule(
            self.manager, self.partitions, quantify
        )
        peak = balance = 0
        for _, kill in steps:
            balance += 1 - len(kill)
            if balance > peak:
                peak = balance
        return peak <= self.AUTO_PARTITION_PEAK_WIDTH

    @property
    def transition(self) -> BDD:
        """The monolithic transition relation ``T(s, i, s')`` (built on
        first access when the machine is partitioned)."""
        if self._transition is None:
            self._transition = self.manager.conjunction(self.partitions)
        return self._transition

    # -- state-set helpers ---------------------------------------------------

    def state_cube(self, bits: Sequence[bool]) -> BDD:
        """The singleton set containing exactly this latch valuation."""
        if len(bits) != len(self.state_vars):
            raise ValueError("state width mismatch")
        return self.manager.cube(
            {name: bool(bit) for name, bit in zip(self.state_names, bits)}
        )

    def all_states(self) -> BDD:
        """The full state set (every power-up state is legal)."""
        return self.manager.true

    def count_states(self, states: BDD) -> int:
        """Number of states in a set over this machine's state vars."""
        # Quantify out anything that is not a state variable.
        extraneous = [
            name for name in self.manager.support(states)
            if name not in self.state_names
        ]
        reduced = states.exists(extraneous)
        return self.manager.count(reduced, self.state_names)

    def enumerate_states(self, states: BDD) -> Iterable[Tuple[bool, ...]]:
        """Yield the concrete states of a (small) symbolic set, in
        latch order."""
        remaining = states
        while not remaining.is_false:
            model = remaining.satisfy_one()
            assert model is not None
            full = {name: model.get(name, False) for name in self.state_names}
            bits = tuple(full[name] for name in self.state_names)
            yield bits
            remaining = remaining & ~self.state_cube(bits)

    # -- per-input-symbol views ----------------------------------------------

    def input_assignment(self, symbol: int) -> Dict[str, bool]:
        """The concrete input valuation of an encoded input *symbol*
        (bit 0 of the circuit's input list is the most significant --
        the :class:`repro.stg.explicit.STG` convention)."""
        width = len(self.input_names)
        return {
            name: bool((symbol >> (width - 1 - i)) & 1)
            for i, name in enumerate(self.input_names)
        }

    def transition_for(self, symbol: int) -> BDD:
        """The transition relation cofactored at one input symbol,
        ``T(s, s') = T(s, i=symbol, s')`` (cached per symbol)."""
        cached = self._transition_by_symbol.get(symbol)
        if cached is None:
            if self.partitioned:
                cached = self.manager.conjunction(self.partitions_for(symbol))
            else:
                cached = self.transition.restrict(self.input_assignment(symbol))
            self._transition_by_symbol[symbol] = cached
        return cached

    def partitions_for(self, symbol: int) -> List[BDD]:
        """The per-latch conjuncts cofactored at one input symbol
        (cached per symbol) -- tiny compared to the monolithic
        restriction, and what :meth:`image_for` / :meth:`preimage_for`
        fold over."""
        cached = self._partitions_by_symbol.get(symbol)
        if cached is None:
            assignment = self.input_assignment(symbol)
            cached = [part.restrict(assignment) for part in self.partitions]
            self._partitions_by_symbol[symbol] = cached
        return cached

    def outputs_for(self, symbol: int) -> List[BDD]:
        """Output functions cofactored at one input symbol (cached)."""
        cached = self._outputs_by_symbol.get(symbol)
        if cached is None:
            assignment = self.input_assignment(symbol)
            cached = [fn.restrict(assignment) for fn in self.output_functions]
            self._outputs_by_symbol[symbol] = cached
        return cached

    # -- image operators ---------------------------------------------------------

    def image(self, states: BDD) -> BDD:
        """One-step forward image under all inputs (fused and-exists,
        folded over the partition when partitioned)."""
        quantify = self.state_names + self.input_names
        if self.partitioned:
            if self._image_plan is None:
                self._image_plan = quantification_schedule(
                    self.manager, self.partitions, quantify
                )
            step = relprod_chain(
                self.manager, states, self.partitions, quantify,
                plan=self._image_plan,
            )
        else:
            step = self.manager.relprod(states, self.transition, quantify)
        return step.rename(self._next_to_state)

    def preimage(self, states: BDD) -> BDD:
        """One-step backward image under all inputs."""
        primed = states.rename(self._state_to_next)
        quantify = self.next_names + self.input_names
        if self.partitioned:
            if self._preimage_plan is None:
                self._preimage_plan = quantification_schedule(
                    self.manager, self.partitions, quantify
                )
            return relprod_chain(
                self.manager, primed, self.partitions, quantify,
                plan=self._preimage_plan,
            )
        return self.manager.relprod(primed, self.transition, quantify)

    def image_for(self, symbol: int, states: BDD) -> BDD:
        """One-step forward image under a single input symbol -- the
        per-edge step of the subset fixpoint, folded over the cofactored
        partition so the monolithic per-symbol relation is never needed."""
        if not self.partitioned:
            step = self.manager.relprod(
                states, self.transition_for(symbol), self.state_names
            )
            return step.rename(self._next_to_state)
        plan = self._image_plan_by_symbol.get(symbol)
        parts = self.partitions_for(symbol)
        if plan is None:
            plan = quantification_schedule(self.manager, parts, self.state_names)
            self._image_plan_by_symbol[symbol] = plan
        step = relprod_chain(self.manager, states, parts, self.state_names, plan=plan)
        return step.rename(self._next_to_state)

    def preimage_for(self, symbol: int, states_primed: BDD) -> BDD:
        """One-step backward image under a single input symbol;
        *states_primed* is already over next-state variables (the
        witness-reconstruction convention)."""
        if not self.partitioned:
            return self.manager.relprod(
                states_primed, self.transition_for(symbol), self.next_names
            )
        plan = self._preimage_plan_by_symbol.get(symbol)
        parts = self.partitions_for(symbol)
        if plan is None:
            plan = quantification_schedule(self.manager, parts, self.next_names)
            self._preimage_plan_by_symbol[symbol] = plan
        return relprod_chain(
            self.manager, states_primed, parts, self.next_names, plan=plan
        )

    def reachable(self, initial: BDD) -> BDD:
        """Least fixpoint of the image from *initial*."""
        frontier = initial
        total = initial
        while True:
            new = self.image(frontier) & ~total
            if new.is_false:
                return total
            total = total | new
            frontier = new

    def delayed(self, cycles: int) -> BDD:
        """The symbolic delayed design ``D^cycles`` (Section 3.4)."""
        current = self.all_states()
        for _ in range(cycles):
            current = self.image(current)
        return current


def net_functions(
    circuit: Circuit,
    manager: BDDManager,
    input_vars: Sequence[BDD],
    state_vars: Sequence[BDD],
) -> Tuple[List[BDD], List[BDD]]:
    """Every latch's next-state function and every primary output's
    function, as BDDs over *input_vars* and *state_vars* (one each per
    input and latch, in the circuit's order)."""
    values: Dict[str, BDD] = dict(zip(circuit.inputs, input_vars))
    for latch, var in zip(circuit.latches, state_vars):
        values[latch.data_out] = var
    for cell_name in circuit.topological_cells():
        cell = circuit.cell(cell_name)
        in_vals = [values[n] for n in cell.inputs]
        for pin, net in enumerate(cell.outputs):
            values[net] = cell_output_bdd(manager, cell.function, in_vals, pin)
    return (
        [values[latch.data_in] for latch in circuit.latches],
        [values[net] for net in circuit.outputs],
    )


def cell_output_bdd(
    manager: BDDManager, function, inputs: List[BDD], pin: int
) -> BDD:
    """One output pin of a cell as a BDD, by family dispatch with a
    Shannon-expansion fallback for exotic cells."""
    family = function.name.rstrip("0123456789")
    if family == "AND":
        return manager.conjunction(inputs)
    if family == "OR":
        return manager.disjunction(inputs)
    if family == "NAND":
        return ~manager.conjunction(inputs)
    if family == "NOR":
        return ~manager.disjunction(inputs)
    if family == "XOR":
        acc = manager.false
        for value in inputs:
            acc = acc ^ value
        return acc
    if family == "XNOR":
        acc = manager.false
        for value in inputs:
            acc = acc ^ value
        return ~acc
    if family == "NOT":
        return ~inputs[0]
    if family in ("BUF", "JUNC"):
        return inputs[0]
    if family == "CONST":
        return manager.constant(function.name.endswith("1"))
    if family == "MUX":
        select, when_zero, when_one = inputs
        return (select & when_one) | (~select & when_zero)
    # Fallback: sum of minterms of the truth table.
    import itertools

    acc = manager.false
    for bits in itertools.product((False, True), repeat=function.n_inputs):
        if function.eval_binary(bits)[pin]:
            cube = manager.true
            for value, bit in zip(inputs, bits):
                cube = cube & (value if bit else ~value)
            acc = acc | cube
    return acc


def symbolic_delayed_states(circuit: Circuit, cycles: int) -> frozenset:
    """The state set of ``D^cycles`` as integers (MSB = latch 0),
    computed symbolically -- the BDD counterpart of
    :func:`repro.stg.delayed.delayed_states`."""
    machine = SymbolicMachine(circuit)
    states = machine.delayed(cycles)
    result = set()
    for bits in machine.enumerate_states(states):
        value = 0
        for bit in bits:
            value = (value << 1) | int(bit)
        result.add(value)
    return frozenset(result)


def product_outputs_equivalent(
    c: Circuit,
    d: Circuit,
    initial_pairs: Optional[BDD] = None,
    *,
    machines: Optional[Tuple[SymbolicMachine, SymbolicMachine]] = None,
) -> Tuple[bool, Optional[Dict[str, bool]]]:
    """Miter check: from every initial state pair, do C and D produce
    identical outputs on every input sequence?

    Builds both machines in one manager with shared inputs, computes
    the reachable product states from *initial_pairs* (default: the
    full product -- rarely what you want; pass e.g. the pairs of
    delayed states), and searches for a reachable pair and input vector
    with differing outputs.

    Returns ``(equivalent, counterexample_assignment)`` where the
    counterexample (if any) assigns the state and input variables of
    the offending configuration.
    """
    if machines is not None:
        mc, md = machines
        manager = mc.manager
    else:
        manager = BDDManager()
        mc = SymbolicMachine(c, manager, prefix="c.")
        md = SymbolicMachine(d, manager, prefix="d.", input_vars=mc.input_vars)
    if len(mc.output_functions) != len(md.output_functions):
        raise ValueError("output arity mismatch")

    state_names = mc.state_names + md.state_names
    next_names = mc.next_names + md.next_names
    rename = {**mc._next_to_state, **md._next_to_state}  # noqa: SLF001
    input_names = mc.input_names
    quantify = state_names + input_names
    # The product relation stays partitioned: one conjunct per latch of
    # either machine, folded by the fused relprod under one schedule.
    partitions = mc.partitions + md.partitions
    plan = quantification_schedule(manager, partitions, quantify)

    mismatch = manager.false
    for fc, fd in zip(mc.output_functions, md.output_functions):
        mismatch = mismatch | (fc ^ fd)

    current = initial_pairs if initial_pairs is not None else manager.true
    total = current
    while True:
        bad = total & mismatch
        if not bad.is_false:
            return False, bad.satisfy_one()
        step = relprod_chain(manager, total, partitions, quantify, plan=plan)
        new = step.rename(rename) & ~total
        if new.is_false:
            return True, None
        total = total | new
