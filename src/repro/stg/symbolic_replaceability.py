"""Symbolic decision procedures for the paper's containment orders.

The explicit path (:mod:`repro.stg.replaceability`,
:mod:`repro.stg.equivalence`, :mod:`repro.stg.delayed`) enumerates the
``2**latches``-state STGs and then runs a subset construction that is
exponential *again* in the worst case -- nothing near ISCAS-89 scale is
checkable.  This module decides the same three statements entirely with
BDDs, the way the paper's community (Pixley's SHE, [PSAB94]) ran them:

* **implication** ``C ⊑ D`` (Section 3.3): the greatest fixpoint of the
  output-compatible pair relation,

  .. math::

     E_0(c, d) = \\forall i.\\ \\lambda_C(c,i) = \\lambda_D(d,i), \\qquad
     E_{k+1}(c, d) = E_k(c,d) \\wedge
        \\forall i.\\ E_k(\\delta_C(c,i), \\delta_D(d,i)),

  computed relationally with the fused and-exists
  (:meth:`~repro.logic.bdd.BDDManager.relprod`) so the product
  transition relation is never conjoined with anything explicitly.
  ``C ⊑ D`` iff every C-state has an E-partner in D.
* **delayed containment** ``Cⁿ ⊑ D`` (Prop 4.2 / Thm 4.5): the
  image-of-everything chain of :meth:`SymbolicMachine.delayed`
  intersected with the same partner relation.
* **safe replacement** ``C ≼ D`` (Section 3.3, [PSAB94]): the subset
  construction of :func:`repro.stg.replaceability.find_violation`, run
  as a *symbolic* breadth-first fixpoint.  A search node is a pair
  ``(A, S)`` where ``A`` is a BDD over C's state variables (every
  C-state currently sharing the same matching history) and ``S`` a BDD
  over D's state variables (the D-states whose outputs have matched
  that history).  One explicit subset per *distinct* matcher set, one
  BDD for the -- possibly exponentially many -- C-states that reached
  it: the state-count blow-up of the explicit engine becomes BDD width.
  ``C ⋠ D`` iff some node with non-empty ``A`` reaches ``S = ∅``; the
  breadth-first frontier chain then yields a **minimal-length**
  counterexample input string, reconstructed by walking concrete
  (input, output) symbols back to a concrete power-up state of C --
  the same :class:`SafeReplacementViolation` witness the explicit
  engine emits.

Because ``C ⊑ D  ⇒  C ≼ D`` (Proposition 3.1), the safe-replacement
check first runs the (cheap, well-scaling) implication fixpoint and
only falls back to the subset fixpoint when implication fails; pass
``use_implication_shortcut=False`` to force the subset machinery.

Engine selection
----------------

:func:`repro.decide.decide` chooses among the three engines and maps a
search budget onto ``max_buckets`` here; :func:`resolve_engine` stays
importable from this module for older callers.

Dynamic variable reordering
---------------------------

The checker builds both machines with **conjunctively partitioned**
transition relations where partitioning pays
(``partitioned="auto"``, resolved per machine from the early
quantification schedule -- see :mod:`repro.stg.symbolic`; pass
``True``/``False`` to force it) and threads the
manager's dynamic-reordering knob: ``reorder="auto"`` (the process
default, changeable via :func:`set_default_reorder` / ``--reorder``)
lets the manager sift itself when it crosses its node threshold,
``"manual"`` sifts exactly once after compilation, ``"off"`` pins the
declaration order.  A checker handed a manager runs in, and reports,
that manager's mode.  Verdicts and minimal-length witnesses are
bit-identical in every mode and partitioning -- the orders are decided
over canonical functions and witnesses are reconstructed
lexicographically -- so the knob only trades node count against wall
time (``tests/stg/test_reorder_differential.py`` locks this down).

All fixpoints run bounded: the subset search raises
:class:`~repro.stg.replaceability.SearchBudgetExceeded` beyond
``max_buckets`` nodes, and each of the three fixpoint loops
garbage-collects the BDD manager once its live node count passes
:data:`GC_NODE_LIMIT`.  A node lives while a live handle reaches it
(the contract of :mod:`repro.logic.bdd`), so a collection keeps what
the checker, its machines and the loop still hold -- and each loop
drops an iteration's intermediates before its collect point.
Per-operation BDD counters land in ``repro.obs`` (counters ``bdd.*``,
spans ``stg.symbolic.*``) whenever tracing is on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..logic.bdd import BDD, BDDManager, REORDER_MODES
from ..netlist.circuit import Circuit
from ..netlist.validate import check_interfaces
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .replaceability import SafeReplacementViolation, SearchBudgetExceeded
from .symbolic import SymbolicMachine, quantification_schedule, relprod_chain

__all__ = [
    "REORDER_MODES",
    "MAX_SYMBOLIC_BUCKETS",
    "GC_NODE_LIMIT",
    "SymbolicContainmentChecker",
    "get_default_reorder",
    "set_default_reorder",
    "resolve_reorder",
    "symbolic_delay_needed_for_implication",
]

#: Budget on subset-fixpoint search nodes (distinct ``(A, S)`` buckets
#: processed), the symbolic analogue of ``MAX_SUBSET_STATES``.
MAX_SYMBOLIC_BUCKETS = 50000

#: Live-node high-water mark that triggers a mark-and-sweep collection
#: inside the fixpoint loops.
GC_NODE_LIMIT = 400000

_DEFAULT_REORDER = "auto"


def get_default_reorder() -> str:
    """The process-wide BDD reordering mode (``--reorder`` default)."""
    return _DEFAULT_REORDER


def set_default_reorder(mode: str) -> None:
    """Install the process-wide BDD reordering mode default.

    ``auto`` (the default) lets the manager sift when the live node
    count crosses its threshold; ``off`` pins the declaration order
    (the historical behaviour); ``manual`` sifts exactly once, after
    both machines are compiled.  Verdicts and witnesses are identical
    in every mode -- the differential suite asserts it -- only node
    counts and wall time differ.
    """
    global _DEFAULT_REORDER
    if mode not in REORDER_MODES:
        raise ValueError(
            "unknown reorder mode %r (choose from %s)" % (mode, REORDER_MODES)
        )
    _DEFAULT_REORDER = mode


def resolve_reorder(mode: Optional[str]) -> str:
    """Map a ``--reorder`` value (or ``None`` = process default) to a
    concrete mode name."""
    name = mode if mode is not None else _DEFAULT_REORDER
    if name not in REORDER_MODES:
        raise ValueError(
            "unknown reorder mode %r (choose from %s)" % (name, REORDER_MODES)
        )
    return name


def __getattr__(name: str):
    # ``resolve_engine`` lives in :mod:`repro.decide`, which imports
    # this module; resolving it lazily keeps the old import path.
    if name == "resolve_engine":
        from ..decide import resolve_engine

        return resolve_engine
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _publish_bdd_stats(manager: BDDManager) -> None:
    """Fold the manager's per-operation counters into the tracer."""
    if _TRACE.enabled:
        for key, value in manager.stats.items():
            if value:
                _TRACE.incr("bdd.%s" % key, value)


class _Bucket:
    """One node of the symbolic subset fixpoint: the C-states ``a_set``
    that reached matcher set ``subset`` along the same-length history
    recorded by the ``parent``/``symbol``/``out`` chain."""

    __slots__ = ("a_set", "subset", "parent", "symbol", "out")

    def __init__(
        self,
        a_set: BDD,
        subset: BDD,
        parent: Optional["_Bucket"],
        symbol: Optional[int],
        out: Optional[int],
    ) -> None:
        self.a_set = a_set
        self.subset = subset
        self.parent = parent
        self.symbol = symbol
        self.out = out


class SymbolicContainmentChecker:
    """Both machines compiled into one BDD manager, with the paper's
    three containment questions as methods.

    The equivalence relation (the expensive fixpoint) is computed once
    and shared by :meth:`implies`, :meth:`delayed_implies`,
    :meth:`delay_needed` and the Proposition 3.1 shortcut of
    :meth:`find_violation`.

    *reorder* sets the reordering mode (see :func:`resolve_reorder`);
    left ``None``, a passed *manager* keeps its own mode and a fresh one
    gets the process default.  :attr:`reorder` is the mode the manager
    runs in.
    """

    def __init__(
        self,
        c: Circuit,
        d: Circuit,
        *,
        manager: Optional[BDDManager] = None,
        reorder: Optional[str] = None,
        partitioned: object = "auto",
    ) -> None:
        check_interfaces(c, d)
        self.c = c
        self.d = d
        if manager is None:
            manager = BDDManager(reorder=resolve_reorder(reorder))
        elif reorder is not None:
            manager.reorder_mode = resolve_reorder(reorder)
        self.manager = manager
        self.reorder = manager.reorder_mode
        with _span("stg.symbolic.compile"):
            self.mc = SymbolicMachine(
                c, self.manager, prefix="c.", partitioned=partitioned
            )
            self.md = SymbolicMachine(
                d,
                self.manager,
                prefix="d.",
                input_vars=self.mc.input_vars,
                partitioned=partitioned,
            )
        # The product fixpoints chain conjuncts only when both machines
        # resolved to partitioned (with "auto", per support sparsity).
        self.partitioned = self.mc.partitioned and self.md.partitioned
        if self.reorder == "manual":
            # One sifting pass at the natural safe point: both machines
            # compiled, no fixpoint in flight.
            with _span("stg.symbolic.reorder"):
                self.manager.reorder()
        self._equivalence: Optional[BDD] = None
        self._has_partner: Optional[BDD] = None

    def _maybe_collect(self) -> None:
        """A fixpoint loop's collect point: everything the caller no
        longer holds is garbage once the table passes the limit."""
        if self.manager.live_node_count > GC_NODE_LIMIT:
            self.manager.collect()

    # -- the pair-equivalence fixpoint ------------------------------------

    def equivalence_relation(self) -> BDD:
        """The greatest fixpoint ``E(c, d)`` -- state ``c`` of C is
        equivalent to state ``d`` of D -- over both machines' current
        state variables."""
        if self._equivalence is not None:
            return self._equivalence
        manager, mc, md = self.manager, self.mc, self.md
        with _span("stg.symbolic.equivalence"):
            relation = manager.true
            for fc, fd in zip(mc.output_functions, md.output_functions):
                relation = relation & fc.iff(fd)
            relation = relation.forall(mc.input_names)
            prime = {**mc._state_to_next, **md._state_to_next}  # noqa: SLF001
            quantify = mc.input_names + mc.next_names + md.next_names
            if self.partitioned:
                # The product relation stays a list of per-latch
                # conjuncts; the chain folds them under one early
                # quantification schedule.
                partitions = mc.partitions + md.partitions
                plan = quantification_schedule(manager, partitions, quantify)

                def preimage(target: BDD) -> BDD:
                    return relprod_chain(manager, target, partitions, quantify, plan=plan)

            else:
                product = mc.transition & md.transition

                def preimage(target: BDD) -> BDD:
                    return manager.relprod(product, target, quantify)

            iterations = 0
            while True:
                iterations += 1
                # Drop the pairs with SOME input stepping outside the
                # relation; the step's intermediates die with this line.
                refined = relation & ~preimage(~relation.rename(prime))
                if refined == relation:
                    break
                relation = refined
                self._maybe_collect()
        self._equivalence = relation
        self._has_partner = relation.exists(md.state_names)
        if _TRACE.enabled:
            _TRACE.incr("stg.symbolic.equivalence_iterations", iterations)
        _publish_bdd_stats(manager)
        return relation

    def _partner_states(self) -> BDD:
        """C-states with at least one equivalent D-state."""
        self.equivalence_relation()
        assert self._has_partner is not None
        return self._has_partner

    # -- the containment questions -----------------------------------------

    def implies(self) -> bool:
        """The paper's ``C ⊑ D``, decided symbolically."""
        return self._partner_states().forall(self.mc.state_names).is_true

    def delayed_implies(self, cycles: int) -> bool:
        """Decide ``C^cycles ⊑ D`` (Prop 4.2 / Thm 4.5 consequent)."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        partnered = self._partner_states()
        with _span("stg.symbolic.delayed"):
            survivors = self.mc.delayed(cycles)
        return (survivors & ~partnered).is_false

    def delay_needed(self, *, max_cycles: Optional[int] = None) -> Optional[int]:
        """The least n with ``C^n ⊑ D``, or ``None`` if no delay
        suffices (the chain stabilised without containment)."""
        partnered = self._partner_states()
        current = self.manager.true
        seen: set = set()
        n = 0
        with _span("stg.symbolic.delay_needed"):
            while max_cycles is None or n <= max_cycles:
                if (current & ~partnered).is_false:
                    return n
                if current in seen:
                    return None
                seen.add(current)
                current = self.mc.image(current)
                n += 1
                self._maybe_collect()
        return None

    # -- safe replacement ---------------------------------------------------

    def find_violation(
        self,
        *,
        max_buckets: int = MAX_SYMBOLIC_BUCKETS,
        use_implication_shortcut: bool = True,
    ) -> Optional[SafeReplacementViolation]:
        """Search for a counterexample to ``C ≼ D``; ``None`` when C is
        a safe replacement for D.  Minimal-length witness, as for the
        explicit engine."""
        if _TRACE.enabled:
            _TRACE.incr("stg.replaceability.symbolic_checks")
        with _span("stg.symbolic.safe_replacement"):
            if use_implication_shortcut and self.implies():
                # Proposition 3.1: C ⊑ D  ⇒  C ≼ D.
                return None
            return self._subset_fixpoint(max_buckets)

    def is_safe_replacement(self, **kwargs) -> bool:
        """Decide the paper's ``C ≼ D`` symbolically."""
        return self.find_violation(**kwargs) is None

    def _output_cube(
        self, machine: SymbolicMachine, symbol: int, out_symbol: int, cache: Dict
    ) -> BDD:
        """States of *machine* emitting the encoded *out_symbol* under
        input *symbol* (MSB-first output encoding, as the STG uses)."""
        key = (symbol, out_symbol)
        cached = cache.get(key)
        if cached is None:
            width = len(machine.output_functions)
            cached = self.manager.true
            for j, fn in enumerate(machine.outputs_for(symbol)):
                bit = (out_symbol >> (width - 1 - j)) & 1
                cached = cached & (fn if bit else ~fn)
            cache[key] = cached
        return cached

    def _subset_fixpoint(
        self, max_buckets: int
    ) -> Optional[SafeReplacementViolation]:
        manager = self.manager
        c_cubes: Dict = {}
        d_cubes: Dict = {}
        root = _Bucket(manager.true, manager.true, None, None, None)
        # subset -> the C-states already seen with it
        seen: Dict[BDD, BDD] = {root.subset: root.a_set}
        frontier: List[_Bucket] = [root]
        processed = 0

        while frontier:
            next_frontier: List[_Bucket] = []
            for bucket in frontier:
                processed += 1
                if processed > max_buckets:
                    raise SearchBudgetExceeded(
                        "symbolic safe-replacement search exceeded %d buckets"
                        % max_buckets
                    )
                violation = self._expand(bucket, seen, c_cubes, d_cubes, next_frontier)
                if violation is not None:
                    if _TRACE.enabled:
                        _TRACE.incr("stg.symbolic.buckets", processed)
                    _publish_bdd_stats(manager)
                    return self._reconstruct(bucket, *violation)
            # Live now: the new frontier with the parent chains a
            # violation is reconstructed through, ``seen`` and the
            # output-cube caches.  The loop variable would also keep one
            # childless bucket alive.
            frontier = next_frontier
            del bucket
            self._maybe_collect()
        if _TRACE.enabled:
            _TRACE.incr("stg.symbolic.buckets", processed)
        _publish_bdd_stats(manager)
        return None

    def _expand(
        self,
        bucket: _Bucket,
        seen: Dict[BDD, BDD],
        c_cubes: Dict,
        d_cubes: Dict,
        children: List[_Bucket],
    ) -> Optional[Tuple[int, int, BDD]]:
        """Append *bucket*'s successors with unseen C-states to
        *children*; or, when an output C emits from *bucket* leaves no
        D-state matching, return that violation's ``(symbol, out,
        emitting C-states)``."""
        mc, md = self.mc, self.md
        for symbol in range(1 << len(self.c.inputs)):
            for out in range(1 << len(self.c.outputs)):
                emitting = bucket.a_set & self._output_cube(mc, symbol, out, c_cubes)
                if emitting.is_false:
                    continue
                matched = bucket.subset & self._output_cube(md, symbol, out, d_cubes)
                new_subset = md.image_for(symbol, matched)
                if new_subset.is_false:
                    return symbol, out, emitting
                new_a = mc.image_for(symbol, emitting)
                previous = seen.get(new_subset)
                if previous is None:
                    previous = self.manager.false
                fresh = new_a & ~previous
                if fresh.is_false:
                    continue
                seen[new_subset] = previous | fresh
                children.append(_Bucket(fresh, new_subset, bucket, symbol, out))
        return None

    def _reconstruct(
        self, bucket: _Bucket, symbol: int, out: int, emitting: BDD
    ) -> SafeReplacementViolation:
        """Walk the frontier chain back to a concrete power-up state of
        C and the concrete input/output strings of the violation."""
        mc = self.mc
        prime_c = mc._state_to_next  # noqa: SLF001
        c_cubes: Dict = {}
        symbols: List[int] = [symbol]
        outputs: List[int] = [out]
        current = emitting  # violating C-states at *bucket*'s depth
        node = bucket
        while node.parent is not None:
            assert node.symbol is not None and node.out is not None
            symbols.append(node.symbol)
            outputs.append(node.out)
            # Parent states that emit node.out and step into `current`.
            primed = current.rename(prime_c)
            predecessors = mc.preimage_for(node.symbol, primed)
            current = (
                node.parent.a_set
                & self._output_cube(mc, node.symbol, node.out, c_cubes)
                & predecessors
            )
            node = node.parent
        symbols.reverse()
        outputs.reverse()
        model = current.satisfy_one()
        assert model is not None, "violation chain lost its start states"
        state = 0
        for name in mc.state_names:
            state = (state << 1) | int(model.get(name, False))
        return SafeReplacementViolation(
            c_state=state,
            input_symbols=tuple(symbols),
            c_outputs=tuple(outputs),
        )


# ---------------------------------------------------------------------------
# Module-level one-shot entry point.
# ---------------------------------------------------------------------------


def symbolic_delay_needed_for_implication(
    c: Circuit, d: Circuit, *, max_cycles: Optional[int] = None
) -> Optional[int]:
    """One-shot least n with ``C^n ⊑ D``, or ``None``."""
    return SymbolicContainmentChecker(c, d).delay_needed(max_cycles=max_cycles)
