"""Reduced Ordered Binary Decision Diagrams, from scratch.

The verification layer the paper's community ran on (Pixley's SHE
implementation [Pix92], the safe-replacement checks of [PSAB94]) was
built on ROBDDs.  This module provides a compact, dependency-free BDD
manager sufficient for the symbolic analyses in
:mod:`repro.stg.symbolic` and the symbolic containment engine in
:mod:`repro.stg.symbolic_replaceability`:

* hash-consed nodes (a *unique table*), so equality of functions is
  pointer equality of node indices;
* the Shannon-expansion ``ite`` (if-then-else) core with memoisation,
  from which all Boolean connectives derive;
* restriction (cofactors), recursive existential/universal
  quantification over variable sets, variable-to-variable renaming (the
  next-state <-> current-state substitution of image computation) and
  vector composition (functions for variables: a relation evaluated at
  the next state without a transition relation);
* a fused and-exists operator :meth:`BDDManager.relprod` -- the
  relational-product workhorse of image computation, which never
  materialises the (often huge) intermediate conjunction;
* **bounded computed tables**: every operation cache is capped at
  :data:`CACHE_LIMIT` entries and flushed wholesale when full, so a long
  fixpoint run cannot grow memoisation without bound;
* **mark-and-sweep garbage collection** (:meth:`collect`) rooted at the
  live :class:`BDD` handles, recycling node slots through a free list
  while keeping hash-consing canonical for the survivors;
* **dynamic variable reordering** (Rudell sifting): adjacent-level
  swaps as the in-place primitive (:meth:`swap_adjacent`), full sifting
  passes (:meth:`reorder`), and an automatic trigger at a live-node
  threshold (``reorder="auto"``) -- see the contract below;
* per-operation counters in :attr:`BDDManager.stats` (ite calls, cache
  hits, evictions, GC runs, nodes created, ``reorder.*``) that the
  symbolic engines surface through ``repro.obs`` as ``bdd.*``;
* satisfy-one, model counting and support extraction.

Variable order and reordering
-----------------------------

Variables carry a stable *id* (their registration order, the order of
:meth:`BDDManager.variable` calls) and a mutable *level* (their current
position in the diagram order).  With ``reorder="off"`` (the default)
id and level coincide forever -- the historical fixed-order behaviour.
:meth:`reorder` runs one Rudell sifting pass: each variable is moved
through the order by adjacent-level swaps to its locally best level,
with the excursion abandoned once the table grows past :data:`MAX_GROWTH`
times its size at the start of that variable's sift.  With
``reorder="auto"`` a sifting pass fires automatically whenever the live
node count crosses ``reorder_threshold`` (and thereafter each time it
doubles past the post-sift size); ``reorder="manual"`` never
auto-triggers but documents that the owner will call :meth:`reorder`
at moments of its choosing.

**Liveness contract.**  A node lives while a live :class:`BDD` handle
reaches it, and neither :meth:`collect` nor :meth:`reorder` invalidates
a handle.  The manager tracks every handle through a weak reference, so
the live handles are the roots of both: a collection frees exactly the
nodes no handle reaches, and a swap frees only cofactor nodes that no
handle or parent references any more.  Reordering is *in place*: a
node's index keeps denoting the same Boolean function across any
sequence of swaps and sifts, so handles -- and sets and dicts keyed on
them -- stay valid, and canonicity (equal functions <=> equal indices)
is preserved.  A caller releases an intermediate by dropping its last
handle; one kept by mistake costs memory, never correctness.
Auto-reordering only ever fires at public operation boundaries (never
inside a recursion), where no partially-built diagram exists.

**Cache-invalidation contract.**  A swap can free nodes (dead cofactor
nodes of the two affected levels), so all operation caches (``ite``,
``exists``, ``relprod``) are flushed at the start of every reorder --
cached entries are function-correct across a pure swap, but may name
freed slots.  The interned quantified-variable sets (``qsets``) are
keyed by stable variable ids and survive reordering unchanged.

Node representation: index into parallel arrays; node 0 is the constant
FALSE, node 1 the constant TRUE.  Every node satisfies the ROBDD
invariants (``low != high``, children at deeper levels), so semantic
equivalence really is index equality -- a property the test suite
checks against brute-force truth tables and across random reorders.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BDDManager",
    "BDD",
    "CACHE_LIMIT",
    "DEFAULT_REORDER_THRESHOLD",
    "MAX_GROWTH",
    "REORDER_MODES",
    "NodeLimitExceeded",
]

FALSE_INDEX = 0
TRUE_INDEX = 1

#: Bound on each operation cache (``ite``, ``exists``, ``relprod``), in
#: entries, not nodes.  A full cache is flushed (counted in
#: ``stats["cache_evictions"]``): only recomputation cost, never
#: correctness.
CACHE_LIMIT = 1 << 20

#: Live-node count at which ``reorder="auto"`` fires its first sift.
#: Deliberately high: a sifting pass is O(variables x nodes) of pure
#: Python, so at this scale one run costs on the order of a minute --
#: worth it only against a computation that would otherwise blow up.
#: Auto mode is a last-resort rescue, not a routine optimisation;
#: workloads that want eager reordering pass a lower threshold.
DEFAULT_REORDER_THRESHOLD = 500_000

#: A sifted variable's excursion is abandoned once the table exceeds
#: this factor of its size when the variable's sift started.
MAX_GROWTH = 1.2

#: Accepted values for the ``reorder`` knob, here and downstream
#: (``SymbolicContainmentChecker``, the CLI's ``--reorder``).
REORDER_MODES = ("off", "auto", "manual")

_FREED = -2  # sentinel var id marking a slot on the free list


class NodeLimitExceeded(MemoryError):
    """The unique table outgrew the manager's ``node_limit``.

    Subclasses :class:`MemoryError` so the budget-discipline paths that
    already map blown search budgets to "undecided" verdicts (the CLI's
    exit 2, the service's ``budget-exceeded`` envelope) treat a blown
    node budget the same way.
    """


class BDD:
    """A handle to one function in a :class:`BDDManager`.

    Handles support the Boolean operators (``&``, ``|``, ``^``, ``~``)
    and comparisons; they are only meaningful within their manager.
    Live handles are tracked (weakly) by the manager: they are the roots
    of garbage collection and reordering, and stay valid across both.
    """

    __slots__ = ("manager", "index", "__weakref__")

    def __init__(self, manager: "BDDManager", index: int) -> None:
        self.manager = manager
        self.index = index
        manager._track(self)

    # -- operators -------------------------------------------------------

    def _check(self, other: "BDD") -> None:
        if self.manager is not other.manager:
            raise ValueError("BDD operands belong to different managers")

    def __and__(self, other: "BDD") -> "BDD":
        self._check(other)
        m = self.manager
        m._maybe_reorder()
        return BDD(m, m._ite(self.index, other.index, FALSE_INDEX))

    def __or__(self, other: "BDD") -> "BDD":
        self._check(other)
        m = self.manager
        m._maybe_reorder()
        return BDD(m, m._ite(self.index, TRUE_INDEX, other.index))

    def __xor__(self, other: "BDD") -> "BDD":
        self._check(other)
        m = self.manager
        m._maybe_reorder()
        not_other = m._ite(other.index, FALSE_INDEX, TRUE_INDEX)
        return BDD(m, m._ite(self.index, not_other, other.index))

    def __invert__(self) -> "BDD":
        m = self.manager
        m._maybe_reorder()
        return BDD(m, m._ite(self.index, FALSE_INDEX, TRUE_INDEX))

    def iff(self, other: "BDD") -> "BDD":
        """Logical biconditional (XNOR)."""
        return ~(self ^ other)

    def implies(self, other: "BDD") -> "BDD":
        """Logical implication."""
        self._check(other)
        m = self.manager
        m._maybe_reorder()
        return BDD(m, m._ite(self.index, other.index, TRUE_INDEX))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BDD)
            and other.manager is self.manager
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.index))

    def __repr__(self) -> str:
        if self.index == FALSE_INDEX:
            return "<BDD FALSE>"
        if self.index == TRUE_INDEX:
            return "<BDD TRUE>"
        return "<BDD node %d, %d nodes>" % (self.index, self.manager.size_of(self))

    # -- predicates --------------------------------------------------------

    @property
    def is_false(self) -> bool:
        return self.index == FALSE_INDEX

    @property
    def is_true(self) -> bool:
        return self.index == TRUE_INDEX

    # -- conveniences delegating to the manager ------------------------------

    def restrict(self, assignment: Dict[str, bool]) -> "BDD":
        """Cofactor with respect to a partial variable assignment."""
        return self.manager.restrict(self, assignment)

    def exists(self, variables: Iterable[str]) -> "BDD":
        """Existential quantification over *variables*."""
        return self.manager.exists(self, variables)

    def forall(self, variables: Iterable[str]) -> "BDD":
        """Universal quantification over *variables*."""
        return self.manager.forall(self, variables)

    def rename(self, mapping: Dict[str, str]) -> "BDD":
        """Variable-to-variable substitution (see
        :meth:`BDDManager.rename`)."""
        return self.manager.rename(self, mapping)

    def compose(self, mapping: Dict[str, "BDD"]) -> "BDD":
        """Function-for-variable substitution (see
        :meth:`BDDManager.compose`)."""
        return self.manager.compose(self, mapping)

    def support(self) -> Tuple[str, ...]:
        """Variables this function actually depends on."""
        return self.manager.support(self)

    def satisfy_one(self) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over the support, or ``None``."""
        return self.manager.satisfy_one(self)

    def count(self, variables: Sequence[str]) -> int:
        """Number of satisfying assignments over *variables*."""
        return self.manager.count(self, variables)

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a total assignment of the support."""
        return self.manager.evaluate(self, assignment)


class BDDManager:
    """A unique-table BDD store with an ``ite``-based operator core.

    Parameters
    ----------
    reorder:
        ``"off"`` (fixed order, the default), ``"auto"`` (sift when the
        live node count crosses *reorder_threshold*) or ``"manual"``
        (never auto-sift; the owner calls :meth:`reorder`).
    reorder_threshold:
        Live-node count that arms the first automatic sift.
    node_limit:
        Optional hard budget on unique-table nodes; exceeding it raises
        :class:`NodeLimitExceeded` (a :class:`MemoryError`), the BDD
        analogue of a blown subset-search budget.
    """

    def __init__(
        self,
        *,
        reorder: str = "off",
        reorder_threshold: int = DEFAULT_REORDER_THRESHOLD,
        node_limit: Optional[int] = None,
    ) -> None:
        if reorder not in REORDER_MODES:
            raise ValueError(
                "reorder must be one of %s, not %r" % (REORDER_MODES, reorder)
            )
        if reorder_threshold < 2:
            raise ValueError("reorder_threshold must be at least 2")
        if node_limit is not None and node_limit < 2:
            raise ValueError("node_limit must be at least 2")
        # Parallel node arrays; entries 0/1 are the terminals (their
        # var id is -1; their level is +inf conceptually).
        self._var: List[int] = [-1, -1]
        self._low: List[int] = [-1, -1]
        self._high: List[int] = [-1, -1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._exists_cache: Dict[Tuple[int, int], int] = {}
        self._relprod_cache: Dict[Tuple[int, int, int], int] = {}
        self._var_names: List[str] = []
        self._var_index: Dict[str, int] = {}
        # Dynamic order: var id <-> level, plus the per-variable node
        # index the swap primitive works from.
        self._order: List[int] = []
        self._level_vars: List[int] = []
        self._var_nodes: List[set] = []
        self._free: List[int] = []
        self._qsets: Dict[FrozenSet[int], int] = {}
        self._qset_vars: List[FrozenSet[int]] = []
        # Live handles, tracked by OBJECT identity (BDD.__eq__ compares
        # indices, so a value-keyed WeakSet would collapse distinct
        # handles onto one weakref and lose track when it dies).
        self._handles: Dict[int, "weakref.ref[BDD]"] = {}
        self.reorder_mode = reorder
        self.reorder_threshold = reorder_threshold
        self.node_limit = node_limit
        self._next_reorder_at = reorder_threshold
        self._reordering = False
        #: Monotone per-operation counters (never reset by GC/flushes).
        self.stats: Dict[str, int] = {
            "nodes_created": 0,
            "ite_calls": 0,
            "ite_cache_hits": 0,
            "exists_calls": 0,
            "exists_cache_hits": 0,
            "relprod_calls": 0,
            "relprod_cache_hits": 0,
            "cache_evictions": 0,
            "gc_runs": 0,
            "gc_freed_nodes": 0,
            "peak_live_nodes": 2,
            "reorder.runs": 0,
            "reorder.auto_triggers": 0,
            "reorder.swaps": 0,
            "reorder.nodes_reclaimed": 0,
        }

    def _track(self, handle: BDD) -> None:
        """Register a live handle (weakly, by object identity) as a
        root of collection and reordering."""
        key = id(handle)
        handles = self._handles
        handles[key] = weakref.ref(
            handle, lambda _ref, _key=key, _handles=handles: _handles.pop(_key, None)
        )

    # -- variables -----------------------------------------------------------

    def variable(self, name: str) -> BDD:
        """The function of a single variable, registering it (at the
        end of the current order) on first use."""
        var = self._var_index.get(name)
        if var is None:
            var = len(self._var_names)
            self._var_names.append(name)
            self._var_index[name] = var
            self._order.append(len(self._level_vars))
            self._level_vars.append(var)
            self._var_nodes.append(set())
        return BDD(self, self._node(var, FALSE_INDEX, TRUE_INDEX))

    def declare(self, *names: str) -> List[BDD]:
        """Register variables in the given order; returns their BDDs."""
        return [self.variable(name) for name in names]

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """All registered variables, in registration (id) order --
        stable across reordering."""
        return tuple(self._var_names)

    def level_of(self, name: str) -> int:
        """Current position of *name* in the variable order."""
        return self._order[self._var_index[name]]

    def current_order(self) -> Tuple[str, ...]:
        """The variable names in their current diagram order, top
        (level 0) first."""
        return tuple(self._var_names[var] for var in self._level_vars)

    # -- constants -------------------------------------------------------------

    @property
    def true(self) -> BDD:
        return BDD(self, TRUE_INDEX)

    @property
    def false(self) -> BDD:
        return BDD(self, FALSE_INDEX)

    def constant(self, value: bool) -> BDD:
        return self.true if value else self.false

    # -- node store --------------------------------------------------------------

    def _node(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self.node_limit is not None and len(self._unique) + 2 >= self.node_limit:
            raise NodeLimitExceeded(
                "BDD unique table exceeded its %d-node budget" % self.node_limit
            )
        if self._free:
            index = self._free.pop()
            self._var[index] = var
            self._low[index] = low
            self._high[index] = high
        else:
            index = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
        self._unique[key] = index
        self._var_nodes[var].add(index)
        stats = self.stats
        stats["nodes_created"] += 1
        live = len(self._unique) + 2
        if live > stats["peak_live_nodes"]:
            stats["peak_live_nodes"] = live
        return index

    def _level(self, index: int) -> int:
        var = self._var[index]
        return 1 << 30 if var < 0 else self._order[var]

    def _cache_room(self, cache: Dict) -> Dict:
        """Flush *cache* when it has hit the bound; returns the cache."""
        if len(cache) >= CACHE_LIMIT:
            cache.clear()
            self.stats["cache_evictions"] += 1
        return cache

    # -- the ite core ---------------------------------------------------------------

    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal cases.
        if f == TRUE_INDEX:
            return g
        if f == FALSE_INDEX:
            return h
        if g == h:
            return g
        if g == TRUE_INDEX and h == FALSE_INDEX:
            return f
        self.stats["ite_calls"] += 1
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.stats["ite_cache_hits"] += 1
            return cached
        top = min(self._level(f), self._level(g), self._level(h))

        def cofactor(index: int, branch: bool) -> int:
            if self._level(index) != top:
                return index
            return self._high[index] if branch else self._low[index]

        high = self._ite(cofactor(f, True), cofactor(g, True), cofactor(h, True))
        low = self._ite(cofactor(f, False), cofactor(g, False), cofactor(h, False))
        result = self._node(self._level_vars[top], low, high)
        self._cache_room(self._ite_cache)[key] = result
        return result

    # -- restriction & quantification ----------------------------------------------

    def restrict(self, f: BDD, assignment: Dict[str, bool]) -> BDD:
        self._maybe_reorder()
        by_var = {self._var_index[name]: value for name, value in assignment.items()}
        cache: Dict[int, int] = {}

        def walk(index: int) -> int:
            if index <= TRUE_INDEX:
                return index
            hit = cache.get(index)
            if hit is not None:
                return hit
            var = self._var[index]
            if var in by_var:
                result = walk(self._high[index] if by_var[var] else self._low[index])
            else:
                result = self._node(var, walk(self._low[index]), walk(self._high[index]))
            cache[index] = result
            return result

        return BDD(self, walk(f.index))

    def _restrict1(self, index: int, var: int, value: bool) -> int:
        """Cofactor of a raw node at a single variable."""
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE_INDEX:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            v = self._var[node]
            if v == var:
                result = self._high[node] if value else self._low[node]
            else:
                result = self._node(v, walk(self._low[node]), walk(self._high[node]))
            cache[node] = result
            return result

        return walk(index)

    def _qset_id(self, variables: FrozenSet[int]) -> int:
        """Intern a quantified-variable-id set for compact cache keys
        (ids are stable, so interned sets survive reordering)."""
        found = self._qsets.get(variables)
        if found is None:
            found = len(self._qset_vars)
            self._qsets[variables] = found
            self._qset_vars.append(variables)
        return found

    def _vars_of(self, variables: Iterable[str]) -> FrozenSet[int]:
        return frozenset(self._var_index[name] for name in variables)

    def _exists(self, index: int, varset: FrozenSet[int], qid: int, deepest: int) -> int:
        """Recursive multi-variable existential quantification.

        *deepest* is the maximum current level of the quantified
        variables: a node entirely below it cannot contain a quantified
        variable, so its subtree passes through.
        """
        if index <= TRUE_INDEX:
            return index
        var = self._var[index]
        if self._order[var] > deepest:
            return index
        self.stats["exists_calls"] += 1
        key = (index, qid)
        cached = self._exists_cache.get(key)
        if cached is not None:
            self.stats["exists_cache_hits"] += 1
            return cached
        low = self._exists(self._low[index], varset, qid, deepest)
        high = self._exists(self._high[index], varset, qid, deepest)
        if var in varset:
            result = self._ite(low, TRUE_INDEX, high)  # low | high
        else:
            result = self._node(var, low, high)
        self._cache_room(self._exists_cache)[key] = result
        return result

    def _deepest(self, varset: FrozenSet[int]) -> int:
        return max(self._order[var] for var in varset)

    def exists(self, f: BDD, variables: Iterable[str]) -> BDD:
        varset = self._vars_of(variables)
        if not varset:
            return f
        self._maybe_reorder()
        return BDD(
            self,
            self._exists(f.index, varset, self._qset_id(varset), self._deepest(varset)),
        )

    def forall(self, f: BDD, variables: Iterable[str]) -> BDD:
        # ∀V f  ==  ¬∃V ¬f
        varset = self._vars_of(variables)
        if not varset:
            return f
        self._maybe_reorder()
        negated = self._ite(f.index, FALSE_INDEX, TRUE_INDEX)
        result = self._exists(
            negated, varset, self._qset_id(varset), self._deepest(varset)
        )
        return BDD(self, self._ite(result, FALSE_INDEX, TRUE_INDEX))

    def relprod(self, f: BDD, g: BDD, variables: Iterable[str]) -> BDD:
        """Fused and-exists: ``exists(variables, f & g)`` without ever
        building the conjunction.

        This is the relational product at the heart of symbolic image
        computation: quantified subtrees collapse to TRUE as soon as one
        branch is satisfiable, so the intermediate product never
        materialises.  Semantically identical to
        ``(f & g).exists(variables)`` (property-tested against it).
        """
        if f.manager is not self or g.manager is not self:
            raise ValueError("relprod operands belong to a different manager")
        varset = self._vars_of(variables)
        if not varset:
            return f & g
        self._maybe_reorder()
        qid = self._qset_id(varset)
        return BDD(
            self, self._relprod(f.index, g.index, varset, qid, self._deepest(varset))
        )

    def _relprod(
        self, f: int, g: int, varset: FrozenSet[int], qid: int, deepest: int
    ) -> int:
        if f == FALSE_INDEX or g == FALSE_INDEX:
            return FALSE_INDEX
        if f == TRUE_INDEX and g == TRUE_INDEX:
            return TRUE_INDEX
        if f == g or g == TRUE_INDEX:
            return self._exists(f, varset, qid, deepest)
        if f == TRUE_INDEX:
            return self._exists(g, varset, qid, deepest)
        level_f, level_g = self._level(f), self._level(g)
        top = level_f if level_f < level_g else level_g
        if top > deepest:
            # Entirely below the quantified variables: plain conjunction.
            return self._ite(f, g, FALSE_INDEX)
        self.stats["relprod_calls"] += 1
        if f > g:  # conjunction commutes; normalise the cache key
            f, g = g, f
            level_f, level_g = level_g, level_f
        key = (f, g, qid)
        cached = self._relprod_cache.get(key)
        if cached is not None:
            self.stats["relprod_cache_hits"] += 1
            return cached
        f_low, f_high = (
            (self._low[f], self._high[f]) if level_f == top else (f, f)
        )
        g_low, g_high = (
            (self._low[g], self._high[g]) if level_g == top else (g, g)
        )
        top_var = self._level_vars[top]
        low = self._relprod(f_low, g_low, varset, qid, deepest)
        if top_var in varset and low == TRUE_INDEX:
            result = TRUE_INDEX  # short-circuit: branch already satisfiable
        else:
            high = self._relprod(f_high, g_high, varset, qid, deepest)
            if top_var in varset:
                result = self._ite(low, TRUE_INDEX, high)  # low | high
            else:
                result = self._node(top_var, low, high)
        self._cache_room(self._relprod_cache)[key] = result
        return result

    def rename(self, f: BDD, mapping: Dict[str, str]) -> BDD:
        """Substitute variables by variables (simultaneously).

        When the mapping is *order-compatible* -- the relative order of
        any two support variables is unchanged by the substitution
        (true for the ``state <-> next_state`` pairings of image
        computation when declared interleaved, under the declaration
        order) -- a single linear relabelling walk is used.  Otherwise
        (e.g. after dynamic reordering has interleaved the two
        machines' variables) the substitution falls back to a general
        Shannon-recomposition pass built on ``ite``, which is correct
        under any variable order.
        """
        if not mapping:
            return f
        self._maybe_reorder()
        for src, dst in mapping.items():
            if src not in self._var_index or dst not in self._var_index:
                raise KeyError(
                    "rename involves an unregistered variable: %r -> %r" % (src, dst)
                )
        support = list(self.support(f))
        renamed_levels = [
            self._order[self._var_index[mapping.get(name, name)]] for name in support
        ]
        original_levels = [self._order[self._var_index[name]] for name in support]
        var_map = {
            self._var_index[src]: self._var_index[dst] for src, dst in mapping.items()
        }
        if sorted(range(len(support)), key=lambda i: renamed_levels[i]) != sorted(
            range(len(support)), key=lambda i: original_levels[i]
        ):
            return BDD(self, self._substitute(f.index, var_map, {}))
        cache: Dict[int, int] = {}

        def walk(index: int) -> int:
            if index <= TRUE_INDEX:
                return index
            hit = cache.get(index)
            if hit is not None:
                return hit
            var = self._var[index]
            result = self._node(
                var_map.get(var, var), walk(self._low[index]), walk(self._high[index])
            )
            cache[index] = result
            return result

        return BDD(self, walk(f.index))

    def _substitute(self, index: int, var_map: Dict[int, int], cache: Dict) -> int:
        """General simultaneous variable-to-variable substitution: at
        each node, recompose ``ite(target, high', low')`` so the result
        is well-ordered whatever the current level permutation."""
        if index <= TRUE_INDEX:
            return index
        hit = cache.get(index)
        if hit is not None:
            return hit
        low = self._substitute(self._low[index], var_map, cache)
        high = self._substitute(self._high[index], var_map, cache)
        target = var_map.get(self._var[index], self._var[index])
        selector = self._node(target, FALSE_INDEX, TRUE_INDEX)
        result = self._ite(selector, high, low)
        cache[index] = result
        return result

    def compose(self, f: BDD, mapping: Dict[str, BDD]) -> BDD:
        """Vector composition: substitute the function ``mapping[v]``
        for every variable ``v`` it names, simultaneously -- ``f``
        evaluated at a next state when the mapping holds next-state
        functions, with no transition relation conjoined.  Below the
        deepest substituted variable a subtree passes through."""
        if not mapping:
            return f
        self._maybe_reorder()
        by_var = {self._var_index[name]: g.index for name, g in mapping.items()}
        deepest = max(self._order[var] for var in by_var)
        order, low, high, var_of = self._order, self._low, self._high, self._var
        cache: Dict[int, int] = {}

        def walk(index: int) -> int:
            if index <= TRUE_INDEX or order[var_of[index]] > deepest:
                return index
            hit = cache.get(index)
            if hit is not None:
                return hit
            var = var_of[index]
            selector = by_var.get(var)
            if selector is None:
                selector = self._node(var, FALSE_INDEX, TRUE_INDEX)
            result = self._ite(selector, walk(high[index]), walk(low[index]))
            cache[index] = result
            return result

        return BDD(self, walk(f.index))

    # -- garbage collection -------------------------------------------------------

    def _handle_indices(self) -> List[int]:
        """The node of every live handle: the roots of :meth:`collect`
        and of reordering."""
        indices = []
        # Copied first: a handle dying mid-walk pops its entry.
        for handle_ref in list(self._handles.values()):
            handle = handle_ref()
            if handle is not None:
                indices.append(handle.index)
        return indices

    def collect(self) -> int:
        """Mark-and-sweep: free every node no live handle reaches;
        returns the number freed.

        Freed slots go on a free list for reuse; all operation caches
        are flushed, since cached entries may name freed slots.  No live
        handle is affected (see the module's liveness contract).
        """
        marked = {FALSE_INDEX, TRUE_INDEX}
        stack = self._handle_indices()
        while stack:
            index = stack.pop()
            if index in marked:
                continue
            marked.add(index)
            stack.append(self._low[index])
            stack.append(self._high[index])
        freed = 0
        for key, index in list(self._unique.items()):
            if index not in marked:
                del self._unique[key]
                self._var_nodes[self._var[index]].discard(index)
                self._var[index] = _FREED
                self._low[index] = -1
                self._high[index] = -1
                self._free.append(index)
                freed += 1
        self._flush_op_caches()
        self.stats["gc_runs"] += 1
        self.stats["gc_freed_nodes"] += freed
        return freed

    @property
    def live_node_count(self) -> int:
        """Nodes currently in the unique table, plus the terminals."""
        return len(self._unique) + 2

    # -- dynamic variable reordering ------------------------------------------------

    def _maybe_reorder(self) -> None:
        """Auto-trigger hook, called at public operation boundaries
        (never inside a recursion -- see the module contract)."""
        if (
            self.reorder_mode == "auto"
            and not self._reordering
            and len(self._level_vars) >= 2
            and len(self._unique) + 2 >= self._next_reorder_at
        ):
            self.stats["reorder.auto_triggers"] += 1
            self.reorder()

    def _build_refs(self) -> List[int]:
        """Reference counts for every slot: parents in the unique table
        plus one for each live handle.  Only used (and kept consistent)
        for the duration of one reorder."""
        ref = [0] * len(self._var)
        low, high = self._low, self._high
        for index in self._unique.values():
            ref[low[index]] += 1
            ref[high[index]] += 1
        for index in self._handle_indices():
            ref[index] += 1
        ref[FALSE_INDEX] += 1
        ref[TRUE_INDEX] += 1
        return ref

    def _reorder_make(self, var: int, low: int, high: int, ref: List[int]) -> int:
        """``_node`` twin for use inside a swap: keeps *ref* exact for
        nodes it creates (the caller adds its own reference)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        if self._free:
            index = self._free.pop()
            self._var[index] = var
            self._low[index] = low
            self._high[index] = high
        else:
            index = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            ref.append(0)
        self._unique[key] = index
        self._var_nodes[var].add(index)
        ref[index] = 0
        ref[low] += 1
        ref[high] += 1
        stats = self.stats
        stats["nodes_created"] += 1
        live = len(self._unique) + 2
        if live > stats["peak_live_nodes"]:
            stats["peak_live_nodes"] = live
        return index

    def _deref(self, index: int, ref: List[int]) -> None:
        """Drop one reference; free the node (and recurse into its
        children) when the count reaches zero."""
        stack = [index]
        while stack:
            node = stack.pop()
            if node <= TRUE_INDEX:
                continue
            ref[node] -= 1
            if ref[node] == 0:
                var = self._var[node]
                del self._unique[(var, self._low[node], self._high[node])]
                self._var_nodes[var].discard(node)
                stack.append(self._low[node])
                stack.append(self._high[node])
                self._var[node] = _FREED
                self._low[node] = -1
                self._high[node] = -1
                self._free.append(node)

    def _swap_adjacent(self, level: int, ref: List[int]) -> None:
        """Swap the variables at *level* and *level + 1* in place.

        Nodes of the upper variable that reference the lower variable
        are rewritten in their own slots (same index, same function);
        all other nodes are untouched.  Dead cofactor nodes are freed
        eagerly via *ref* so the unique-table size is an exact sifting
        metric.
        """
        upper = self._level_vars[level]
        lower = self._level_vars[level + 1]
        var, low_arr, high_arr = self._var, self._low, self._high
        unique = self._unique
        to_rewrite = [
            n
            for n in self._var_nodes[upper]
            if var[low_arr[n]] == lower or var[high_arr[n]] == lower
        ]
        for n in to_rewrite:
            low, high = low_arr[n], high_arr[n]
            if var[low] == lower:
                f00, f01 = low_arr[low], high_arr[low]
            else:
                f00 = f01 = low
            if var[high] == lower:
                f10, f11 = low_arr[high], high_arr[high]
            else:
                f10 = f11 = high
            new_low = self._reorder_make(upper, f00, f10, ref)
            new_high = self._reorder_make(upper, f01, f11, ref)
            ref[new_low] += 1
            ref[new_high] += 1
            del unique[(upper, low, high)]
            var[n] = lower
            low_arr[n] = new_low
            high_arr[n] = new_high
            assert (lower, new_low, new_high) not in unique, (
                "swap produced a duplicate node -- canonicity violated"
            )
            unique[(lower, new_low, new_high)] = n
            self._var_nodes[upper].discard(n)
            self._var_nodes[lower].add(n)
            self._deref(low, ref)
            self._deref(high, ref)
        self._level_vars[level], self._level_vars[level + 1] = upper_swapped = (
            lower,
            upper,
        )
        del upper_swapped
        self._order[upper] = level + 1
        self._order[lower] = level
        self.stats["reorder.swaps"] += 1

    def swap_adjacent(self, level: int) -> None:
        """Public adjacent-level swap (a safe-point operation): swap the
        variables at *level* and *level + 1*, preserving every live
        handle's function.  The workhorse of the reorder test harness;
        :meth:`reorder` drives the same primitive."""
        if not 0 <= level < len(self._level_vars) - 1:
            raise ValueError(
                "level %d out of range for %d variables"
                % (level, len(self._level_vars))
            )
        if self._reordering:
            raise RuntimeError("swap_adjacent called during a reorder")
        self._reordering = True
        try:
            self._flush_op_caches()
            self._swap_adjacent(level, self._build_refs())
        finally:
            self._reordering = False

    def _flush_op_caches(self) -> None:
        self._ite_cache.clear()
        self._exists_cache.clear()
        self._relprod_cache.clear()

    def _sift_one(self, var: int, ref: List[int]) -> None:
        """Move *var* to its locally best level by adjacent swaps,
        abandoning an excursion once the table passes the growth
        bound, and settling on the best size seen."""
        nlevels = len(self._level_vars)
        start_size = len(self._unique)
        limit = int(start_size * MAX_GROWTH) + 8
        best_size = start_size
        best_pos = self._order[var]
        # Excursion 1: to the bottom.
        while self._order[var] < nlevels - 1 and len(self._unique) <= limit:
            self._swap_adjacent(self._order[var], ref)
            size = len(self._unique)
            if size < best_size:
                best_size, best_pos = size, self._order[var]
        # Excursion 2: to the top (always at least back to best_pos).
        while self._order[var] > 0 and (
            len(self._unique) <= limit or self._order[var] > best_pos
        ):
            self._swap_adjacent(self._order[var] - 1, ref)
            size = len(self._unique)
            if size <= best_size:
                best_size, best_pos = size, self._order[var]
        # Settle on the best position seen.
        while self._order[var] > best_pos:
            self._swap_adjacent(self._order[var] - 1, ref)
        while self._order[var] < best_pos:
            self._swap_adjacent(self._order[var], ref)

    def reorder(self) -> Dict[str, int]:
        """One Rudell sifting pass over every variable (most populated
        level first); returns a ``{"before": ..., "after": ...,
        "swaps": ...}`` summary in live-node counts.

        Safe-point operation: all live handles stay valid (same index,
        same function); operation caches are flushed first (see the
        module contract).
        """
        if self._reordering or len(self._level_vars) < 2:
            return {"before": self.live_node_count, "after": self.live_node_count, "swaps": 0}
        self._reordering = True
        try:
            self._flush_op_caches()
            before = len(self._unique)
            swaps_before = self.stats["reorder.swaps"]
            ref = self._build_refs()
            for var in sorted(
                range(len(self._var_names)),
                key=lambda v: (-len(self._var_nodes[v]), v),
            ):
                self._sift_one(var, ref)
            after = len(self._unique)
            self.stats["reorder.runs"] += 1
            if before > after:
                self.stats["reorder.nodes_reclaimed"] += before - after
            self._next_reorder_at = max(self.reorder_threshold, 2 * (after + 2))
            return {
                "before": before + 2,
                "after": after + 2,
                "swaps": self.stats["reorder.swaps"] - swaps_before,
            }
        finally:
            self._reordering = False

    # -- inspection ---------------------------------------------------------------

    def support(self, f: BDD) -> Tuple[str, ...]:
        """Variables *f* depends on, in registration (id) order --
        stable across reordering."""
        seen = set()
        variables = set()
        stack = [f.index]
        while stack:
            index = stack.pop()
            if index <= TRUE_INDEX or index in seen:
                continue
            seen.add(index)
            variables.add(self._var[index])
            stack.append(self._low[index])
            stack.append(self._high[index])
        return tuple(self._var_names[var] for var in sorted(variables))

    def size_of(self, f: BDD) -> int:
        """Node count of the (shared) diagram rooted at *f*."""
        seen = set()
        stack = [f.index]
        while stack:
            index = stack.pop()
            if index <= TRUE_INDEX or index in seen:
                continue
            seen.add(index)
            stack.append(self._low[index])
            stack.append(self._high[index])
        return len(seen) + 2  # + terminals

    def satisfy_one(self, f: BDD) -> Optional[Dict[str, bool]]:
        """The lexicographically smallest satisfying assignment of the
        support, by registration order with False < True -- a canonical
        choice, so the witness is identical whatever the current
        variable order (the reorder-invariance contract downstream
        witness reconstruction relies on)."""
        if f.index == FALSE_INDEX:
            return None
        assignment: Dict[str, bool] = {}
        index = f.index
        for name in self.support(f):  # registration order
            var = self._var_index[name]
            low = self._restrict1(index, var, False)
            if low != FALSE_INDEX:
                assignment[name] = False
                index = low
            else:
                assignment[name] = True
                index = self._restrict1(index, var, True)
        return assignment

    def count(self, f: BDD, variables: Sequence[str]) -> int:
        """Model count over the given variable list (must cover the
        support of *f*)."""
        support = set(self.support(f))
        names = list(variables)
        missing = support - set(names)
        if missing:
            raise ValueError("count variables missing support vars: %s" % sorted(missing))
        levels = sorted(self._order[self._var_index[name]] for name in names)
        position = {level: i for i, level in enumerate(levels)}
        cache: Dict[int, int] = {}

        def walk(index: int) -> Tuple[int, int]:
            """Returns (count, level-position of this node)."""
            if index == FALSE_INDEX:
                return 0, len(levels)
            if index == TRUE_INDEX:
                return 1, len(levels)
            if index in cache:
                return cache[index], position[self._order[self._var[index]]]
            low_count, low_pos = walk(self._low[index])
            high_count, high_pos = walk(self._high[index])
            my_pos = position[self._order[self._var[index]]]
            total = low_count * (1 << (low_pos - my_pos - 1)) + high_count * (
                1 << (high_pos - my_pos - 1)
            )
            cache[index] = total
            return total, my_pos

        count, pos = walk(f.index)
        return count * (1 << pos)

    def evaluate(self, f: BDD, assignment: Dict[str, bool]) -> bool:
        index = f.index
        while index > TRUE_INDEX:
            name = self._var_names[self._var[index]]
            try:
                branch = assignment[name]
            except KeyError:
                raise ValueError("assignment missing variable %r" % name)
            index = self._high[index] if branch else self._low[index]
        return index == TRUE_INDEX

    # -- bulk helpers ------------------------------------------------------------

    def cube(self, assignment: Dict[str, bool]) -> BDD:
        """The conjunction of literals described by *assignment*."""
        result = self.true
        for name, value in assignment.items():
            var = self.variable(name)
            result = result & (var if value else ~var)
        return result

    def disjunction(self, functions: Iterable[BDD]) -> BDD:
        result = self.false
        for f in functions:
            result = result | f
        return result

    def conjunction(self, functions: Iterable[BDD]) -> BDD:
        result = self.true
        for f in functions:
            result = result & f
        return result

    @property
    def num_nodes(self) -> int:
        """Total node slots allocated in this manager (monotone; freed
        slots remain allocated until reused)."""
        return len(self._var)
