"""Reorder-invariance harness for the BDD manager.

Dynamic variable reordering must be *invisible* except for node counts:
after any sequence of adjacent swaps and sifting passes, every
previously built BDD handle still denotes the same Boolean function,
the diagram stays canonical (equal functions <=> equal handles), and
every inspection operation (``satisfy_one``, ``count``, ``support``)
returns exactly what a fixed-order oracle manager returns.  This suite
property-tests that contract, plus the interactions with the other
machinery that mutates the node store (mark-and-sweep GC, whose roots
are the same live handles) and the auto-trigger bookkeeping.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.bdd import (
    BDD,
    BDDManager,
    NodeLimitExceeded,
    REORDER_MODES,
)

VARIABLES = ["a", "b", "c", "d", "e"]


@pytest.fixture
def m():
    return BDDManager()


def _random_formula(m, variables, draw, depth=0):
    """Random formula plus a matching Python evaluator (as in
    test_bdd.py, shared shape)."""
    choice = draw(st.integers(0, 6)) if depth < 6 else draw(st.integers(0, 2))
    if choice == 0 or not variables:
        value = draw(st.booleans())
        return m.constant(value), (lambda env, _v=value: _v)
    if choice in (1, 2):
        name = draw(st.sampled_from(variables))
        return m.variable(name), (lambda env, _n=name: env[_n])
    left, left_fn = _random_formula(m, variables, draw, depth + 1)
    right, right_fn = _random_formula(m, variables, draw, depth + 1)
    if choice == 3:
        return left & right, (lambda env: left_fn(env) and right_fn(env))
    if choice == 4:
        return left | right, (lambda env: left_fn(env) or right_fn(env))
    if choice == 5:
        return left ^ right, (lambda env: left_fn(env) != right_fn(env))
    return ~left, (lambda env: not left_fn(env))


def _scramble(m, draw, *, rounds=8):
    """A random interleaving of adjacent swaps and sifting passes."""
    nlevels = len(m.current_order())
    for _ in range(draw(st.integers(1, rounds))):
        if draw(st.booleans()) and nlevels >= 2:
            m.swap_adjacent(draw(st.integers(0, nlevels - 2)))
        else:
            m.reorder()


# ---------------------------------------------------------------------------
# The core invariance property, against a fixed-order oracle.
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_reorder_preserves_semantics_and_canonicity(data):
    m = BDDManager()
    oracle = BDDManager()  # never reordered: the fixed-order reference
    for name in VARIABLES:
        m.variable(name)
        oracle.variable(name)
    built = []
    for _ in range(data.draw(st.integers(1, 4))):
        f, fn = _random_formula(m, VARIABLES, data.draw)
        built.append((f, fn))
    _scramble(m, data.draw)
    for f, fn in built:
        # Same function on every assignment...
        for bits in itertools.product((False, True), repeat=len(VARIABLES)):
            env = dict(zip(VARIABLES, bits))
            assert m.evaluate(f, env) == fn(env)
        # ...and the inspection operations agree with the oracle.
        g = _rebuild(oracle, m, f)
        assert f.support() == g.support()
        assert f.satisfy_one() == g.satisfy_one()
        assert f.count(VARIABLES) == g.count(VARIABLES)


def _rebuild(oracle: BDDManager, m: BDDManager, f: BDD) -> BDD:
    """Port *f* into the oracle manager by Shannon expansion over the
    (registration-ordered) variable names."""
    if f.is_false:
        return oracle.false
    if f.is_true:
        return oracle.true
    name = f.support()[0]
    low = _rebuild(oracle, m, m.restrict(f, {name: False}))
    high = _rebuild(oracle, m, m.restrict(f, {name: True}))
    var = oracle.variable(name)
    return (var & high) | (~var & low)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_reorder_keeps_equal_functions_on_equal_handles(data):
    """Canonicity after scrambling: semantically equal formulas built
    AFTER the reorder still land on the same node as ones built before."""
    m = BDDManager()
    for name in VARIABLES:
        m.variable(name)
    f, f_fn = _random_formula(m, VARIABLES, data.draw)
    _scramble(m, data.draw)
    g, g_fn = _random_formula(m, VARIABLES, data.draw)
    tables_equal = all(
        f_fn(dict(zip(VARIABLES, bits))) == g_fn(dict(zip(VARIABLES, bits)))
        for bits in itertools.product((False, True), repeat=len(VARIABLES))
    )
    assert (f == g) == tables_equal


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_operations_after_reorder_match_oracle(data):
    """Quantification/relprod/rename computed after a scramble equal
    the oracle's fixed-order results as functions."""
    m = BDDManager()
    oracle = BDDManager()
    for name in VARIABLES:
        m.variable(name)
        oracle.variable(name)
    f, _ = _random_formula(m, VARIABLES, data.draw)
    g, _ = _random_formula(m, VARIABLES, data.draw)
    _scramble(m, data.draw)
    quantified = data.draw(st.sets(st.sampled_from(VARIABLES), max_size=3))
    results = {
        "exists": f.exists(quantified),
        "forall": f.forall(quantified),
        "relprod": m.relprod(f, g, quantified),
        "and": f & g,
    }
    of, og = _rebuild(oracle, m, f), _rebuild(oracle, m, g)
    expected = {
        "exists": of.exists(quantified),
        "forall": of.forall(quantified),
        "relprod": oracle.relprod(of, og, quantified),
        "and": of & og,
    }
    for key in results:
        assert _rebuild(oracle, m, results[key]) == expected[key], key


# ---------------------------------------------------------------------------
# Deterministic swap/sift behaviour.
# ---------------------------------------------------------------------------


def test_swap_adjacent_swaps_exactly_two_levels(m):
    m.declare("a", "b", "c")
    assert m.current_order() == ("a", "b", "c")
    m.swap_adjacent(0)
    assert m.current_order() == ("b", "a", "c")
    assert m.level_of("a") == 1 and m.level_of("b") == 0
    m.swap_adjacent(1)
    assert m.current_order() == ("b", "c", "a")
    m.swap_adjacent(0)
    m.swap_adjacent(1)
    assert m.current_order() == ("c", "a", "b")


def test_swap_keeps_handle_indices_valid(m):
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | c
    index_before = f.index
    m.swap_adjacent(0)
    m.swap_adjacent(1)
    assert f.index == index_before  # in-place: same slot, same function
    assert f == ((a & b) | c)  # rebuilding finds the same node
    assert f.satisfy_one() == {"a": False, "b": False, "c": True}


def test_swap_rejects_out_of_range_level(m):
    m.declare("a", "b")
    with pytest.raises(ValueError):
        m.swap_adjacent(1)
    with pytest.raises(ValueError):
        m.swap_adjacent(-1)


def test_sifting_finds_interleaved_order_for_blocked_equality():
    """The classic: EQ(x, y) over blocked order is exponential,
    interleaved is linear.  Sifting must find (close to) the linear
    order and actually reclaim the nodes."""
    m = BDDManager()
    n = 6
    xs = [m.variable("x%d" % i) for i in range(n)]
    ys = [m.variable("y%d" % i) for i in range(n)]
    eq = m.true
    for x, y in zip(xs, ys):
        eq = eq & x.iff(y)
    blocked = m.size_of(eq)
    assert blocked >= (1 << n)  # exponential under the blocked order
    summary = m.reorder()
    assert summary["after"] < summary["before"]
    assert m.size_of(eq) == 3 * n + 2  # the optimal interleaved size
    assert m.stats["reorder.runs"] == 1
    assert m.stats["reorder.swaps"] == summary["swaps"] > 0
    assert m.stats["reorder.nodes_reclaimed"] > 0
    # Function untouched.
    assert eq.count(["x%d" % i for i in range(n)] + ["y%d" % i for i in range(n)]) == 1 << n


def test_reorder_flushes_operation_caches(m):
    a, b = m.declare("a", "b")
    f = a & b
    hits_before = m.stats["ite_cache_hits"]
    _ = a & b  # cache hit
    assert m.stats["ite_cache_hits"] == hits_before + 1
    m.reorder()
    # Same op after the flush must recompute (no stale-cache reuse).
    calls_before = m.stats["ite_calls"]
    g = a & b
    assert g == f
    assert m.stats["ite_calls"] > calls_before


def test_reorder_with_fewer_than_two_variables_is_a_noop(m):
    m.variable("a")
    summary = m.reorder()
    assert summary["swaps"] == 0
    assert m.stats["reorder.runs"] == 0


# ---------------------------------------------------------------------------
# Auto-trigger and manual modes.
# ---------------------------------------------------------------------------


def test_constructor_validates_reorder_mode():
    for mode in REORDER_MODES:
        BDDManager(reorder=mode)
    with pytest.raises(ValueError):
        BDDManager(reorder="sometimes")
    with pytest.raises(ValueError):
        BDDManager(reorder_threshold=1)


def test_auto_mode_triggers_at_threshold():
    m = BDDManager(reorder="auto", reorder_threshold=64)
    xs = [m.variable("x%d" % i) for i in range(5)]
    ys = [m.variable("y%d" % i) for i in range(5)]
    eq = m.true
    for x, y in zip(xs, ys):
        eq = eq & x.iff(y)
    assert m.stats["reorder.auto_triggers"] >= 1
    assert m.stats["reorder.runs"] >= 1
    # The function survived whatever reordering happened mid-build.
    assert eq.count(m.variable_names) == 1 << 5


def test_off_and_manual_modes_never_auto_trigger():
    for mode in ("off", "manual"):
        m = BDDManager(reorder=mode, reorder_threshold=8)
        xs = [m.variable("x%d" % i) for i in range(4)]
        ys = [m.variable("y%d" % i) for i in range(4)]
        eq = m.true
        for x, y in zip(xs, ys):
            eq = eq & x.iff(y)
        assert m.stats["reorder.auto_triggers"] == 0
        assert m.stats["reorder.runs"] == 0
        assert m.current_order() == m.variable_names


def test_node_limit_raises_memoryerror_subclass():
    m = BDDManager(node_limit=16)
    with pytest.raises(NodeLimitExceeded):
        xs = [m.variable("x%d" % i) for i in range(6)]
        acc = m.false
        for i, x in enumerate(xs):
            acc = acc ^ x
    assert issubclass(NodeLimitExceeded, MemoryError)


# ---------------------------------------------------------------------------
# GC x reorder interleavings: both keep exactly what live handles reach.
# ---------------------------------------------------------------------------


def _reachable(m, handles):
    """Node indices (terminals excluded) reachable from *handles*."""
    seen = set()
    stack = [f.index for f in handles]
    while stack:
        index = stack.pop()
        if index > 1 and index not in seen:
            seen.add(index)
            stack.extend((m._low[index], m._high[index]))
    return seen


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_gc_and_reorder_interleave_safely(data):
    """Random interleavings of building, dropping, collecting and
    reordering never change a held handle's function, and a final
    collection leaves exactly the nodes the held handles reach."""
    m = BDDManager()
    m.declare(*VARIABLES)
    held = []
    for _ in range(data.draw(st.integers(2, 6))):
        held.append(_random_formula(m, VARIABLES, data.draw))
        action = data.draw(st.integers(0, 3))
        if action == 0:
            m.collect()
        elif action == 1:
            _scramble(m, data.draw, rounds=3)
        elif action == 2:
            held.pop(data.draw(st.integers(0, len(held) - 1)))
        # action == 3: keep building
    _scramble(m, data.draw, rounds=3)
    m.collect()
    assert m.live_node_count == 2 + len(_reachable(m, [f for f, _ in held]))
    for f, fn in held:
        for bits in itertools.product((False, True), repeat=len(VARIABLES)):
            env = dict(zip(VARIABLES, bits))
            assert m.evaluate(f, env) == fn(env)


def test_reorder_respects_live_handles(m):
    """A handle that no parent node references -- only the handle
    itself -- must survive a reorder: the manager tracks it weakly."""
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | (b & c) | (a & c)  # majority
    m.reorder()
    for bits in itertools.product((False, True), repeat=3):
        env = dict(zip("abc", bits))
        expect = sum(bits) >= 2
        assert m.evaluate(f, env) == expect


def test_collect_then_reorder_reuses_freed_slots_consistently(m):
    a, b = m.declare("a", "b")
    keep = a & b
    garbage = a ^ b
    del garbage
    assert m.collect() == 2
    m.reorder()
    rebuilt = a ^ b  # recycles slots the collection freed
    assert rebuilt == (a | b) & ~keep
    assert keep == (a & b)
    assert keep.satisfy_one() == {"a": True, "b": True}
    assert rebuilt.count(["a", "b"]) == 2


def test_qset_interning_survives_reorder(m):
    """Quantified-variable sets are keyed by stable variable ids, so an
    exists computed after a reorder reuses the same interned set and
    still quantifies the right variables."""
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | c
    before = f.exists(["a"])
    m.reorder()
    m.swap_adjacent(0)
    after = f.exists(["a"])
    assert before == after == (b | c)
