"""Tests for the ROBDD engine: canonicity, operators, quantifiers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import bdd
from repro.logic.bdd import BDDManager


@pytest.fixture
def m():
    return BDDManager()


# ---------------------------------------------------------------------------
# Basics and canonicity.
# ---------------------------------------------------------------------------


def test_constants(m):
    assert m.true.is_true and not m.true.is_false
    assert m.false.is_false
    assert m.constant(True) == m.true
    assert (~m.true) == m.false


def test_variable_identity(m):
    a1 = m.variable("a")
    a2 = m.variable("a")
    assert a1 == a2
    assert m.variable_names == ("a",)


def test_canonicity_of_equivalent_formulas(m):
    a, b, c = m.declare("a", "b", "c")
    # Distribution: a & (b | c) == (a & b) | (a & c)
    assert (a & (b | c)) == ((a & b) | (a & c))
    # De Morgan.
    assert ~(a & b) == (~a | ~b)
    # XOR via ands/ors.
    assert (a ^ b) == ((a & ~b) | (~a & b))
    # Idempotence / complements.
    assert (a & a) == a
    assert (a & ~a) == m.false
    assert (a | ~a) == m.true


def test_iff_and_implies(m):
    a, b = m.declare("a", "b")
    assert a.iff(b) == ~(a ^ b)
    assert a.implies(b) == (~a | b)
    assert m.false.implies(a).is_true


def test_cross_manager_operations_rejected():
    m1, m2 = BDDManager(), BDDManager()
    with pytest.raises(ValueError):
        m1.variable("a") & m2.variable("a")


# ---------------------------------------------------------------------------
# Semantics against brute force.
# ---------------------------------------------------------------------------


#: How deep a random formula may nest.  A node has one operand on
#: average (three binary operators, one unary, three leaves among seven
#: choices), so an unbounded draw has no finite expected size and only
#: hypothesis's buffer limit would end it.
FORMULA_DEPTH = 6


def _random_formula(m, variables, draw, depth=FORMULA_DEPTH):
    """Build a random formula, nested at most *depth* deep, and a
    matching Python evaluator."""
    choice = draw(st.integers(0, 6 if depth else 2))
    if choice == 0 or not variables:
        value = draw(st.booleans())
        return m.constant(value), (lambda env, _v=value: _v)
    if choice in (1, 2):
        name = draw(st.sampled_from(variables))
        return m.variable(name), (lambda env, _n=name: env[_n])
    left, left_fn = _random_formula(m, variables, draw, depth - 1)
    if choice == 6:
        return ~left, (lambda env: not left_fn(env))
    right, right_fn = _random_formula(m, variables, draw, depth - 1)
    if choice == 3:
        return left & right, (lambda env: left_fn(env) and right_fn(env))
    if choice == 4:
        return left | right, (lambda env: left_fn(env) or right_fn(env))
    return left ^ right, (lambda env: left_fn(env) != right_fn(env))


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_bdd_matches_brute_force_truth_table(data):
    m = BDDManager()
    variables = ["a", "b", "c", "d"]
    for name in variables:
        m.variable(name)
    f, fn = _random_formula(m, variables, data.draw)
    for bits in itertools.product((False, True), repeat=len(variables)):
        env = dict(zip(variables, bits))
        assert m.evaluate(f, env) == fn(env)


@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_semantically_equal_formulas_share_a_node(data):
    """Canonicity, property-tested: equal truth tables <=> equal index."""
    m = BDDManager()
    variables = ["a", "b", "c"]
    for name in variables:
        m.variable(name)
    f, f_fn = _random_formula(m, variables, data.draw)
    g, g_fn = _random_formula(m, variables, data.draw)
    tables_equal = all(
        f_fn(dict(zip(variables, bits))) == g_fn(dict(zip(variables, bits)))
        for bits in itertools.product((False, True), repeat=3)
    )
    assert (f == g) == tables_equal


# ---------------------------------------------------------------------------
# Restriction, quantification, renaming.
# ---------------------------------------------------------------------------


def test_restrict_cofactors(m):
    a, b = m.declare("a", "b")
    f = (a & b) | (~a & ~b)  # XNOR
    assert f.restrict({"a": True}) == b
    assert f.restrict({"a": False}) == ~b
    assert f.restrict({"a": True, "b": True}).is_true


def test_exists_forall(m):
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | c
    assert f.exists(["a"]) == (b | c)
    assert f.forall(["a"]) == c
    # Quantifying out everything yields a constant.
    assert f.exists(["a", "b", "c"]).is_true
    assert (a & ~a).exists(["a"]).is_false


def test_rename_adjacent_pairs(m):
    # Interleaved declaration as the symbolic machines use.
    s0, s0n, s1, s1n = m.declare("s0", "s0'", "s1", "s1'")
    f = s0n & ~s1n
    g = f.rename({"s0'": "s0", "s1'": "s1"})
    assert g == (s0 & ~s1)


def test_rename_order_incompatible_falls_back_to_substitution(m):
    # {a->b, b->a} would swap levels, so the linear relabelling walk is
    # unsound; the general simultaneous-substitution path must kick in.
    a, b = m.declare("a", "b")
    f = a & ~b
    assert f.rename({"a": "b", "b": "a"}) == (b & ~a)
    g = (a | b).rename({"a": "b", "b": "a"})
    assert g == (a | b)  # symmetric function is a fixpoint


def test_rename_rejects_unregistered_variable(m):
    a, b = m.declare("a", "b")
    with pytest.raises(KeyError, match="unregistered"):
        (a & b).rename({"a": "zz"})


def test_rename_empty_mapping_is_identity(m):
    a = m.variable("a")
    assert a.rename({}) == a


# ---------------------------------------------------------------------------
# Support, satisfy, count.
# ---------------------------------------------------------------------------


def test_support(m):
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | (a & ~b)  # == a
    assert f == a
    assert f.support() == ("a",)
    assert ((a ^ c)).support() == ("a", "c")
    assert m.true.support() == ()


def test_satisfy_one(m):
    a, b = m.declare("a", "b")
    assert m.false.satisfy_one() is None
    model = (a & ~b).satisfy_one()
    assert model == {"a": True, "b": False}
    assert m.true.satisfy_one() == {}


def test_count(m):
    a, b, c = m.declare("a", "b", "c")
    assert (a & b).count(["a", "b"]) == 1
    assert (a | b).count(["a", "b"]) == 3
    assert (a | b).count(["a", "b", "c"]) == 6
    assert m.true.count(["a", "b", "c"]) == 8
    assert m.false.count(["a"]) == 0
    with pytest.raises(ValueError, match="missing"):
        (a & b).count(["a"])


def test_cube_and_bulk_ops(m):
    cube = m.cube({"x": True, "y": False})
    assert cube.satisfy_one() == {"x": True, "y": False}
    assert cube.count(["x", "y"]) == 1
    a, b, c = m.declare("a", "b", "c")
    assert m.conjunction([a, b, c]) == (a & b & c)
    assert m.disjunction([]) == m.false
    assert m.conjunction([]) == m.true


def test_evaluate_requires_full_assignment(m):
    a, b = m.declare("a", "b")
    with pytest.raises(ValueError, match="missing"):
        m.evaluate(a & b, {"a": True})


def test_size_and_num_nodes(m):
    a, b, c = m.declare("a", "b", "c")
    f = (a & b) | c
    assert m.size_of(f) >= 3
    assert m.num_nodes >= m.size_of(f)


# ---------------------------------------------------------------------------
# relprod: the fused and-exists.
# ---------------------------------------------------------------------------


EIGHT_VARS = ["a", "b", "c", "d", "e", "f", "g", "h"]


@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_relprod_equals_exists_of_conjunction(data):
    """``relprod(f, g, V) == exists(V, f & g)`` against brute force,
    up to 8 variables."""
    m = BDDManager()
    width = data.draw(st.integers(2, 8))
    variables = EIGHT_VARS[:width]
    for name in variables:
        m.variable(name)
    f, f_fn = _random_formula(m, variables, data.draw)
    g, g_fn = _random_formula(m, variables, data.draw)
    quantified = data.draw(
        st.lists(st.sampled_from(variables), min_size=1, unique=True)
    )
    fused = m.relprod(f, g, quantified)
    reference = (f & g).exists(quantified)
    assert fused == reference  # canonicity: same function, same node
    # And against the truth table of ∃V. f∧g directly.
    free = [name for name in variables if name not in quantified]
    for bits in itertools.product((False, True), repeat=len(free)):
        env = dict(zip(free, bits))
        expected = any(
            f_fn({**env, **dict(zip(quantified, qbits))})
            and g_fn({**env, **dict(zip(quantified, qbits))})
            for qbits in itertools.product((False, True), repeat=len(quantified))
        )
        assert m.evaluate(fused, {**env, **{q: False for q in quantified}}) == expected


@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_compose_substitutes_functions_simultaneously(data):
    """``f.compose({v: g_v})`` evaluates like f at the point where every
    substituted v takes g_v's value, all at once (a swap included)."""
    m = BDDManager()
    variables = EIGHT_VARS[:5]
    for name in variables:
        m.variable(name)
    f, f_fn = _random_formula(m, variables, data.draw)
    targets = data.draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
    parts = {name: _random_formula(m, variables, data.draw) for name in targets}
    composed = f.compose({name: bdd for name, (bdd, _) in parts.items()})
    for bits in itertools.product((False, True), repeat=len(variables)):
        env = dict(zip(variables, bits))
        point = {**env, **{name: fn(env) for name, (_, fn) in parts.items()}}
        assert m.evaluate(composed, env) == f_fn(point)


def test_compose_with_variables_is_rename(m):
    a, b, c = m.declare("a", "b", "c")
    f = (a & ~b) | c
    assert f.compose({}) == f
    assert f.compose({"a": b, "b": a}) == (b & ~a) | c


def test_relprod_trivial_cases(m):
    a, b = m.declare("a", "b")
    assert m.relprod(m.false, a, ["a"]).is_false
    assert m.relprod(a, m.true, ["a"]).is_true
    assert m.relprod(a, ~a, ["a"]).is_false
    # No quantified variables: plain conjunction.
    assert m.relprod(a, b, []) == (a & b)


def test_relprod_rejects_foreign_operands(m):
    other = BDDManager()
    with pytest.raises(ValueError):
        m.relprod(m.variable("a"), other.variable("a"), ["a"])


def test_relprod_counters_advance(m):
    a, b, c = m.declare("a", "b", "c")
    before = m.stats["relprod_calls"]
    m.relprod(a & b, b & c, ["b"])
    assert m.stats["relprod_calls"] > before


# ---------------------------------------------------------------------------
# Garbage collection.
# ---------------------------------------------------------------------------


class TestGarbageCollection:
    """One rule: a node lives while a live handle reaches it."""

    def test_collect_preserves_root_semantics(self):
        """Brute-force truth tables of a held handle are unchanged by a
        collection that frees everything else."""
        m = BDDManager()
        variables = ["a", "b", "c", "d"]
        a, b, c, d = m.declare(*variables)
        keep = (a & b) | (c ^ d)
        truth = {
            bits: m.evaluate(keep, dict(zip(variables, bits)))
            for bits in itertools.product((False, True), repeat=4)
        }
        # Garbage: lots of unrelated intermediates, dropped at once.
        for i in range(6):
            (a ^ c) & (b | d) & m.cube({"a": bool(i % 2)})
        del a, b, c, d
        freed = m.collect()
        assert freed > 0
        assert m.live_node_count == m.size_of(keep)
        for bits, expected in truth.items():
            assert m.evaluate(keep, dict(zip(variables, bits))) == expected

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_collect_preserves_semantics_property(self, data):
        m = BDDManager()
        variables = EIGHT_VARS[: data.draw(st.integers(2, 6))]
        for name in variables:
            m.variable(name)
        f, f_fn = _random_formula(m, variables, data.draw)
        garbage, _ = _random_formula(m, variables, data.draw)
        del garbage
        m.collect()
        for bits in itertools.product((False, True), repeat=len(variables)):
            env = dict(zip(variables, bits))
            assert m.evaluate(f, env) == f_fn(env)

    def test_held_handle_survives_collect(self):
        """The held conjunction keeps every node it reaches, b's
        variable node among them, though the variables' handles are
        gone; only a's variable node, which it does not reach, goes."""
        m = BDDManager()
        a, b = m.declare("a", "b")
        f = a & b
        del a, b
        assert m.collect() == 1
        assert m.live_node_count == m.size_of(f) == 4
        assert f.satisfy_one() == {"a": True, "b": True}

    def test_dropped_handle_nodes_are_freed(self):
        """Dropping a handle frees, at the next collection, exactly the
        nodes no other handle reaches; rebuilding it allocates again."""
        m = BDDManager()
        a, b = m.declare("a", "b")
        f = a & b
        g = a ^ b
        shared = m.live_node_count
        del g
        assert m.live_node_count == shared  # freed by collect, not on drop
        assert m.collect() == 2  # a ^ b's root and its ~b child
        assert m.live_node_count == shared - 2
        created = m.stats["nodes_created"]
        assert (a ^ b).count(["a", "b"]) == 2
        assert m.stats["nodes_created"] == created + 2
        assert f.count(["a", "b"]) == 1

    def test_freed_slots_are_reused(self):
        """After a sweep, new allocations fill the free list before
        growing the node arrays."""
        m = BDDManager()
        a, b, c = m.declare("a", "b", "c")
        garbage = (a ^ b) & (b ^ c) | (a & ~c)
        before = m.num_nodes
        del garbage
        freed = m.collect()  # the variables are held, the rest is not
        assert freed > 0
        rebuilt = (a ^ b) & (b ^ c) | (a & ~c)
        assert m.num_nodes == before  # reused slots, no array growth
        assert rebuilt.count(["a", "b", "c"]) == 4

    def test_canonicity_restored_after_collect(self):
        """Hash-consing stays canonical across a GC: rebuilding an
        equivalent formula lands on one node index again."""
        m = BDDManager()
        a, b = m.declare("a", "b")
        f = a & b
        a | b  # garbage
        m.collect()
        g = ~(~a | ~b)  # De Morgan: same function, built differently
        assert g == f

    def test_collect_stats(self):
        m = BDDManager()
        a, b = m.declare("a", "b")
        a & b
        del a, b
        m.collect()
        assert m.stats["gc_runs"] == 1
        assert m.stats["gc_freed_nodes"] == 3
        assert m.live_node_count == 2  # only terminals survive


# ---------------------------------------------------------------------------
# Bounded computed tables.
# ---------------------------------------------------------------------------


class TestCacheEviction:
    def test_eviction_keeps_hash_consing_canonical(self, monkeypatch):
        """Node-count regression: with a tiny cache limit the op caches
        flush constantly, but equivalent formulas must still share one
        node and the unique table must not grow duplicates."""
        variables = ["a", "b", "c", "d", "e"]

        def build(m):
            a, b, c, d, e = (m.variable(n) for n in variables)
            return ((a & b) | (c & d)) ^ (e & (a | ~d))

        big, tiny = BDDManager(), BDDManager()
        for m in (big, tiny):
            m.declare(*variables)
        f_big = build(big)
        monkeypatch.setattr(bdd, "CACHE_LIMIT", 4)
        f_tiny = build(tiny)
        assert tiny.stats["cache_evictions"] > 0
        assert big.stats["cache_evictions"] == 0
        # Same canonical diagram regardless of eviction...
        assert tiny.size_of(f_tiny) == big.size_of(f_big)
        # ...and rebuilding in the evicting manager is a no-op on the
        # unique table (canonicity -> every node already exists).
        before = tiny.live_node_count
        g_tiny = build(tiny)
        assert g_tiny == f_tiny
        assert tiny.live_node_count == before

    def test_eviction_preserves_semantics(self, monkeypatch):
        monkeypatch.setattr(bdd, "CACHE_LIMIT", 2)
        tiny = BDDManager()
        a, b, c = tiny.declare("a", "b", "c")
        f = (a & b) | (~a & c)
        assert tiny.stats["cache_evictions"] > 0
        for bits in itertools.product((False, True), repeat=3):
            env = dict(zip(["a", "b", "c"], bits))
            expected = (bits[0] and bits[1]) or (not bits[0] and bits[2])
            assert tiny.evaluate(f, env) == expected


def test_stats_counters_present_and_monotone(m):
    a, b = m.declare("a", "b")
    _ = a & b
    _ = (a & b).exists(["a"])
    for key in (
        "nodes_created",
        "ite_calls",
        "exists_calls",
        "relprod_calls",
        "ite_cache_hits",
        "cache_evictions",
        "gc_runs",
        "peak_live_nodes",
    ):
        assert key in m.stats
    assert m.stats["nodes_created"] > 0
    assert m.stats["peak_live_nodes"] >= m.live_node_count
