"""Group engine: chains and orders, actions, kernels, tables, automorphisms."""

import copy
import dataclasses
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coset_oracle
from coset_oracle import conj_intersection, right_transversal
from schreier_oracle import all_rows
from subdirect_oracle import decompose_rows
from table_oracle import int32_table
from arccover.catalog import BUILTIN_CATALOG, resolve_group
from arccover.cosetgraph import _Fibre
from arccover.errors import CapacityExceeded, InternalCheckError, ValidationError
from arccover.groups import (
    TABLE_CAP,
    AutomorphismMap,
    EntryPool,
    PermGroup,
    StabilizerChain,
    TableGroup,
    automorphism_lookups,
    class_sizes_force_simple,
    closure,
    conjugacy_classes,
    conjugating_permutations,
    decimal_string,
    extend_to_automorphism,
    generating_rows,
    group_order,
    is_2_transitive,
    is_natural_alternating,
    is_nonabelian_simple,
    orbit_labels,
    point_maps,
)
from arccover.perm import Permutation, parse_cycles
from arccover.wreath import CoverJob, build_cover_group


def P(text, degree):
    return parse_cycles(text, degree)


def group(*texts, degree):
    return PermGroup.from_cycle_strings(texts, degree)


# ---------------------------------------------------------------------------
# closure and orbits
# ---------------------------------------------------------------------------


def test_closure_lists_whole_group_identity_first():
    elems = closure([P("(1,2)", 3), P("(1,2,3)", 3)], Permutation.identity(3))
    assert len(elems) == 6
    assert elems[0].is_identity()
    assert len({e.key() for e in elems}) == 6


def test_closure_cap():
    with pytest.raises(CapacityExceeded):
        closure([P("(1,2)", 7), P("(1,2,3,4,5,6,7)", 7)],
                Permutation.identity(7), cap=100)


def test_orbit_labels():
    """Each point is labelled by the least point of its orbit, in the maps'
    dtype (intp for no maps); under a map that is not injective, by the
    least point it reaches."""
    labels = orbit_labels(point_maps([P("(1,2,3)", 5)], 5), 5)
    assert labels.tolist() == [0, 0, 0, 3, 4] and labels.dtype == np.uint8
    none = orbit_labels([], 3)
    assert none.tolist() == [0, 1, 2] and none.dtype == np.intp
    # 0 -> 2 and 1 -> 0: 2 reaches only itself
    assert orbit_labels([np.array([2, 0, 2], dtype=np.int32)], 3).tolist() == [0, 0, 2]


@st.composite
def permutation_lists(draw):
    """A degree from 2 to 9 and up to three permutations of it."""
    degree = draw(st.integers(2, 9))
    images = draw(st.lists(st.permutations(range(1, degree + 1)), max_size=3))
    return degree, [Permutation(p) for p in images]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_lists())
def test_orbit_labels_and_2_transitivity_agree_with_a_bfs(case):
    """`orbit_labels` gives the least point of each point's BFS orbit, and
    `is_2_transitive` the verdict of a BFS on ordered pairs from (1, 2)."""
    degree, gens = case
    points = range(1, degree + 1)
    bfs = [min(coset_oracle.orbit(p, gens, lambda q, g: g.apply(q))) - 1 for p in points]
    assert orbit_labels(point_maps(gens, degree), degree).tolist() == bfs
    assert PermGroup(gens, degree).is_transitive() == (max(bfs) == 0)
    assert is_2_transitive(gens, degree) == coset_oracle.is_2_transitive(gens, degree)


# ---------------------------------------------------------------------------
# orders via stabilizer chains
# ---------------------------------------------------------------------------


def test_catalog_orders():
    assert resolve_group("A5").order() == 60
    assert resolve_group("A6").order() == 360
    assert resolve_group("A7").order() == 2520
    assert resolve_group("A11").order() == 19958400
    assert resolve_group("PSL27").order() == 168


def test_symmetric_group_order():
    assert group("(1,2)", "(1,2,3,4,5,6,7,8,9,10,11,12)", degree=12).order() == 479001600


def test_contains():
    a5 = resolve_group("A5")
    assert a5.contains(P("(1,2,3,4,5)", 5))
    assert a5.contains(P("(1,2)(3,4)", 5))
    assert not a5.contains(P("(1,2)", 5))
    assert not a5.contains(P("(1,2,3,4)", 5))


def test_group_order_of_generating_pairs():
    assert group_order([P("(1,2)(3,4)", 5), P("(1,2,3,4,5)", 5)], 5) == 60
    assert group_order([P("(1,2)(3,4)", 5), P("(1,5,3)", 5)], 5) == 60
    assert group_order([P("(3,4,5)", 5)], 5) == 3


A11_PAIR = ("(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")
# PSL(2,11) in its transitive action on 11 points (the automorphisms of the
# biplane of quadratic residues mod 11), order 660
PSL211_PAIR = ("(3,6)(5,8)(7,9)(10,11)", "(1,2,3,4,5,6,7,8,9,10,11)")
BOUNDED_CASES = {
    # name: (generators, degree, order bound, true order)
    "A7": (("(1,2,3)", "(1,2,3,4,5,6,7)"), 7, 2520, 2520),
    "A11": (A11_PAIR, 11, 19958400, 19958400),
    "S5-odd-generator": (("(1,2)", "(1,2,3,4,5)"), 5, 120, 120),
    "PSL211-in-A11": (PSL211_PAIR, 11, 19958400, 660),
    "A10-point-stabilizer": (("(2,3,4)", "(3,4,5,6,7,8,9,10,11)"), 11, 19958400, 1814400),
    "PSL27-degree-8": (("(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)"), 8, 20160, 168),
}


def _probes(gens, degree):
    """A fixed mix of members and non-members: words in the generators and
    a few small cycles."""
    a, b = gens
    words = [a * b, b * a * a, a * b * b * a * b, (a * b * b).inverse(), b ** 3 * a]
    cycles = ["()", "(1,2)", "(1,2,3)", "(1,2)(3,4)", "(2,3,4)", "(1,3,5)(2,4)",
              "(" + ",".join(map(str, range(1, degree + 1))) + ")"]
    return words + [P(c, degree) for c in cycles]


@pytest.mark.parametrize("name", sorted(BOUNDED_CASES))
def test_bounded_chain_matches_unbounded(name):
    """A chain stopped at a proven order bound (or verified in full when the
    bound is not reached) has the exact order and membership of a full one."""
    texts, degree, bound, order = BOUNDED_CASES[name]
    gens = [P(t, degree) for t in texts]
    bounded = StabilizerChain(gens, degree, order_bound=bound)
    full = StabilizerChain(gens, degree)
    assert bounded.order() == full.order() == order
    probes = _probes(gens, degree)
    members = [full.contains(p) for p in probes]
    assert [bounded.contains(p) for p in probes] == members
    assert True in members and (order == bound or False in members)


def test_group_chain_bound_is_alternating_or_symmetric_order():
    assert group("(1,2)", "(1,2,3,4,5)", degree=5).order() == 120
    assert group(*A11_PAIR, degree=11).order() == 19958400
    assert group(*PSL211_PAIR, degree=11).order() == 660


def test_subgroup_order_is_bounded_by_the_group():
    a11 = resolve_group("A11")
    assert a11.subgroup_order([P(t, 11) for t in A11_PAIR]) == a11.order()
    assert a11.subgroup_order([P(t, 11) for t in PSL211_PAIR]) == 660
    assert a11.subgroup_order([Permutation.identity(11)]) == 1


def test_bound_below_the_true_order_is_an_internal_error():
    """The basic orbit lengths of A5 multiply to 5, 20, 60: they pass 59
    without ever equalling it."""
    with pytest.raises(InternalCheckError, match="above the order bound"):
        StabilizerChain([P("(1,2)(3,4)", 5), P("(1,2,3,4,5)", 5)], 5, order_bound=59)


@pytest.mark.parametrize("texts, degree, bound", [
    # |A7| - 1 = 2519 = 11 · 229 and |A11| - 1 = 19958399 = 113 · 347 · 509:
    # no product of orbit lengths of at most 7 (or 11) points equals them
    (("(1,2,3)", "(1,2,3,4,5,6,7)"), 7, 2519),
    (A11_PAIR, 11, 19958399),
])
def test_sifting_to_a_false_bound_is_an_internal_error(texts, degree, bound):
    with pytest.raises(InternalCheckError, match="above the order bound"):
        StabilizerChain([P(t, degree) for t in texts], degree, order_bound=bound)


def test_seeded_chain_builds_the_same_base_every_run():
    gens = [P(t, 11) for t in A11_PAIR]
    runs = [StabilizerChain(gens, 11, order_bound=19958400) for _ in range(2)]
    assert runs[0].base == runs[1].base
    assert [g.key() for g in runs[0].master] == [g.key() for g in runs[1].master]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_sifting_seed_changes_no_order_or_membership(monkeypatch, seed):
    cases = [(A11_PAIR, 11, 19958400), (PSL211_PAIR, 11, 19958400),
             (("(1,2,3)", "(1,2,3,4,5,6,7)"), 7, 2520)]
    want = []
    for texts, degree, bound in cases:
        gens = [P(t, degree) for t in texts]
        chain = StabilizerChain(gens, degree, order_bound=bound)
        want.append((chain.order(), [chain.contains(p) for p in _probes(gens, degree)]))
    monkeypatch.setattr(StabilizerChain, "SIFT_SEED", seed)
    for (texts, degree, bound), (order, members) in zip(cases, want):
        gens = [P(t, degree) for t in texts]
        chain = StabilizerChain(gens, degree, order_bound=bound)
        assert chain.order() == order
        assert [chain.contains(p) for p in _probes(gens, degree)] == members


def test_decimal_string_writes_every_digit():
    """Past the interpreter's 4300-digit limit on str(int) (A5's |M| and |Y|
    at n = 8 and 9, and PSL(2,7)'s |M| at d = 1260) as below it and next to
    it, the digits of str(int) with the limit lifted."""
    cases = [
        (60, 2520, 1), (60, 2520, math.factorial(8)), (168, 1260, 1),
        (60, 20160, 1), (60, 20160, math.factorial(9)),
        (10, 4296, 1), (10, 4297, 1), (10, 4299, 1), (60, 0, 1), (7, 1, 1), (60, 12, 24), (1, 9, 7),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for base, exponent, factor in cases:
            assert decimal_string(base, exponent, factor) == str(base**exponent * factor)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# action predicates
# ---------------------------------------------------------------------------


def test_is_2_transitive():
    assert is_2_transitive([P("(1,2)(3,4)", 5), P("(1,2,3,4,5)", 5)], 5)
    assert is_2_transitive([P("(2,3)", 3), P("(1,2,3)", 3)], 3)
    # a cyclic group is transitive but never 2-transitive past degree 2
    assert not is_2_transitive([P("(1,2,3,4)", 4)], 4)


def test_is_natural_alternating():
    assert is_natural_alternating(resolve_group("A5"))
    assert is_natural_alternating(resolve_group("A7"))
    assert is_natural_alternating(resolve_group("A11"))
    assert not is_natural_alternating(resolve_group("A6"))  # degree 6 excluded
    assert not is_natural_alternating(resolve_group("PSL27"))
    assert not is_natural_alternating(group("(1,2)", "(1,2,3,4)", degree=4))


# ---------------------------------------------------------------------------
# subgroup oracles (`coset_oracle`)
# ---------------------------------------------------------------------------


def _sym234_in_s4():
    return closure([P("(2,3)", 4), P("(2,3,4)", 4)], Permutation.identity(4))


def test_conj_intersection_oracle():
    h = _sym234_in_s4()
    inter = conj_intersection(h, P("(1,2)", 4))
    keys = {e.key() for e in inter}
    expected = {Permutation.identity(4).key(), P("(3,4)", 4).key()}
    assert keys == expected


def test_right_transversal_partitions():
    h = _sym234_in_s4()
    k = conj_intersection(h, P("(1,2)", 4))
    reps, coset_of = right_transversal(k, h)
    assert len(reps) == len(h) // len(k) == 3
    seen = set()
    for pos, r in enumerate(reps):
        coset = {(z * r).key() for z in k}
        assert not coset & seen
        assert all(coset_of[key] == pos for key in coset)
        seen |= coset
    assert seen == {e.key() for e in h} == set(coset_of)


# ---------------------------------------------------------------------------
# enumerated tables
# ---------------------------------------------------------------------------


def test_table_group_matches_permutation_arithmetic():
    groups = [
        (resolve_group("A5"), 60),
        (resolve_group("A6"), 360),
        (resolve_group("PSL27"), 168),
        (group("(1,2)", "(1,2,3,4)", degree=4), 24),  # S4
        (group("(1,2,3,4,5,6,7)", degree=7), 7),  # Z7, one generator
        (PermGroup([], degree=3), 1),  # trivial: a 1x1 table
    ]
    for g, size in groups:
        t = TableGroup(g)
        assert t.size == size
        # one-byte ids keep one |T|^2 buffer, and a flat read of it is a
        # view; two-byte ids (A6) keep none
        assert (t.mult is None) == (size > 256)
        if t.mult is not None:
            assert t.mult.shape == (size, size) and np.shares_memory(t.mult.reshape(-1), t.mult)
        assert t.elem(0).is_identity()
        # the rows' BFS lists the elements in the order of `closure`
        elems = closure(g.generators, g.identity)
        assert [t.elem(i) for i in range(size)] == list(elems)
        ids = np.arange(size)
        products = t.product(ids[:, None], ids)
        assert np.array_equal(products, int32_table(g)[0])
        for a in range(size):
            for b in range(size):
                assert t.elem(products[a, b]) == elems[a] * elems[b]
            assert t.multiply(a, t.invert(a)) == 0
            assert t.multiply(a, size - 1 - a) == products[a, size - 1 - a]
            assert t.order_of[a] == elems[a].order()


def test_table_build_rejects_an_inconsistent_element_list(monkeypatch):
    from arccover import groups

    def listing(elements):
        """Make the table's element rows those of `elements`."""
        rows = np.array([p.images for p in elements], dtype=np.uint8) - 1
        monkeypatch.setattr(groups, "closure_rows", lambda group, cap: rows)

    # products leaving the list: half of A5
    a5 = resolve_group("A5")
    listing(closure(a5.generators, a5.identity)[:30])
    with pytest.raises(InternalCheckError, match="not in the element list"):
        TableGroup(resolve_group("A5"))
    # S5 listed for A5: a base of A5 (three points) fixes no element of S5,
    # so each pair of S5's elements that differ by a transposition of the
    # last two points shares its base images
    s5 = group("(1,2)", "(1,2,3,4,5)", degree=5)
    listing(closure(s5.generators, s5.identity))
    with pytest.raises(InternalCheckError, match="60 elements share their base images"):
        TableGroup(resolve_group("A5"))
    # closed under the generators' products but not generated by them: V4
    # listed for <(1,2)(3,4)>, whose base (point 1) tells V4's elements apart,
    # has two rows never reached from row 0
    v4 = group("(1,2)(3,4)", "(1,3)(2,4)", degree=4)
    listing(closure(v4.generators, v4.identity))
    with pytest.raises(InternalCheckError, match="2 rows unreached"):
        TableGroup(group("(1,2)(3,4)", degree=4))


def test_natural_alternating_t_past_one_byte_runs_on_its_pool(monkeypatch):
    """A7 gets no multiplication table: its n = 4 decomposition leaves none
    built and its entries are uint16 pool ids, in the dtype its table would
    have. A5, A6 (not natural alternating) and PSL27 keep their tables. The
    decision is made once per group."""
    from arccover import groups

    a7 = resolve_group("A7")
    decided = []
    natural = groups.is_natural_alternating
    monkeypatch.setattr(groups, "is_natural_alternating", lambda g: decided.append(g) or natural(g))
    data = build_cover_group(CoverJob(n=4, group=a7, x=P("(1,2)(3,4)", 7),
                                      y=P("(1,2,3,4,5,6,7)", 7)))
    assert decompose_rows(all_rows(data)[0], a7).block_count == 3
    assert a7._table is None and a7.table() is None
    assert decided == [a7]
    assert isinstance(data.ctx.entries, EntryPool) and data.ctx.dtype == np.uint16
    for name, dtype in [("A5", np.uint8), ("A6", np.uint16), ("PSL27", np.uint8)]:
        table = resolve_group(name).table()
        assert isinstance(table, TableGroup) and table.dtype == dtype


def test_table_cap():
    s8 = group("(1,2)", "(1,2,3,4,5,6,7,8)", degree=8)
    with pytest.raises(CapacityExceeded):
        TableGroup(s8)


@pytest.mark.parametrize("name, dtype", [
    ("A5", np.uint8), ("PSL27", np.uint8),
    ("A6", np.uint16),  # |T| = 360: the first catalog group past uint8
    ("A7", np.uint16), ("PSL2_13", np.uint16),
    ("PSL2_19", np.uint16),  # 3420 elements, near TABLE_CAP
])
def test_compact_table_matches_the_int32_oracle(name, dtype):
    """The rows' BFS lists the oracle's elements (`PermGroup.elements`, the
    closure of Permutations) in its order, and ids, products, inverses and
    orders are the oracle's."""
    grp = {"PSL2_13": PSL2_13, "PSL2_19": PSL2_19}.get(name)
    grp = PermGroup.from_cycle_strings(*grp) if grp else resolve_group(name)
    t = TableGroup(grp)
    mult, inv, order_of = int32_table(grp)
    elems = closure(grp.generators, grp.identity)
    assert np.array_equal(t.images, np.array([p.images for p in elems], dtype=np.uint8) - 1)
    assert [t.idx(p) for p in elems] == list(range(t.size))
    assert [t.elem(i) for i in range(t.size)] == list(elems)
    ids = np.arange(t.size)
    for start in range(0, t.size, 512):  # a block of rows at a time: a few MB
        products = t.product(ids[start:start + 512, None], ids)
        assert products.dtype == dtype
        assert np.array_equal(products, mult[start:start + 512])
    # the table is kept only while the ids fit in one byte
    assert (t.mult is None) == (dtype == np.uint16)
    assert np.array_equal(t.inv, inv) and t.inv.dtype == dtype
    assert np.array_equal(t.order_of, order_of)


# PSL(2,13) and PSL(2,19) on the projective line: z -> z+1 and z -> -1/z,
# with the points 0..q-1 as 1..q and infinity as q+1. PSL(2,13) is the T of
# the 4368-vertex cover of K4; PSL(2,19) (3420 elements) is near TABLE_CAP.
PSL2_13 = (["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"], 14)
PSL2_19 = (["(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19)",
            "(1,20)(2,19)(3,10)(4,7)(5,15)(6,16)(8,9)(11,18)(12,13)(14,17)"], 20)


@pytest.mark.parametrize("name", ["A5", "PSL2_13"])
def test_product_takes_scalars(name):
    grp = PermGroup.from_cycle_strings(*PSL2_13) if name == "PSL2_13" else resolve_group(name)
    t = TableGroup(grp)
    assert t.product(3, 4) == t.multiply(3, 4) == t.idx(t.elem(3) * t.elem(4))
    assert t.product(np.array(3), np.array(4)) == t.multiply(3, 4)  # 0-d arrays
    assert t.product(np.uint16(3), np.arange(5))[4] == t.multiply(3, 4)
    assert t.product(np.arange(5), 4)[3] == t.multiply(3, 4)


@pytest.mark.parametrize("name", ["A6", "A7", "PSL2_13", "PSL2_19"])
def test_two_byte_table_holds_no_square_array(name):
    """With two-byte ids no array of T's arithmetic has more than |T|·degree
    entries: the products are read off the base images."""
    grp = {"PSL2_13": PSL2_13, "PSL2_19": PSL2_19}.get(name)
    t = TableGroup(PermGroup.from_cycle_strings(*grp) if grp else resolve_group(name))
    assert t.dtype == np.uint16 and t.mult is None
    arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
    arrays += [a for v in vars(t).values() if isinstance(v, list) for a in v if isinstance(a, np.ndarray)]
    assert len(arrays) > 3 and all(a.size <= t.size * t.degree for a in arrays)
    if name == "PSL2_19":
        assert sum(a.nbytes for a in arrays) < 1 << 20


def test_near_cap_table_multiplies_like_permutations():
    """PSL(2,19), 3420 elements of degree 20, near `TABLE_CAP`: products of
    seeded random pairs are the Permutation products."""
    grp = PermGroup.from_cycle_strings(*PSL2_19)
    t = TableGroup(grp)
    assert t.size == grp.order() == 3420 <= TABLE_CAP
    rng = np.random.default_rng(19)
    a, b = rng.integers(0, t.size, size=(2, 2000))
    products = t.product(a.astype(t.dtype), b.astype(t.dtype))
    assert products.dtype == np.uint16
    assert [t.elem(p) for p in products.tolist()] == [t.elem(i) * t.elem(j) for i, j in zip(a, b)]
    assert [t.order_of[p] for p in a[:50]] == [t.elem(p).order() for p in a[:50]]
    assert all(t.multiply(p, t.invert(p)) == 0 for p in a[:50].tolist())


@pytest.mark.parametrize("name", ["A5", "PSL2_13"])
def test_idx_checks_the_whole_row(name):
    """A permutation outside T that has the base images of an element of T
    (a transposition of two points off the base, then that element) is
    rejected, not given that element's id."""
    grp = PermGroup.from_cycle_strings(*PSL2_13) if name == "PSL2_13" else resolve_group(name)
    t = TableGroup(grp)
    base = grp.chain().base
    i, j = [p for p in range(1, grp.degree + 1) if p not in base][:2]
    swap = P(f"({i},{j})", grp.degree)
    for i, e in enumerate(closure(grp.generators, grp.identity)[:20]):
        assert t.idx(e) == i
        outside = swap * e
        assert [outside.apply(p) for p in base] == [e.apply(p) for p in base]
        with pytest.raises(ValidationError, match="not in this group"):
            t.idx(outside)


def _int32_copy(table: TableGroup) -> TableGroup:
    """The table with its products and inverses widened to int32."""
    wide = copy.copy(table)
    wide.product = lambda a, b: table.product(a, b).astype(np.int32)
    wide.inv = table.inv.astype(np.int32)
    wide.dtype = wide.inv.dtype
    return wide


@pytest.mark.parametrize("name, n, x, y", [
    ("A5", 5, "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("PSL27", 4, "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)"),
])
def test_table_consumers_agree_with_an_int32_table(name, n, x, y):
    """No consumer of the table's products computes in their narrow dtype:
    automorphism propagation, generation and the Schreier rows give what an
    int32 copy of the same table gives."""
    grp = resolve_group(name)
    t = grp.table()
    wide = _int32_copy(t)
    rng = random.Random(7)
    pairs = np.array([[rng.randrange(t.size) for _ in range(2)] for _ in range(200)])
    generates = generating_rows(t, pairs)
    assert np.array_equal(generating_rows(wide, pairs), generates)
    assert generates.any() and not generates.all()
    # a generating pair onto its conjugates (automorphisms) and onto random pairs
    sources = np.repeat(pairs[generates][:1], 2 * 60, axis=0)
    conj = [[t.idx(t.elem(s).conjugate(t.elem(c))) for s in sources[0]] for c in range(60)]
    targets = np.vstack([conj, pairs[:60]])
    lookups = automorphism_lookups(t, sources, targets)
    assert np.array_equal(automorphism_lookups(wide, sources, targets), lookups)
    assert (lookups[:60] >= 0).all() and (lookups[60:] < 0).any()
    job = CoverJob(n=n, group=grp, x=P(x, grp.degree), y=P(y, grp.degree))
    rows, tops = all_rows(build_cover_group(job))
    wide_group = copy.copy(grp)
    wide_group._table = wide  # the context takes its entry dtype from the table
    wide_rows, wide_tops = all_rows(build_cover_group(dataclasses.replace(job, group=wide_group)))
    assert rows.dtype == np.uint8 and wide_rows.dtype == np.int32
    assert np.array_equal(rows, wide_rows) and tops == wide_tops


def test_generates():
    t = TableGroup(resolve_group("A5"))
    x = t.idx(P("(1,2)(3,4)", 5))
    y = t.idx(P("(1,2,3,4,5)", 5))
    assert t.generates([x, y])
    assert not t.generates([x])


def test_conjugacy_classes_of_a5():
    t = TableGroup(resolve_group("A5"))
    classes = conjugacy_classes(t)
    reps = [c[0] for c in classes]
    assert len(reps) == 5
    assert reps == sorted(reps) and reps[0] == 0
    assert all(c[0] == min(c) for c in classes)
    assert all(c == sorted(c) for c in classes)
    assert sorted(t.order_of[r] for r in reps) == [1, 2, 3, 5, 5]
    assert sorted(map(len, classes)) == [1, 12, 12, 15, 20]
    assert sorted(i for c in classes for i in c) == list(range(60))


def test_simplicity_flags():
    assert is_nonabelian_simple(TableGroup(resolve_group("A5")))
    assert is_nonabelian_simple(TableGroup(resolve_group("PSL27")))
    s4 = group("(1,2)", "(1,2,3,4)", degree=4)
    assert not is_nonabelian_simple(TableGroup(s4))
    z7 = group("(1,2,3,4,5,6,7)", degree=7)
    assert not is_nonabelian_simple(TableGroup(z7))


@pytest.mark.parametrize("g, simple", [
    (resolve_group("A5"), True),
    (resolve_group("A6"), True),
    (resolve_group("A7"), True),
    (resolve_group("PSL27"), True),
    (group("(1,2,3,4,5,6,7,8,9,10,11,12,13)",
           "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)", degree=14), True),  # PSL(2,13)
    (group("(1,2)", "(1,2,3,4)", degree=4), False),  # S4
    (group("(1,2)", "(1,2,3,4,5)", degree=5), False),  # S5 > A5
    (group("(1,2,3)(4,5,6)", "(1,4)(2,5)(3,6)", degree=6), False),  # Z3 x Z2
], ids=["A5", "A6", "A7", "PSL27", "PSL2_13", "S4", "S5", "Z6"])
def test_simplicity_by_class_sizes_agrees_with_normal_closures(g, simple):
    """Where class sizes decide, they agree with generating every class."""
    t = TableGroup(g)
    classes = conjugacy_classes(t)
    by_closures = all(t.generates(c) for c in classes[1:])
    by_sizes = class_sizes_force_simple([len(c) for c in classes], t.size)
    assert by_closures == simple
    assert by_sizes == simple  # no non-simple group here passes the sizes
    assert is_nonabelian_simple(t) == simple


def test_class_sizes_leave_room_for_a_normal_subgroup():
    # S4: 1 + 3 = |V4| divides 24, so the sizes cannot decide
    assert not class_sizes_force_simple([1, 3, 6, 6, 8], 24)
    # A5: no union of 12, 12, 15, 20 plus 1 divides 60
    assert class_sizes_force_simple([1, 12, 12, 15, 20], 60)
    # singleton classes: every divisor of the order is a union's size, and a
    # prime order has none below it (Z7 is simple, if abelian)
    assert not class_sizes_force_simple([1] * 6, 6)
    assert class_sizes_force_simple([1] * 7, 7)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def test_entry_pool_agrees_with_the_table(conjugator_route):
    """A5 forced off its table: on random id arrays, broadcast against each
    other, the pool's product, inverse and orders are the table's, read
    through `elem`; every id keeps its element as the pool grows, and no
    element gets two ids."""
    a5 = resolve_group("A5")
    t = a5.table()
    mult = int32_table(a5)[0]
    pool = conjugator_route(a5).entries()
    assert isinstance(pool, EntryPool) and pool.dtype == t.dtype == np.uint8  # from |T|
    assert pool.size == 1 and pool.elem(0).is_identity()
    rng = np.random.default_rng(3)
    for p in a5.generators:
        pool.idx(p)
    met: list[Permutation] = []

    def index(ids):
        return np.vectorize(lambda i: t.idx(pool.elem(i)), otypes=[np.intp])(ids)

    shapes = [((7,), (7,)), ((3, 4), (4,)), ((5, 1), (1, 6)), ((), (2, 3)), ((40,), ()),
              ((8, 8), (8, 8))]
    for shape_a, shape_b in shapes * 3:
        a = rng.integers(0, pool.size, size=shape_a).astype(np.uint8)
        b = rng.integers(0, pool.size, size=shape_b).astype(np.uint8)
        met = [pool.elem(i) for i in range(pool.size)]
        prod = pool.product(a, b)
        assert prod.dtype == np.uint8 and prod.shape == np.broadcast_shapes(shape_a, shape_b)
        assert np.array_equal(index(prod), mult[index(a), index(b)])
        inv = pool.inverse(a)
        assert inv.dtype == np.uint8 and inv.shape == a.shape
        assert np.array_equal(index(inv), t.inv[index(a)])
        assert np.array_equal(pool.order_of[a], t.order_of[index(a)])
        assert [pool.elem(i) for i in range(len(met))] == met
        assert [pool.idx(p) for p in met] == list(range(len(met)))
    everything = [pool.elem(i) for i in range(pool.size)]
    assert len(set(everything)) == pool.size > 30
    assert np.array_equal(pool.order_of, [p.order() for p in everything])


def test_pool_fill_keeps_its_ids_and_appends_the_closure(conjugator_route):
    """`fill` keeps the ids met so far and numbers the rest of T in the order
    of `closure` over Permutations (`PermGroup.elements`), as a pool filled
    from that list would."""
    for grp in (resolve_group("A7"), conjugator_route(resolve_group("A5"))):
        pool = grp.entries()
        assert isinstance(pool, EntryPool)
        c = grp.generators[-1]
        pool.conjugate(pool.product(np.array([pool.idx(c)]), np.array([pool.idx(c)])), grp.generators[0])
        met = [pool.elem(i) for i in range(pool.size)]
        pool.fill()
        assert [pool.elem(i) for i in range(pool.size)] == met + [
            p for p in closure(grp.generators, grp.identity) if p not in met
        ]
        assert pool.size == grp.order()


def test_pool_takes_in_no_element_outside_the_group(conjugator_route):
    pool = conjugator_route(resolve_group("A5")).entries()
    for outside in (P("(1,2)", 5), P("(1,2,3)", 6)):
        with pytest.raises(ValidationError, match="not in this group"):
            pool.idx(outside)
    assert pool.size == 1


def test_index_maps_agree_with_and_without_a_table(conjugator_route):
    """`_Fibre` reads T's products as maps over the entry ids. On the entry
    pool, which then holds all of T, they and the links are the table's maps
    with every id relabelled through its element."""
    a5 = resolve_group("A5")
    t = a5.table()
    fibres = []
    for group in (a5, conjugator_route(a5)):
        job = CoverJob(n=4, group=group, x=P("(1,2)(3,4)", 5), y=P("(1,2,3,4,5)", 5))
        data = build_cover_group(job)
        structure = decompose_rows(all_rows(data)[0], group)
        fibres.append((data, structure, _Fibre(structure, np.int32)))
    (data, structure, fibre), (bare_data, bare_structure, bare) = fibres
    pool = bare.entries
    assert isinstance(pool, EntryPool) and pool.size == bare.size == 60
    to_pool = np.array([pool.idx(t.elem(i)) for i in range(60)])  # table id -> pool id
    assert sorted(to_pool.tolist()) == list(range(60))
    ids = np.arange(60)
    links = [structure.maps[i].image(ids, t) for i in structure.link_id]
    bare_links = [bare_structure.maps[i].image(ids, pool) for i in bare_structure.link_id]
    assert len(links) == len(bare_links) == 6
    for link, bare_link in zip(links, bare_links):
        assert np.array_equal(bare_link[to_pool], to_pool[link])
    # products: the fibre point (d = 1: the id at the base) of z·m and m·z
    assert fibre.bases == bare.bases == [0]
    for row in structure.generators[:3]:
        z, bare_z = data.ctx.from_assignment(row), bare_data.ctx.from_assignment(to_pool[row])
        for left in (True, False):
            got = fibre.apply(z, left)
            want = [t.multiply(row[0], b) if left else t.multiply(b, row[0]) for b in range(60)]
            assert got.tolist() == want
            assert np.array_equal(bare.apply(bare_z, left)[to_pool], to_pool[got])
    # conjugation by an odd permutation, held both ways
    b = P("(1,2)", 5)
    images = [t.idx(t.elem(i).conjugate(b)) for i in range(60)]
    by_table = extend_to_automorphism(t, list(t.gen_indices), [images[i] for i in t.gen_indices])
    assert by_table.image(np.arange(60), t).tolist() == images
    assert np.array_equal(AutomorphismMap(conjugator=b).image(to_pool, pool), to_pool[images])


def test_extend_to_automorphism_identity():
    t = TableGroup(resolve_group("A5"))
    x = t.idx(P("(1,2)(3,4)", 5))
    y = t.idx(P("(1,2,3,4,5)", 5))
    phi = extend_to_automorphism(t, [x, y], [x, y])
    assert phi is not None
    assert phi.lookup.tolist() == list(range(60))


def test_extend_to_automorphism_inverting():
    t = TableGroup(resolve_group("A5"))
    x = P("(1,2)(3,4)", 5)
    y = P("(1,2,3,4,5)", 5)
    phi = extend_to_automorphism(t, [t.idx(x), t.idx(y)], [t.idx(x), t.idx(y.inverse())])
    assert phi is not None
    assert t.elem(phi.image(t.idx(y), t)) == y.inverse()
    assert t.elem(phi.image(t.idx(x), t)) == x
    mult = int32_table(t.group)[0]
    assert np.array_equal(phi.image(mult, t), mult[phi.lookup[:, None], phi.lookup])


def test_extend_to_automorphism_nonexistent():
    # no automorphism of A5 sends the word pattern of y=(1,5,3) across
    t = TableGroup(resolve_group("A5"))
    x = P("(1,2)(3,4)", 5)
    y = P("(1,5,3)", 5)
    yi = y.inverse()
    sources = [y * x * y, y * y * x, x * y * y]
    targets = [y * y * x, y * x * y, yi * yi * x]
    phi = extend_to_automorphism(
        t, [t.idx(s) for s in sources], [t.idx(v) for v in targets]
    )
    assert phi is None


def test_extend_to_automorphism_needs_generating_sources():
    t = TableGroup(resolve_group("A5"))
    y = t.idx(P("(1,2,3,4,5)", 5))
    with pytest.raises(ValidationError):
        extend_to_automorphism(t, [y], [y])


def test_conjugating_permutations_unique():
    x = P("(1,2)(3,4)", 5)
    y = P("(1,2,3,4,5)", 5)
    same = conjugating_permutations([x, y], [x, y], 5)
    assert same == [Permutation.identity(5)]
    inverting = conjugating_permutations([x, y], [x, y.inverse()], 5)
    assert len(inverting) == 1
    b = inverting[0]
    assert x.conjugate(b) == x and y.conjugate(b) == y.inverse()


def test_conjugating_permutations_requires_transitivity():
    with pytest.raises(ValidationError):
        conjugating_permutations([P("(1,2,3)", 5)], [P("(1,3,2)", 5)], 5)


# ---------------------------------------------------------------------------
# sympy's Schreier–Sims as an independent oracle
# ---------------------------------------------------------------------------

def to_sympy(p, degree):
    """p as a sympy permutation, on the points shifted to 0..degree-1."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.Permutation([i - 1 for i in p.images], size=degree)


def sympy_group(perms, degree):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup([to_sympy(p, degree) for p in perms])


def sympy_order(perms, degree):
    """|<perms>| computed by sympy."""
    return sympy_group(perms, degree).order()


@pytest.mark.parametrize("name", [*BUILTIN_CATALOG, "PSL2_13"])
def test_group_orders_match_sympy(name):
    grp = PermGroup.from_cycle_strings(*PSL2_13) if name == "PSL2_13" else resolve_group(name)
    assert grp.order() == sympy_order(grp.generators, grp.degree)


@pytest.mark.parametrize("name, x, y", [
    # the catalog-mix pairs, each generating T
    ("A5", "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)"),
    ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)"),
    ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)"),
    # pairs generating proper subgroups: A4 in A7, A5 in A11
    ("A7", "(1,2)(3,4)", "(1,2,3)"),
    ("A11", "(1,2)(3,4)", "(1,2,3,4,5)"),
])
def test_pair_subgroup_orders_match_sympy(name, x, y):
    grp = resolve_group(name)
    pair = [P(x, grp.degree), P(y, grp.degree)]
    assert grp.subgroup_order(pair) == sympy_order(pair, grp.degree)


def _chain_runs(monkeypatch) -> list[int]:
    """Count the chains that fall back to the full verification."""
    runs = []
    verify = StabilizerChain._verify_all

    def counted(self):
        runs.append(1)
        verify(self)

    monkeypatch.setattr(StabilizerChain, "_verify_all", counted)
    return runs


CHAIN_CASES = {
    # name: (generators, degree, order bound, whether sifting reaches it)
    "A11": (A11_PAIR, 11, 19958400, True),
    "A7": (("(1,2,3)", "(1,2,3,4,5,6,7)"), 7, 2520, True),
    # the bound `subgroup_order` takes: the group's own order
    "PSL2_13-by-its-order": (tuple(PSL2_13[0]), 14, 1092, True),
    # generating sets that never reach it: the verification decides
    "A7-dihedral": (("(1,2,3,4,5,6,7)", "(2,7)(3,6)(4,5)"), 7, 2520, False),
    # `chain()`'s bound for PSL(2,7) of degree 8 is |A8|
    "PSL27-under-A8": (("(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)"), 8, 20160, False),
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_seeded_chain_matches_sympy(monkeypatch, name):
    texts, degree, bound, reaches = CHAIN_CASES[name]
    gens = [P(t, degree) for t in texts]
    runs = _chain_runs(monkeypatch)
    chain = StabilizerChain(gens, degree, order_bound=bound)
    assert (not runs) == reaches
    assert chain.order() == sympy_order(gens, degree)
    assert (chain.order() == bound) == reaches
    oracle = sympy_group(gens, degree)
    for p in _probes(gens, degree):
        assert chain.contains(p) == oracle.contains(to_sympy(p, degree))


def test_subgroup_order_of_psl2_13_matches_sympy():
    grp = PermGroup.from_cycle_strings(*PSL2_13)
    assert grp.subgroup_order(list(grp.generators)) == sympy_order(grp.generators, 14)
