"""Wreath elements over the cycle domain and the cover-group construction."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import coset_oracle
from coset_oracle import conj_intersection, l_elements
from cycle_oracle import conjugation_map, cycle_class, full_cycles, twist_intersection
from schreier_oracle import _pair_classes
from arccover import report
from arccover.catalog import resolve_group
from arccover.cli import main
from arccover.cosetgraph import two_arc_transitive
from arccover.errors import InternalCheckError, ValidationError
from arccover.groups import EntryPool, closure
from arccover.perm import Permutation, parse_cycles
from arccover.wreath import (
    K4_POSITIONS,
    CoverJob,
    WreathContext,
    _lehmer_ranks,
    build_cover_group,
    class_assignment,
    k4_tuple_data,
    kernel_witness,
    to_positions,
    twist_tops,
)


def P(text, degree):
    return parse_cycles(text, degree)


A5 = resolve_group("A5")
X = P("(1,2)(3,4)", 5)
Y = P("(1,2,3,4,5)", 5)


def job(n=4, y=Y, group=A5, x=X, name="A5"):
    return CoverJob(n=n, group=group, x=x, y=y, group_name=name)


def data_for(n=4, y=Y):
    return build_cover_group(job(n=n, y=y))


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------


def _tops(n, sample=None):
    """Every top of degree n, or `sample` of them drawn at random."""
    if sample is None:
        return [Permutation(list(p)) for p in itertools.permutations(range(1, n + 1))]
    rng = random.Random(n)
    return [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(sample)]


def test_comp_map_is_conjugation_indexing():
    """comp_map(s)[i] is the index of cycle i's conjugate s^-1·α·s, found
    by the oracle's keys: checked for every top in Sym(n) for n = 3..6, and
    for sampled tops at n = 7 and 8."""
    for n, sample in ((3, None), (4, None), (5, None), (6, None), (7, 30), (8, 3)):
        ctx = WreathContext(n, A5)
        for sigma in _tops(n, sample):
            assert list(ctx.comp_map(sigma)) == conjugation_map(n, sigma)


def test_comp_map_composes():
    ctx = data_for().ctx
    rng = random.Random(11)
    tops = [P("(2,3,4)", 4), P("(3,4)", 4), P("(1,2)", 4)]
    for _ in range(50):
        s1, s2 = rng.choice(tops), rng.choice(tops)
        m1, m2, m12 = ctx.comp_map(s1), ctx.comp_map(s2), ctx.comp_map(s1 * s2)
        assert all(m12[i] == m2[m1[i]] for i in range(ctx.k))


def _random_elements(data, rng, count):
    out = []
    w = data.ctx.identity_element()
    for _ in range(count):
        for _ in range(rng.randrange(1, 6)):
            w = w * rng.choice(data.y_gens)
        out.append(w)
    return out


def test_group_laws_random_sample():
    data = data_for()
    rng = random.Random(313)
    elems = _random_elements(data, rng, 60)
    ident = data.ctx.identity_element()
    for _ in range(300):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert ((a * b) * c).key() == (a * (b * c)).key()
    for w in elems:
        assert (w * w.inverse()).key() == ident.key()
        assert (w.inverse() * w).key() == ident.key()
        assert w.inverse().inverse().key() == w.key()


def test_index_and_object_modes_agree(conjugator_route):
    """The table route and A5's entry pool give one group law: products and
    inverses of clones are clones, and clones of distinct elements differ."""
    ctx_idx = data_for().ctx
    ctx_obj = WreathContext(4, conjugator_route(A5))
    assert isinstance(ctx_obj.entries, EntryPool) and not isinstance(ctx_idx.entries, EntryPool)

    def clone(w):
        return ctx_obj.from_assignment(
            [ctx_obj.entries.idx(ctx_idx.entries.elem(e)) for e in w.f], w.sigma
        )

    rng = random.Random(77)
    elems = _random_elements(data_for(), rng, 20)
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        assert (clone(a) * clone(b)).key() == clone(a * b).key()
        assert clone(a).inverse().key() == clone(a.inverse()).key()
        assert (clone(a).key() == clone(b).key()) == (a.key() == b.key())


@pytest.mark.parametrize("name, dtype", [
    ("A5", np.uint8), ("A7", np.uint16), ("A5-pool", np.uint8),
])
def test_entry_arithmetic_matches_permutation_products(name, dtype, conjugator_route):
    """T's entrywise product and inverse and the row serialization, on rows
    and on a matrix, against one Permutation product at a time."""
    group = resolve_group(name.split("-")[0])
    if name.endswith("pool"):
        group = conjugator_route(group)
    ctx = WreathContext(5, group)
    assert ctx.dtype == dtype
    elems = closure(group.generators, group.identity)
    rng = random.Random(5)
    picks = [[rng.randrange(len(elems)) for _ in range(ctx.k)] for _ in range(6)]
    a, b = (np.array([[ctx.entries.idx(elems[i]) for i in row] for row in half], dtype=dtype)
            for half in (picks[:3], picks[3:]))
    for x, y in [(a, b), (a[0], b[0])]:
        prod, inv = ctx.entries.product(x, y), ctx.entries.inverse(x)
        assert prod.dtype == inv.dtype == dtype and prod.shape == inv.shape == x.shape
        for e, f, p, q in zip(x.flat, y.flat, prod.flat, inv.flat):
            assert ctx.entries.elem(p) == ctx.entries.elem(e) * ctx.entries.elem(f)
            assert ctx.entries.elem(q) == ctx.entries.elem(e).inverse()
    row = ctx.row(a[0])
    assert row.dtype == dtype and not row.flags.writeable
    sigma = Permutation.identity(5)
    key = ctx.from_assignment(row, sigma).key()
    assert key == ctx.from_assignment(a[0].tolist(), sigma).key()
    assert key != ctx.from_assignment(b[0], sigma).key()
    assert all(ctx.entries.elem(e).is_identity() for e in ctx.identity_row)


def test_elements_hold_read_only_rows():
    data = data_for()
    for w in (data.g, data.h_gens[0], data.g * data.h_gens[0], data.g.inverse(),
              data.ctx.identity_element()):
        assert isinstance(w.f, np.ndarray) and not w.f.flags.writeable
        assert w.f.dtype == data.ctx.dtype == np.uint8 and w.f.shape == (6,)
        with pytest.raises(ValueError):
            w.f[0] = 1


def test_context_size_limit():
    with pytest.raises(ValidationError, match="materialize"):
        WreathContext(11, A5)


def test_embed_top_degree_check():
    ctx = data_for().ctx
    with pytest.raises(ValidationError):
        ctx.embed_top(P("(1,2)", 5))


def test_from_assignment_length_check():
    ctx = data_for().ctx
    with pytest.raises(ValidationError):
        ctx.from_assignment([0] * 5)


# ---------------------------------------------------------------------------
# the constructed generators
# ---------------------------------------------------------------------------


def test_assignment_by_class_n4():
    ctx = data_for().ctx
    f = class_assignment(ctx, X, Y)
    ex, ey, eyi = ctx.entries.idx(X), ctx.entries.idx(Y), ctx.entries.idx(Y.inverse())
    by_class = {cycle_class(alpha): f[i] for i, alpha in enumerate(full_cycles(4))}
    assert by_class == {1: ey, 2: ex, 3: eyi}
    assert to_positions([ctx.entries.elem(e) for e in f]) == (
        Y, Y.inverse(), Y, Y.inverse(), X, X,
    )


@pytest.mark.parametrize(
    "n,expected",
    [
        (5, {"y": 6, "y_inv": 6, "x": 12, "id": 0}),
        (6, {"y": 24, "y_inv": 24, "x": 48, "id": 24}),
    ],
)
def test_assignment_entry_counts(n, expected):
    ctx = build_cover_group(job(n=n)).ctx
    f = class_assignment(ctx, X, Y)
    label = {
        ctx.entries.idx(Y): "y",
        ctx.entries.idx(Y.inverse()): "y_inv",
        ctx.entries.idx(X): "x",
        0: "id",
    }
    counts = Counter(label[e] for e in f)
    assert {k: counts.get(k, 0) for k in expected} == expected


@pytest.mark.parametrize("n", [4, 5, 6])
def test_twist_identities(n):
    data = data_for(n=n)
    g = data.g
    assert (g * g).is_identity()
    for z in l_elements(data):
        assert (g * z).key() == (z * g).key()
    assert not g.is_identity()  # with g^2 = 1: g has order 2
    assert len(data.h_elements()) == math.factorial(n - 1)


# ---------------------------------------------------------------------------
# H, L and K = H ∩ H^g held as tops
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_h_and_l_elements_are_the_wreath_closures(n):
    """H's wreath elements and K's tops, the closure of L's, come in the
    order of the closures of their embedded generators."""
    data = data_for(n=n)
    h_elems = closure(data.h_gens, data.ctx.identity_element())
    assert [w.key() for w in data.h_elements()] == [w.key() for w in h_elems]
    l_tops = closure(data.l_top_gens, Permutation.identity(n))
    assert l_tops == [w.sigma for w in l_elements(data)]


C = P("(1,2,3)", 5)
TOPS_CASES = {
    **{f"A5-n{n}": (n, "A5", X, Y) for n in (4, 5, 6, 7)},
    "A5-conjugated-n5": (5, "A5", X.conjugate(C), Y.conjugate(C)),
    "PSL27-n4-table": (4, "PSL27", P("(1,8)(2,7)(3,4)(5,6)", 8), P("(1,2,3,4,5,6,7)", 8)),
    "A11-n4-object": (4, "A11", P("(1,2)(3,6)", 11), P("(1,2,3,4,5,6,7,8,9,10,11)", 11)),
}


def assert_tops_match_the_wreath_oracle(data):
    """L and K from the enumeration of L (`twist_intersection`) equal the
    wreath-element route, g commutes with exactly the elements of L in K,
    and the generator test passes exactly when K = L; returns K's tops."""
    l_tops, k_tops = twist_intersection(data)
    g, h_elems, l_elems = data.g, data.h_elements(), l_elements(data)
    h_tops = closure(data.h_top_gens, Permutation.identity(data.ctx.n))
    assert h_tops == [w.sigma for w in h_elems]
    assert l_tops == [w.sigma for w in l_elems]
    inter = conj_intersection(h_elems, g)
    assert {t.key() for t in k_tops} == {w.sigma.key() for w in inter}
    commuting = {w.sigma.key() for w in l_elems if g * w == w * g}
    assert commuting == {t.key() for t in k_tops}
    assert twist_tops(data) == (k_tops == l_tops)
    return k_tops


@pytest.mark.parametrize("case", sorted(TOPS_CASES))
def test_twist_tops_match_the_wreath_oracle(case):
    n, name, x, y = TOPS_CASES[case]
    group = resolve_group(name)
    data = build_cover_group(CoverJob(n=n, group=group, x=x, y=y, group_name=name))
    assert isinstance(data.ctx.entries, EntryPool) == (name == "A11")
    assert len(assert_tops_match_the_wreath_oracle(data)) == math.factorial(n - 2)


def test_twist_tops_match_the_cycle_oracle_at_n8():
    """At n = 8 every one of the 720 elements of L fixes g's base, as the
    test of L's two generators says."""
    data = data_for(n=8)
    l_tops, k_tops = twist_intersection(data)
    assert len(l_tops) == 720 and k_tops == l_tops
    assert l_tops == closure(data.l_top_gens, Permutation.identity(8))
    assert twist_tops(data)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_two_arc_transitive_on_tops_matches_the_wreath_route(n):
    data = data_for(n=n)
    h_elems = data.h_elements()
    wreath = coset_oracle.two_arc_transitive(
        h_elems, conj_intersection(h_elems, data.g), data.h_gens
    )
    assert two_arc_transitive(data.h_top_gens, data.l_top_gens, n) == wreath
    assert wreath == {"index": n - 1, "two_transitive": True}


@pytest.mark.parametrize("case", [*sorted(TOPS_CASES), "A5-n8"])
def test_two_arc_transitive_from_generators_matches_the_closure_route(case):
    """H's generators on the orbit of 2 decide what H's action on a right
    transversal of K, both closed as tops, decides."""
    n, name, x, y = TOPS_CASES.get(case, (8, "A5", X, Y))
    data = build_cover_group(CoverJob(n=n, group=resolve_group(name), x=x, y=y, group_name=name))
    identity = Permutation.identity(n)
    h_tops, k_tops = (closure(gens, identity) for gens in (data.h_top_gens, data.l_top_gens))
    closed = coset_oracle.two_arc_transitive(h_tops, k_tops, data.h_top_gens)
    assert two_arc_transitive(data.h_top_gens, data.l_top_gens, n) == closed
    assert closed == {"index": n - 1, "two_transitive": True}


def test_two_arc_transitive_from_generators_on_other_groups():
    """A cyclic H on {2..5} acts regularly on the cosets of its trivial
    stabilizer of 2, as on the closed transversal; a K that is not the
    stabilizer of 2 in H is refused."""
    h_gens, identity = [P("(2,3,4,5)", 5)], Permutation.identity(5)
    closed = coset_oracle.two_arc_transitive(closure(h_gens, identity), [identity], h_gens)
    assert two_arc_transitive(h_gens, [], 5) == closed
    assert closed == {"index": 4, "two_transitive": False}
    sym = [P("(2,3,4,5)", 5), P("(4,5)", 5)]
    for k_gens in ([P("(3,4,5)", 5)], [P("(2,3)", 5)]):  # index 2 in the stabilizer; moves 2
        with pytest.raises(InternalCheckError, match="not the stabilizer of 2"):
            two_arc_transitive(sym, k_gens, 5)


def _broken_twist(data, tops=(), last=False):
    """g with a base that is not constant on class 1: at one cycle of the
    class and at its conjugates by `tops`, y^2 replaces y, and y^-2 replaces
    y^-1 at their images under (1,2), so g^2 = 1 still holds but only the
    elements of L that keep those cycles together commute with g. With
    `last`, the cycle is the last of the class, the one of highest index."""
    ctx, f = data.ctx, list(data.g.f)
    first = np.flatnonzero(ctx.place[:, 1] == 1)[-1 if last else 0]
    for i in {first, *(ctx.comp_map(t)[first] for t in tops)}:
        j = ctx.comp_map(data.delta)[i]
        f[i], f[j] = ctx.entries.idx(Y * Y), ctx.entries.idx((Y * Y).inverse())
    g = ctx.from_assignment(f, data.delta)
    return dataclasses.replace(data, g=g, y_gens=data.h_gens + (g,))


@pytest.mark.parametrize("n", [5, 6])
def test_twist_tops_match_the_wreath_oracle_on_broken_twists(n):
    """K is the identity for one broken cycle, and <(3,4)> for a cycle and
    its conjugate by (3,4): L is regular on the class. So K is <s> for a
    cycle and its conjugates by one generator s of L, which passes while
    the other fails. Each time K < L, and the generator test fails."""
    data, ident = data_for(n=n), Permutation.identity(n)
    cyclic = [closure([s], ident) for s in (P("(3,4)", n), *data.l_top_gens)]
    for subgroup in ([ident], *cyclic):
        broken = _broken_twist(data, subgroup)
        k = assert_tops_match_the_wreath_oracle(broken)
        assert sorted(t.key() for t in k) == sorted(t.key() for t in subgroup)
        assert not twist_tops(broken)


def test_broken_twist_fails_the_twist_identities(capsys, monkeypatch):
    """A failed generator fails the check, and no order of K is claimed."""
    broken = _broken_twist(data_for(n=5))
    assert (broken.g * broken.g).is_identity()
    assert not twist_tops(broken)
    monkeypatch.setattr(report, "build_cover_group", lambda job: broken)
    code = main(["construct", "--n", "5", "--group", "A5", "--x", "(1,2)(3,4)",
                 "--y", "(1,2,3,4,5)"])
    assert code == 1
    rec = next(c for c in json.loads(capsys.readouterr().out)["checks"]
               if c["id"] == "twist-identities")
    assert rec["passed"] is False
    assert rec["computed"] == {
        "g_squared_trivial": True,
        "generators_checked": 2,
        "intersection_order": None,
        "intersection_is_fixed_subgroup": False,
    }


def test_twist_tops_needs_the_swap_as_top():
    data = data_for(n=5)
    g = data.g * data.ctx.embed_top(P("(3,4)", 5))
    with pytest.raises(InternalCheckError, match="top"):
        twist_tops(dataclasses.replace(data, g=g))


def test_twist_tops_decide_k_at_n9():
    """At n = 9 the k = 8! = 40320 positions do not fit in int16. L's
    generators fix g's base, a g broken at the last cycle of class 1 (at
    position k - 1) fails, and the comp maps at the last positions give the
    positions of the cycles' conjugates."""
    data = data_for(n=9)
    ctx, walk = data.ctx, data.ctx.walk
    assert ctx.k == math.factorial(8) and twist_tops(data)
    broken = _broken_twist(data, last=True)
    assert int(np.flatnonzero(broken.g.f != data.g.f).max()) == ctx.k - 1 > 2**15
    assert not twist_tops(broken)
    for sigma in data.l_top_gens:
        for i in range(ctx.k - 3, ctx.k):
            alpha = parse_cycles("(" + ",".join(str(p + 1) for p in walk[i]) + ")", 9)
            assert ctx.comp_map(sigma)[i] == ctx.position(alpha.conjugate(sigma))


def test_kernel_witness_entries():
    data = data_for(n=5)
    s = kernel_witness(data)
    ctx = data.ctx
    assert s.sigma.is_identity()
    alpha = P("(1,2,3,4,5)", 5)
    got_front = ctx.entries.elem(s.f[full_cycles(5).index(alpha)])
    got_back = ctx.entries.elem(s.f[full_cycles(5).index(alpha.inverse())])
    assert got_front == Y * Y * X
    assert got_back == Y.inverse() * Y.inverse() * X
    assert got_front.cycle_string() == "(1,4,2,3,5)"
    assert got_back.cycle_string() == "(1,3,2,5,4)"


def test_kernel_witness_interleaved_entry_vanishes_at_n7():
    data = data_for(n=7)
    s = kernel_witness(data)
    ctx = data.ctx
    beta = P("(1,4,2,5,3,6,7)", 7)
    assert s.f[full_cycles(7).index(beta)] == 0


# ---------------------------------------------------------------------------
# job validation
# ---------------------------------------------------------------------------


def test_job_rejects_even_order_y():
    bad = job(y=P("(1,3)(2,4)", 5))
    assert any("odd prime, got 2" in p for p in bad.problems())


def test_job_rejects_prime_power_order_y():
    from arccover.groups import PermGroup

    a9 = PermGroup.from_cycle_strings(["(1,2,3)", "(1,2,3,4,5,6,7,8,9)"], 9)
    nine_cycle = P("(1,2,3,4,5,6,7,8,9)", 9)
    bad = CoverJob(n=4, group=a9, x=P("(1,2)(3,4)", 9), y=nine_cycle, group_name="A9")
    assert any("odd prime, got 9" in p for p in bad.problems())


def test_job_rejects_non_involution_x():
    bad = job(x=P("(1,2,3)", 5))
    assert any("|x| must be 2" in p for p in bad.problems())


def test_job_rejects_proper_subgroup():
    bad = job(x=P("(1,2)(3,4)", 5), y=P("(1,2,3)", 5))
    probs = bad.problems()
    assert any("proper subgroup" in p for p in probs)


def test_job_rejects_small_n():
    bad = job(n=3)
    assert any("n must be at least 4" in p for p in bad.problems())


def test_job_validate_raises():
    with pytest.raises(ValidationError):
        job(n=3).validate()


# ---------------------------------------------------------------------------
# the n = 4 positional conventions
# ---------------------------------------------------------------------------


def test_k4_tuples_match_word_literals():
    data = data_for()
    tuples = k4_tuple_data(data)
    y, x, yi = Y, X, Y.inverse()
    expected = {
        "t1": (y*x*y, yi*x*yi, y*y*x, yi*yi*x, x*y*y, x*yi*yi),
        "t2": (y*y*x, yi*yi*x, y*x*y, yi*x*yi, x*yi*yi, x*y*y),
        "t3": (x*y*y, x*yi*yi, yi*yi*x, y*y*x, y*x*y, yi*x*yi),
    }
    got1, got2, got3 = tuples.tuples_in_positions()
    assert got1 == expected["t1"]
    assert got2 == expected["t2"]
    assert got3 == expected["t3"]
    assert got1[0].cycle_string() == "(1,2,5,3,4)"  # y*x*y


def test_k4_tuple_involutions_square_to_identity():
    tuples = k4_tuple_data(data_for())
    for s in (tuples.s1, tuples.s2, tuples.s3):
        assert (s * s).is_identity()


def test_k4_positions_are_the_six_cycles():
    keys = {P(text, 4).key() for text in K4_POSITIONS}
    assert keys == {alpha.key() for alpha in full_cycles(4)}
    # to_positions reads canonical index i at the position of cycle i
    cycles = full_cycles(4)
    assert to_positions(cycles) == tuple(P(text, 4) for text in K4_POSITIONS)


def test_tuple_data_requires_n4():
    with pytest.raises(ValidationError):
        k4_tuple_data(data_for(n=5))


# ---------------------------------------------------------------------------
# the top arithmetic of the Schreier rows (`schreier_oracle`)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_pair_classes_are_the_classes_of_conjugated_cycles(n):
    """Row σ^-1(1)·n + σ^-1(2) (0-based) of `_pair_classes` holds the class
    of σ^-1·α·σ for every cycle α, by the oracle's walk: for every top σ
    in Sym(n) for n <= 6, and for sampled tops at n = 7 and 8."""
    ctx = WreathContext(n, resolve_group("A5"))
    classes = _pair_classes(ctx)
    for sigma in _tops(n, {7: 30, 8: 3}.get(n)):
        p, q = sigma.images.index(1), sigma.images.index(2)
        want = [cycle_class(alpha.conjugate(sigma)) for alpha in full_cycles(n)]
        assert classes[p * n + q].tolist() == want


def test_pair_classes_at_n8_peak_below_half_a_megabyte():
    """The 64 × 5040 table takes 0.32 MB; it is built in uint8 throughout,
    with no k × n × n integer temporary (5.5 MB in intp)."""
    ctx = WreathContext(8, resolve_group("A5"))
    tracemalloc.start()
    try:
        classes = _pair_classes(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert classes.dtype == np.uint8 and classes.shape == (64, 5040)
    assert classes.flags.c_contiguous
    assert peak < 500_000


def test_lehmer_ranks_number_sym_n_in_lex_order():
    tops = np.array(list(itertools.permutations(range(5))), dtype=np.uint8)
    assert _lehmer_ranks(tops).tolist() == list(range(120))
