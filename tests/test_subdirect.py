"""Block decomposition of subdirect subgroups of T^k and the n = 4 criteria."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import subdirect_oracle as oracle
from cycle_oracle import full_cycles
from schreier_oracle import all_rows
from table_oracle import int32_table
from arccover import report, subdirect
from arccover.catalog import resolve_group
from arccover.errors import BudgetExhausted, ValidationError
from arccover.groups import EntryPool, PermGroup, conjugating_permutations, extend_to_automorphism
from arccover.perm import Permutation, parse_cycles
from arccover.report import JobSpec, run_job
from arccover.subdirect import (
    BlockReport,
    _entry_rows,
    _first_rows,
    cross_automorphism,
    inverting_automorphism,
    structures_equal,
    subdirect_decompose,
)
from arccover.wreath import (
    CoverJob,
    K4_POSITIONS,
    build_cover_group,
    k4_tuple_data,
)


def P(text, degree=5):
    return parse_cycles(text, degree)


A5 = resolve_group("A5")
X = P("(1,2)(3,4)")
Y1 = P("(1,2,3,4,5)")
Y2 = P("(1,5,3)")
E = Permutation.identity(5)


def image(phi, t, group):
    """phi applied to an element t of T, through t's entry id."""
    entries = group.entries()
    return entries.elem(phi.image(entries.idx(t), entries))


def kernel_structure(y, n=4, group=A5, x=X):
    """Schreier kernel of the top projection, decomposed over T^(n-1)!."""
    job = CoverJob(n=n, group=group, x=x, y=y, group_name="T")
    data = build_cover_group(job)
    kgens = all_rows(data)[0]
    return data, subdirect_decompose(kgens, group)


def positional_blocks(data, structure):
    """Blocks as 1-based position sets in the fixed 4-cycle position order."""
    comp_of_position = [full_cycles(4).index(P(text, 4)) for text in K4_POSITIONS]
    position_of_comp = {c: p + 1 for p, c in enumerate(comp_of_position)}
    return {frozenset(position_of_comp[c] for c in blk) for blk in structure.blocks}


# ---------------------------------------------------------------------------
# decomposition on handmade rows, by both routes
# ---------------------------------------------------------------------------


@pytest.fixture
def routes(conjugator_route):
    """A5 by table propagation and a fresh A5 by the conjugator search, each
    with a converter of Permutation rows into its entry ids."""
    out = []
    for group in (A5, conjugator_route(A5)):
        idx = group.entries().idx
        out.append((group, lambda *row, idx=idx: tuple(map(idx, row))))
    return out


def test_full_diagonal_is_one_block(routes):
    for group, e in routes:
        s = subdirect_decompose([e(X, X), e(Y1, Y1)], group)
        assert s.block_count == 1
        assert s.blocks == ((0, 1),)
        assert s.order() == 60
        assert s.contains(e(Y1, Y1))
        assert not s.contains(e(Y1, Y1.inverse()))


def test_twisted_diagonal_single_block(routes):
    for group, e in routes:
        s = subdirect_decompose([e(X, X), e(Y1, Y1.inverse())], group)
        assert s.block_count == 1
        link = s.links[1] if s.links[0] is None else s.links[0]
        assert image(link, X, group) == X and image(link, Y1, group) == Y1.inverse()
        assert s.contains(e(X * Y1, image(link, X * Y1, group)))
        assert not s.contains(e(X * Y1, X * Y1))


def test_independent_components_are_singletons(routes):
    for group, e in routes:
        s = subdirect_decompose([e(X, E), e(Y1, E), e(E, X), e(E, Y1)], group)
        assert s.blocks == ((0,), (1,))
        assert s.order() == 3600
        assert s.contains(e(Y1, X * Y1))  # anything coordinatewise in T
        # the first two rows are diagonal, the third is not: a link is
        # accepted only if it holds on every row
        s = subdirect_decompose([e(X, X), e(Y1, Y1), e(X * Y1, Y1 * X)], group)
        assert s.blocks == ((0,), (1,))


def test_non_subdirect_rows_rejected(routes):
    for group, e in routes:
        with pytest.raises(ValidationError, match="component 1 projection"):
            subdirect_decompose([e(X, X), e(Y1, E)], group)


@pytest.mark.parametrize(
    "rows",
    [
        [(1, 1), (2, 60)],  # past the last index
        [(1, 1), (2, -1)],  # would read element 59
        [(1, 1), (2, 2.7)],  # would be truncated to 2
        [(1, 1), (2, "3")],
        [(1, 1), (2, True)],
    ],
)
def test_malformed_table_entries_rejected(rows):
    with pytest.raises(ValidationError, match="entries of T"):
        subdirect_decompose(rows, A5)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_integer_matrix_is_taken_as_its_rows(dtype):
    """A matrix gives the structure of its rows, repeats dropped in input
    order, as the row tuples do; the generating rows are a read-only matrix
    in the smallest unsigned dtype holding |T| - 1, uint8 for A5."""
    table = A5.table()
    rows = [tuple(table.idx(p) for p in row) for row in [(X, X), (Y1, Y1.inverse())]]
    matrix = np.array([rows[0], rows[1], rows[0]], dtype=dtype)
    by_matrix = subdirect_decompose(matrix, A5)
    by_tuples = subdirect_decompose(rows, A5)
    for s in (by_matrix, by_tuples):
        assert s.generators.dtype == np.uint8 and not s.generators.flags.writeable
        assert s.generators.tolist() == [list(row) for row in rows]
    assert by_matrix.blocks == by_tuples.blocks and structures_equal(by_matrix, by_tuples)


def test_distinct_rows_are_kept_without_a_copy():
    """Rows that are already distinct and uint8 come back as the same
    memory, and the caller's matrix stays writeable."""
    data, _ = kernel_structure(Y1)
    rows = all_rows(data)[0]
    s = subdirect_decompose(rows, A5)
    assert np.shares_memory(s.generators, rows) and rows.flags.writeable
    assert s.generators.shape == rows.shape


@pytest.mark.parametrize("collide", [False, True], ids=["row-hash", "one-hash"])
def test_first_rows_are_found_by_hash_and_comparison(monkeypatch, collide):
    """Repeated rows are dropped and the first of each kept, in order, also
    when every row is filed under one hash and told apart by comparison."""
    data, _ = kernel_structure(Y1, n=5)
    rows = all_rows(data)[0]
    repeated = np.concatenate([rows[:10], rows[5:], rows[::-1], rows[:3]])
    if collide:
        monkeypatch.setattr(subdirect, "row_hash", lambda row: 0)
    assert _first_rows(repeated) == list(range(10)) + list(range(15, 5 + len(rows)))
    assert np.array_equal(_entry_rows(repeated, A5), rows)


def test_decomposition_at_n7_peaks_below_one_and_a_half_megabytes():
    """The column-major copy of the 1004 x 720 rows takes 0.72 MB; no row is
    copied as a key, no round copies the base columns, and the integer
    temporaries are held to a fixed number of entries."""
    data, _ = kernel_structure(Y1, n=7)
    rows = all_rows(data)[0]
    tracemalloc.start()
    try:
        s = subdirect_decompose(rows, A5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.block_count == 360
    assert peak < 1_500_000


@pytest.mark.parametrize("matrix, message", [
    (np.array([[1, 1], [2, 60]]), "table indices 0..59"),
    (np.array([[1, 1], [2, -1]]), "table indices 0..59"),
    (np.zeros((0, 2), dtype=np.uint8), "one positive length, got lengths \\[\\]"),
    (np.zeros((2, 0), dtype=np.uint8), "one positive length, got lengths \\[0\\]"),
    (np.array([[1.0, 1.0], [2.0, 3.0]]), "int table indices, got float"),
    (np.array([[True, True]]), "int table indices, got bool"),
])
def test_malformed_matrix_rejected(matrix, message):
    with pytest.raises(ValidationError, match=message):
        subdirect_decompose(matrix, A5)


def test_matrix_needs_ids_of_the_pool_and_width_k(conjugator_route):
    """Without a table, ids name the pool's entries: a fresh pool holds the
    identity alone, so id 1 is not yet an entry."""
    matrix = np.array([[1, 1], [2, 2]], dtype=np.uint8)
    with pytest.raises(ValidationError, match="pool ids 0..0"):
        subdirect_decompose(matrix, conjugator_route(A5))
    with pytest.raises(ValidationError, match="length 3, got lengths \\[2\\]"):
        _entry_rows(matrix, A5, 3)


def test_entries_must_match_the_route(conjugator_route):
    """Both routes take int entry ids only; a pool's ids are those it holds."""
    bare = conjugator_route(A5)
    for group, ids in ((A5, "table indices"), (bare, "pool ids")):
        with pytest.raises(ValidationError, match=f"int {ids}, got Permutation"):
            subdirect_decompose([(X, X), (Y1, Y1)], group)
    with pytest.raises(ValidationError, match="pool ids 0..0"):
        subdirect_decompose([(1, 1), (2, 2)], bare)
    # an element reaches the pool through `idx` only, which checks it
    with pytest.raises(ValidationError, match="not in this group"):
        bare.entries().idx(P("(1,2)"))


def test_membership_rejects_twisted_elements():
    """Membership reads rows only, so a twisted element must be turned away
    by its top before its row is read (`CosetGraph._split` and `vertex_map`
    do): at y = (1,5,3) the base row of g = (f, (1,2)) itself lies in M."""
    data, s = kernel_structure(Y2)
    for gen in s.generators:
        assert s.contains(gen)
    assert s.contains(data.g.f)
    with pytest.raises(TypeError):
        s.contains(data.g)


# ---------------------------------------------------------------------------
# the batched scan against the column-by-column oracle
# ---------------------------------------------------------------------------


def oracle_blocks(base_of):
    return tuple(
        tuple(j for j, b in enumerate(base_of) if b == base) for base in sorted(set(base_of))
    )


def assert_matches_scan(matrix, group):
    s = subdirect_decompose(matrix, group)
    base_of, lookups = oracle.decompose(matrix, group.table())
    assert s.base_of.tolist() == base_of
    assert s.blocks == oracle_blocks(base_of)
    assert [None if phi is None else tuple(phi.lookup.tolist()) for phi in s.links] == lookups
    return s


@pytest.mark.parametrize("name, n, x, y", [
    ("A5", 5, "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("A5", 6, "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("A5", 7, "(1,2)(3,4)", "(1,2,3,4,5)"),
    ("PSL27", 5, "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)"),
], ids=["A5-n5", "A5-n6", "A5-n7", "PSL27-n5"])
def test_kernel_decomposition_matches_the_column_scan(name, n, x, y):
    """Fingerprint buckets, batched prefixes and batched propagation give the
    blocks, bases and link lookups of the one-column-at-a-time scan."""
    group = resolve_group(name)
    data = build_cover_group(CoverJob(n=n, group=group, x=P(x, group.degree), y=P(y, group.degree)))
    assert_matches_scan(all_rows(data)[0], group)


def twin_columns():
    """Columns c, c', phi(c), phi(c') of one fingerprint: c' is c with its
    last entry replaced by another of the same order whose product with the
    entry in row 0 has the same order, so both have one sequence of order
    pairs, but c' is no image of c, as the entries they share generate A5;
    phi is conjugation by (1,2), an outer automorphism of A5."""
    table = A5.table()
    rng = random.Random(7)
    c = [rng.randrange(60) for _ in range(8)]
    assert table.generates(c[:7])

    def orders(e):
        return table.order_of[e], table.order_of[table.multiply(e, c[0])]

    twin = c[:7] + [next(e for e in range(60) if e != c[7] and orders(e) == orders(c[7]))]
    b = P("(1,2)")
    phi = [table.idx(table.elem(i).conjugate(b)) for i in range(table.size)]
    return np.array([c, twin, [phi[e] for e in c], [phi[e] for e in twin]], dtype=np.uint8).T


def test_a_bucket_takes_a_second_round():
    """Column 1 fails the first base of its bucket and becomes the next one;
    columns 2 and 3 link to 0 and 1, as the scan links them."""
    s = assert_matches_scan(twin_columns(), A5)
    assert s.base_of.tolist() == [0, 1, 0, 1]


def test_budget_is_checked_before_each_round():
    """A budget that runs out before the second round stops the scan with
    the columns decided so far: base 0 and its link 2."""
    checks = []

    def out_of_budget():
        checks.append(1)
        return len(checks) == 2

    with pytest.raises(BudgetExhausted, match="time budget exhausted") as info:
        subdirect_decompose(twin_columns(), A5, out_of_budget)
    assert info.value.details == {"columns_scanned": 2}


def test_kernel_generators_stage_passes_the_job_budget(monkeypatch):
    """kernel-generators hands the run's budget to the scans of the rows it
    sifts, and a budget stop there is a budget skip that says how far the
    scan and the sifting got."""
    real = subdirect._decompose
    passed = []

    def spent(matrix, group, out_of_budget, *args):
        passed.append(out_of_budget)
        return real(matrix, group, lambda: True, *args)

    monkeypatch.setattr(subdirect, "_decompose", spent)
    cert = run_job(JobSpec(n=5, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)"), "decompose")
    assert passed[0].__func__ is report._Run.out_of_budget
    assert cert.skipped("kernel-generators") == {
        "stage": "kernel-generators",
        "kind": "budget",
        "reason": "time budget exhausted",
        "details": {"columns_scanned": 0, "conjugations": 3, "rows_kept": 3, "decompositions": 0},
    }


# ---------------------------------------------------------------------------
# kernel structures for the three standing configurations
# ---------------------------------------------------------------------------


def test_kernel_full_diagonal_for_five_cycle():
    data, s = kernel_structure(Y1)
    assert s.k == 6
    assert s.block_count == 1
    assert s.order() == 60
    assert sorted(c for blk in s.blocks for c in blk) == list(range(6))


def test_kernel_three_blocks_for_three_cycle():
    data, s = kernel_structure(Y2)
    assert s.block_count == 3
    assert all(len(blk) == 2 for blk in s.blocks)
    assert positional_blocks(data, s) == {
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5, 6}),
    }
    assert s.order() == 60**3


def test_kernel_six_blocks_for_eleven_cycle_object_mode():
    a11 = resolve_group("A11")
    data, s = kernel_structure(
        P("(1,2,3,4,5,6,7,8,9,10,11)", 11), group=a11, x=P("(1,2)(3,6)", 11)
    )
    assert isinstance(data.ctx.entries, EntryPool)
    assert s.blocks == ((0,), (1,), (2,), (3,), (4,), (5,))
    assert s.order() == a11.order() ** 6
    assert (
        str(s.order() * math.factorial(4))
        == "1516930124240321338403568205430784000000000000"
    )


def test_pool_route_checks_no_membership_after_the_construction(monkeypatch):
    """Every entry reaches the pool once, through `idx` at the construction:
    the kernel rows and their decomposition (24 columns, 35 rows at n = 5)
    check no membership."""
    a11 = resolve_group("A11")
    job = CoverJob(n=5, group=a11, x=P("(1,2)(3,6)", 11), y=P("(1,2,3,4,5,6,7,8,9,10,11)", 11))
    data = build_cover_group(job)
    calls = []
    contains = PermGroup.contains
    monkeypatch.setattr(PermGroup, "contains", lambda self, g: calls.append(g) or contains(self, g))
    rows = all_rows(data)[0]
    s = subdirect_decompose(rows, a11)
    assert rows.shape == (35, 24) and s.block_count == 24
    assert calls == []


def count_chains(monkeypatch):
    """A list that gains an entry for every StabilizerChain built from now on."""
    from arccover import groups

    built = []
    init = groups.StabilizerChain.__init__
    monkeypatch.setattr(
        groups.StabilizerChain, "__init__",
        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs),
    )
    return built


def test_object_mode_builds_one_chain_per_column(monkeypatch):
    """Each block base's generating prefix is found once: the six A11 columns
    are six bases whose first two rows already generate, so six chains."""
    a11 = resolve_group("A11")
    job = CoverJob(
        n=4, group=a11, x=P("(1,2)(3,6)", 11), y=P("(1,2,3,4,5,6,7,8,9,10,11)", 11)
    )
    data = build_cover_group(job)
    kgens = all_rows(data)[0]
    a11.order()  # the group's own chain is not part of the count
    built = count_chains(monkeypatch)
    s = subdirect_decompose(kgens, a11)
    assert s.blocks == ((0,), (1,), (2,), (3,), (4,), (5,))
    assert len(built) == 6


def test_pool_tests_each_prefix_set_once(monkeypatch):
    """A generation test on the pool is one subgroup order per distinct set
    of prefix entries in a decomposition: A7's n = 5 kernel meets no set
    twice and builds at most one StabilizerChain for each."""
    a7 = resolve_group("A7")
    job = CoverJob(n=5, group=a7, x=P("(1,2)(3,4)", 7), y=P("(1,2,3,4,5,6,7)", 7))
    kgens = all_rows(build_cover_group(job))[0]
    a7.order()  # the group's own chain is not part of the count
    tested = []
    subgroup_order = PermGroup.subgroup_order
    monkeypatch.setattr(PermGroup, "subgroup_order",
                        lambda self, elements: tested.append(frozenset(elements))
                        or subgroup_order(self, elements))
    built = count_chains(monkeypatch)
    assert subdirect_decompose(kgens, a7).block_count == 12
    assert len(set(tested)) == len(tested) > 0
    assert len(built) <= len(tested)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a7_pool_certifies_what_its_table_does(monkeypatch, table_route, n):
    """A7's `decompose` certificate on its entry pool is the one its
    multiplication table gives, byte for byte, but for `entry_mode`."""
    spec = JobSpec(n=n, group="A7", x="(1,2)(3,4)", y="(1,2,3,4,5,6,7)")
    by_pool = run_job(spec, "decompose")
    monkeypatch.setattr(report, "resolve_group",
                        lambda name, catalog=None: table_route(resolve_group(name, catalog)))
    by_table = run_job(spec, "decompose")
    modes = [cert.check("job-valid")["computed"]["entry_mode"] for cert in (by_pool, by_table)]
    assert modes == ["pool", "table"]
    assert by_pool.ok and by_table.ok
    assert by_pool.core_bytes().replace(b'"entry_mode": "pool"', b'"entry_mode": "table"') == (
        by_table.core_bytes()
    )


@pytest.mark.parametrize("y, d", [(Y1, 1), (Y2, 3)])
def test_conjugator_route_builds_one_chain_per_block_base(monkeypatch, conjugator_route, y, d):
    """Only block bases need a generation check: d stabilizer chains, where
    checking every column built one per column (6)."""
    group = conjugator_route(A5)
    data = build_cover_group(CoverJob(n=4, group=group, x=X, y=y))
    assert isinstance(data.ctx.entries, EntryPool)
    kgens = all_rows(data)[0]
    group.order()  # the group's own chain is not part of the count
    built = count_chains(monkeypatch)
    s = subdirect_decompose(kgens, group)
    assert s.block_count == d
    assert len(built) == d


@pytest.mark.parametrize(
    "name, x, y",
    [("A5", "(1,2)(3,4)", "(1,5,3)"), ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")],
)
def test_routes_agree_on_n4_kernels(table_route, conjugator_route, name, x, y):
    """Table propagation and the conjugator search find the same blocks, and
    their links agree on every generator row."""
    structures = []
    for group in (table_route(resolve_group(name)), conjugator_route(resolve_group(name))):
        job = CoverJob(n=4, group=group, x=P(x, group.degree), y=P(y, group.degree))
        data = build_cover_group(job)
        kgens = all_rows(data)[0]
        structures.append((data.ctx, subdirect_decompose(kgens, group)))
    (ctx_t, by_table), (ctx_c, by_conjugator) = structures
    assert by_table.blocks == by_conjugator.blocks
    assert np.array_equal(by_table.base_of, by_conjugator.base_of)
    rows = [tuple(map(ctx_t.entries.elem, row)) for row in by_table.generators.tolist()]
    assert rows == [tuple(map(ctx_c.entries.elem, row)) for row in by_conjugator.generators.tolist()]
    for j, (phi, psi) in enumerate(zip(by_table.links, by_conjugator.links)):
        assert (phi is None) == (psi is None)
        if phi is None:
            continue
        assert psi.conjugator is not None and phi.lookup is not None
        for row in rows:
            base = row[by_table.base_of[j]]
            assert image(phi, base, by_table.group) == image(psi, base, by_conjugator.group) == row[j]


def test_links_are_read_only_lookups_or_conjugations(conjugator_route):
    """A table link, from `subdirect_decompose` or `extend_to_automorphism`,
    is one read-only lookup array over the entry ids, in the table's dtype,
    and `image` reads it; the distinct links of one decomposition round
    share a copy of their distinct rows, and nothing more (at n = 5 the 12
    links are one map, φ, and one row of 60 entries is held). A pool
    link's `image` is the conjugation of each element."""
    _, s = kernel_structure(Y1, n=5)
    table = A5.table()
    links = [phi for phi in s.links if phi is not None]
    assert len(links) == s.k - s.block_count == 12
    rounds = {id(phi.lookup.base): phi.lookup.base for phi in s.maps[1:]}
    assert sum(map(len, rounds.values())) == len(s.maps) - 1 == 1
    gens = list(table.gen_indices)
    links += [inverting_automorphism(A5, X, Y1), extend_to_automorphism(table, gens, gens)]
    ids = np.arange(table.size)
    mult = int32_table(A5)[0]
    for phi in links:
        lookup = phi.lookup
        assert isinstance(lookup, np.ndarray) and lookup.shape == (60,) and lookup.dtype == table.dtype
        assert not lookup.flags.writeable
        assert np.array_equal(phi.image(ids, table), lookup)
        assert np.array_equal(phi.image(ids.reshape(6, 10), table), lookup.reshape(6, 10))
        assert np.array_equal(phi.image(mult, table), mult[lookup[:, None], lookup])
    group = conjugator_route(A5)
    _, bare = kernel_structure(Y1, n=5, group=group)
    pool = group.entries()
    assert sum(phi is not None for phi in bare.links) == 12
    for phi in filter(None, bare.links):
        assert phi.lookup is None
        ids = np.arange(pool.size)
        images = phi.image(ids, pool)
        assert [pool.elem(i) for i in images] == [pool.elem(i).conjugate(phi.conjugator) for i in ids]


def test_blocks_invariant_under_conjugation():
    data, s = kernel_structure(Y2)
    blocks = {frozenset(blk) for blk in s.blocks}
    for w in data.y_gens:
        amap = data.ctx.comp_map(w.sigma)
        assert {frozenset(amap[c] for c in blk) for blk in blocks} == blocks
        w_inv = w.inverse()
        for m in s.generators:
            conj = w_inv * data.ctx.from_assignment(m.tolist()) * w
            assert conj.sigma.is_identity()
            assert s.contains(conj.f)


def test_linking_relation_consistency_sampled():
    data, s = kernel_structure(Y2)
    rng = random.Random(2024)
    gens = [data.ctx.from_assignment(m) for m in s.generators.tolist()]
    for _ in range(100):
        z = data.ctx.identity_element()
        for _ in range(rng.randrange(1, 8)):
            z = z * rng.choice(gens)
        assert z.sigma.is_identity() and s.contains(z.f)
        entries = [data.ctx.entries.elem(e) for e in z.f]
        for j in range(s.k):
            base = s.base_of[j]
            link = s.links[j]
            expect = entries[base] if link is None else image(link, entries[base], A5)
            assert entries[j] == expect


def test_structures_equal_and_tuple_route():
    data, s = kernel_structure(Y1)
    tuples = k4_tuple_data(data)
    alt = subdirect_decompose([t.f.tolist() for t in (tuples.t1, tuples.t2, tuples.t3)], A5)
    assert structures_equal(alt, s)
    assert structures_equal(s, s)
    _, s3 = kernel_structure(Y2)
    assert not structures_equal(s, s3)


def test_inverting_automorphism_witnesses():
    found = conjugating_permutations([X, Y1], [X, Y1.inverse()], 5)
    assert [c.cycle_string() for c in found] == ["(1,4)(2,3)"]
    found2 = conjugating_permutations([X, Y2], [X, Y2.inverse()], 5)
    assert [c.cycle_string() for c in found2] == ["(1,3)(2,4)"]
    phi = inverting_automorphism(A5, X, Y1)
    assert image(phi, X, A5) == X and image(phi, Y1, A5) == Y1.inverse()


def test_cross_automorphism_witness_and_absence():
    yi = Y1.inverse()
    sources = [Y1 * X * Y1, Y1 * Y1 * X, X * Y1 * Y1]
    targets = [Y1 * Y1 * X, Y1 * X * Y1, yi * yi * X]
    found = conjugating_permutations(sources, targets, 5)
    assert [c.cycle_string() for c in found] == ["(1,4)(3,5)"]
    phi = cross_automorphism(A5, X, Y1)
    b = P("(1,4)(3,5)")
    for t in (X, Y1):
        assert image(phi, t, A5) == t.conjugate(b)
    assert cross_automorphism(A5, X, Y2) is None


def test_predicted_block_counts():
    """The criteria behind the n = 4 prediction: both automorphisms exist for
    d = 1, the crossing one fails for d = 3, the inverting one for d = 6."""
    assert inverting_automorphism(A5, X, Y1) is not None
    assert cross_automorphism(A5, X, Y1) is not None
    assert inverting_automorphism(A5, X, Y2) is not None
    assert cross_automorphism(A5, X, Y2) is None
    a11 = resolve_group("A11")
    assert (
        inverting_automorphism(a11, P("(1,2)(3,6)", 11), P("(1,2,3,4,5,6,7,8,9,10,11)", 11))
        is None
    )


def test_predictions_match_computed_block_counts():
    """The block-count-prediction stage predicts the d of the decomposition."""
    for y, want in ((Y1, 1), (Y2, 3)):
        spec = JobSpec(n=4, group="A5", x=X.cycle_string(), y=y.cycle_string())
        rec = run_job(spec, "decompose").check("block-count-prediction")
        assert rec["passed"]
        assert rec["computed"]["predicted_d"] == kernel_structure(y)[1].block_count == want


# ---------------------------------------------------------------------------
# block report arithmetic
# ---------------------------------------------------------------------------


def test_block_report_small_n_has_no_bound():
    r = BlockReport.build(4, 3)
    assert r.component_count == 6
    assert r.divides is True
    assert r.lower_bound is None and r.bound_ok is None


def test_block_report_n7():
    r = BlockReport.build(7, 360)
    assert r.component_count == 720
    assert r.divides is True
    assert r.lower_bound == 18
    assert r.bound_ok is True
    assert BlockReport.build(7, 7).divides is False
    assert BlockReport.build(7, 10).bound_ok is False
