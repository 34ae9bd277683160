"""Schreier generators of the kernel of the top projection: the array rows of
`schreier_oracle.schreier_rows` against the one-element-at-a-time oracle
`schreier_kernel_generators` (the generic routine they replaced), plus the
oracle's own checks; and the memory, cap and budget of the route that the
pipeline takes to the same kernel, its normal closure (`normal_closure`)
with its rows sifted (`RowSifter`)."""

import math
import tracemalloc

import numpy as np
import pytest

import schreier_oracle as oracle
from arccover import groups
from arccover.catalog import resolve_group
from arccover.errors import BudgetExhausted, CapacityExceeded
from arccover.groups import DistinctRows, PermGroup, closure
from arccover.perm import Permutation, parse_cycles
from arccover.subdirect import RowSifter
from arccover.wreath import CoverJob, build_cover_group, normal_closure


def P(text, degree):
    return parse_cycles(text, degree)


def cover(group, n, x, y):
    job = CoverJob(n=n, group=group, x=P(x, group.degree), y=P(y, group.degree))
    return build_cover_group(job)


def oracle_rows(data):
    kgens = oracle.schreier_kernel_generators(
        data.y_gens, lambda w: w.sigma, data.ctx.identity_element()
    )
    assert all(z.sigma.is_identity() for z in kgens)
    return [tuple(z.f.tolist()) for z in kgens]


# ---------------------------------------------------------------------------
# the oracle on a kernel outside the construction
# ---------------------------------------------------------------------------


def test_schreier_kernel_generators_sign_map():
    # kernel of the parity map S4 -> S2 is A4
    gens = [P("(1,2)", 4), P("(1,2,3,4)", 4)]
    swap = P("(1,2)", 2)

    def project(p):
        odd = sum(len(c) - 1 for c in p.cycles()) % 2
        return swap if odd else Permutation.identity(2)

    kgens = oracle.schreier_kernel_generators(gens, project, Permutation.identity(4))
    assert all(project(z).is_identity() for z in kgens)
    assert len(closure(kgens, Permutation.identity(4))) == 12


def test_schreier_kernel_image_cap():
    gens = [P("(1,2)", 5), P("(1,2,3,4,5)", 5)]
    with pytest.raises(CapacityExceeded):
        oracle.schreier_kernel_generators(
            gens, lambda p: p, Permutation.identity(5), image_cap=10
        )


# ---------------------------------------------------------------------------
# array rows against the oracle
# ---------------------------------------------------------------------------

A5 = ("A5", "(1,2)(3,4)", "(1,2,3,4,5)")
# the same pair conjugated by (1,2,3): an automorphism of A5 moves every entry
A5_CONJUGATED = ("A5", "(1,4)(2,3)", "(1,4,5,2,3)")
PSL27 = ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)")
A7 = ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")
A11 = ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")
PSL2_13 = PermGroup.from_cycle_strings(
    ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"], 14
)


@pytest.mark.parametrize("job, n, dtype", [
    (A5, 4, np.uint8),
    (A5, 5, np.uint8),
    (A5, 6, np.uint8),
    (A5, 7, np.uint8),
    (A5_CONJUGATED, 4, np.uint8),
    (A5_CONJUGATED, 5, np.uint8),
    (PSL27, 4, np.uint8),
    (PSL27, 6, np.uint8),
    (A7, 5, np.uint16),
    (A11, 4, np.uint32),
], ids=["A5-n4", "A5-n5", "A5-n6", "A5-n7", "A5-conjugated-n4", "A5-conjugated-n5",
        "PSL27-n4", "PSL27-n6", "A7-n5", "A11-n4-object"])
def test_rows_match_oracle(job, n, dtype):
    """The same rows in the same order, over all n! tops."""
    name, x, y = job
    data = cover(resolve_group(name), n, x, y)
    rows, tops = oracle.all_rows(data)
    assert tops == math.factorial(n)
    assert rows.dtype == dtype and rows.shape[1] == data.ctx.k
    assert list(map(tuple, rows)) == oracle_rows(data)


def test_conjugated_pair_moves_rows_by_the_automorphism():
    """Conjugating x and y by c in T conjugates every kernel row entrywise."""
    group = resolve_group("A5")
    table = group.table()
    rows, _ = oracle.all_rows(cover(group, 5, *A5[1:]))
    moved, _ = oracle.all_rows(cover(group, 5, *A5_CONJUGATED[1:]))
    c = P("(1,2,3)", 5)
    conj = np.array([table.idx(table.elem(i).conjugate(c)) for i in range(table.size)])
    assert np.array_equal(conj[rows], moved)


def test_rows_of_a_table_above_256_elements_match_oracle():
    data = cover(PSL2_13, 4, "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)",
                 "(1,4,7,10,13,3,6,9,12,2,5,8,11)")
    rows, tops = oracle.all_rows(data)
    assert rows.dtype == np.uint16 and tops == 24
    assert list(map(tuple, rows.tolist())) == oracle_rows(data)


def test_object_rows_match_the_table_rows(conjugator_route):
    """A5 without its table gives the table rows as pool rows: the same
    Permutations, row by row."""
    group = resolve_group("A5")
    bare = conjugator_route(group)
    by_table, _ = oracle.all_rows(cover(group, 5, *A5[1:]))
    by_pool, _ = oracle.all_rows(cover(bare, 5, *A5[1:]))
    assert by_pool.dtype == np.uint8  # the pool dtype is the table's, from |T|
    table, elem = group.table(), bare.entries().elem
    assert ([list(map(table.elem, row)) for row in by_table.tolist()]
            == [list(map(elem, row)) for row in by_pool.tolist()])


@pytest.mark.parametrize("job, n", [(A5, 6), (A7, 5), (A11, 4)],
                         ids=["A5-n6", "A7-n5-uint16", "A11-n4-object"])
def test_rows_survive_a_hash_that_always_collides(monkeypatch, job, n):
    """Rows are filed by `row_hash` and told apart by comparison: with every
    row under one hash, the same distinct rows come back in the same order."""
    name, x, y = job
    data = cover(resolve_group(name), n, x, y)
    rows, tops = oracle.all_rows(data)
    monkeypatch.setattr(groups, "row_hash", lambda row: 0)
    collided, collided_tops = oracle.all_rows(data)
    assert collided.dtype == rows.dtype and collided_tops == tops
    assert collided.tolist() == rows.tolist()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_distinct_rows_number_rows_in_order_of_first_addition(dtype):
    """Past several in-place growths, every row keeps its number and its
    entries, whichever dtype holds them."""
    rng = np.random.default_rng(0)
    values = rng.integers(0, 5, size=(300, 3))
    store = DistinctRows(3, dtype)
    numbers = [store.add(np.array(row, dtype=dtype)) for row in values]
    firsts = list(dict.fromkeys(map(tuple, values.tolist())))
    assert numbers == [firsts.index(row) for row in map(tuple, values.tolist())]
    assert store.take(np.array([2, 0])).tolist() == [list(firsts[2]), list(firsts[0])]
    rows = store.take(np.arange(store.count))
    assert rows.dtype == dtype and rows.flags.writeable and rows.flags.owndata
    assert list(map(tuple, rows.tolist())) == firsts


# ---------------------------------------------------------------------------
# the normal closure's memory, cap and budget
# ---------------------------------------------------------------------------


def test_image_cap_stops_before_storing_past_it():
    """The cap bounds the conjugations formed: the closure stops before the
    pass that would pass it, and says how far it got."""
    data = cover(resolve_group("A5"), 7, *A5[1:])
    sifter = RowSifter(data.job.group, data.ctx.k)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded) as info:
            normal_closure(data, sifter, conjugation_cap=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "normal closure exceeded cap 10 conjugations"
    assert info.value.kind == "capacity"
    # two passes formed 3 + 6 conjugates; the third would form 9 more
    assert info.value.details == {"conjugations": 9, "rows_kept": 6, "decompositions": 0}
    assert sifter.rows_formed == 10
    assert peak < 1_000_000


def test_sift_at_n7_peaks_below_one_and_a_quarter_megabytes():
    """The normal closure at n = 7 with its rows sifted keeps no row beyond
    S (20 rows of 720 entries)."""
    data = cover(resolve_group("A5"), 7, *A5[1:])
    tracemalloc.start()
    try:
        sifter = RowSifter(data.job.group, data.ctx.k)
        conjugations = normal_closure(data, sifter)
        structure = sifter.structure()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conjugations == 60 and structure.block_count == 360
    assert (sifter.rows_formed, sifter.rows_kept, sifter.decompositions) == (61, 20, 1)
    assert structure.generators.shape == (20, 720)
    assert peak < 1_250_000


def test_budget_is_checked_between_frontiers():
    """The budget stops the closure after a whole pass that added rows to S
    and says how far it got: more conjugations and more rows kept at each
    later pass."""
    data = cover(resolve_group("A5"), 7, *A5[1:])
    full = RowSifter(data.job.group, data.ctx.k)
    calls = []
    total = normal_closure(data, full, out_of_budget=lambda: calls.append(1) and False)
    assert len(calls) == 4  # the fifth pass adds no row, so no check follows it
    progress = []
    for stop_at in range(1, len(calls) + 1):
        calls = []

        def out_of_budget():
            calls.append(1)
            return len(calls) == stop_at

        sifter = RowSifter(data.job.group, data.ctx.k)
        with pytest.raises(BudgetExhausted) as info:
            normal_closure(data, sifter, out_of_budget=out_of_budget)
        assert str(info.value) == "time budget exhausted"
        assert info.value.kind == "budget"
        details = info.value.details
        assert list(details) == ["conjugations", "rows_kept", "decompositions"]
        assert details["rows_kept"] == sifter.rows_kept
        progress.append((details["conjugations"], details["rows_kept"]))
    formed, kept = zip(*progress)
    assert list(formed) == sorted(set(formed)) and formed[-1] < total
    assert list(kept) == sorted(set(kept)) and kept[-1] == full.rows_kept
