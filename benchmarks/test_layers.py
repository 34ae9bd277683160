"""Layer microbenchmarks, run with pytest-benchmark outside the test suite.

    python -m pytest benchmarks --benchmark-only

Each benchmark times one layer on its own: a `Permutation` product at
degree 11, the BFS closure of A7 (2520 elements), the order of the subgroup
of A11 generated by example-3's pair (a stabilizer chain stopped at |A11|),
the table build of an enumerable T, its elements' BFS over image rows
included (A7 and PSL(2,13), generated as in
perfbench/jobs.py, and PSL(2,19), 3420 elements on the projective line,
near `TABLE_CAP`), a wreath product at n = 7 with
table entries, one gather through the flat table over its k = 720 cycle
positions (`TableGroup.product`), the cover group's set-up at n = 7 and 8 (`build_cover_group`, A5: the full-cycle
domain built afresh, g's base by class and H's generators), the test
K = H ∩ H^g = L on L's generators at n = 8 (`twist_tops`, A5), the
kernel M of the top projection as the normal closure of the kernel witness, its rows sifted
into the block structure (`normal_closure` and `RowSifter`: A5 at n = 7
and 8 with its table, A7 at n = 6 and the n = 4 A11 kernel of example-3 on
their entry pools), the subdirect decomposition of every Schreier row of
the kernel (the test oracle's BFS over all n! tops: 1714 uint8 rows at
n = 7 for A5), all given to a `RowSifter` in one batch, by each linking
route (table propagation on the A5 kernel; the conjugator search on the
A11 kernel), the n = 6 A11 kernel's normal
closure over a fresh entry pool (its rows sifted as they are formed:
k = 120, d = 120), the decomposition of the n = 6 A7 kernel (k = 120, d = 60) on A7's entry pool and through a `TableGroup`
built for it, and, on the 240-vertex cover of K4 of
example-1 (n = 4, A5, (1,2)(3,4), (1,2,3,4,5)), the same cover with A5
without its table (T on its entry pool) and the 4368-vertex PSL(2,13)
cover of perfbench's cover-k4, the derived-graph build, the quotient by
the kernel M on vertex arrays and both text exports (`export_chunks`);
the build and the quotient together, in one round, on the 864,000-vertex
cover of the extended-build job (A5, y = (1,5,3), d = 3). Two layers are example-1's
alone: the closure of Y = <H, g> (1440 elements, one wreath product and
key per element and generator) and the elements of Y that centralize M
(`centralizer_elements`, one stacked test per generator of M), which
together make its centralizer stage.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from schreier_oracle import schreier_rows  # noqa: E402
from subdirect_oracle import decompose_rows  # noqa: E402
from arccover.catalog import resolve_group
from arccover.cosetgraph import (
    build_coset_graph,
    centralizer_elements,
    export_chunks,
    quotient_graph,
)
from arccover.groups import PermGroup, TableGroup, closure
from arccover.perm import Permutation, parse_cycles
from arccover.subdirect import RowSifter
from arccover.wreath import (
    CoverJob,
    WreathContext,
    _cycle_domain,
    build_cover_group,
    normal_closure,
    twist_tops,
)

GROUPS = {
    "A7": (7, ["(1,2,3)", "(1,2,3,4,5,6,7)"]),
    "PSL2_13": (14, ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"]),
    "PSL2_19": (20, ["(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19)",
                     "(1,20)(2,19)(3,10)(4,7)(5,15)(6,16)(8,9)(11,18)(12,13)(14,17)"]),
}


A11_PAIR = ("(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")


def test_permutation_product_degree_11(benchmark):
    a, b = (parse_cycles(t, 11) for t in A11_PAIR)
    w = benchmark(a.__mul__, b)
    assert w.apply(1) == b.apply(a.apply(1))


def test_closure_a7(benchmark):
    degree, gens = GROUPS["A7"]
    perms = [parse_cycles(t, degree) for t in gens]
    elements = benchmark(closure, perms, Permutation.identity(degree))
    assert len(elements) == 2520


def test_subgroup_order_a11_pair(benchmark):
    a11 = resolve_group("A11")
    a11.order()  # the group's own chain, which bounds the subgroup, is built once
    pair = [parse_cycles(t, 11) for t in A11_PAIR]
    assert benchmark(a11.subgroup_order, pair) == 19958400


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_build(benchmark, name):
    degree, gens = GROUPS[name]
    group = PermGroup.from_cycle_strings(gens, degree)
    # build the chain whose base the table reads, so that only the table
    # build (its rows' BFS included) is timed
    group.chain()
    table = benchmark(TableGroup, group)
    assert table.size == group.order()


def test_wreath_product_index_mode_n7(benchmark):
    a5 = PermGroup.from_cycle_strings(["(1,2)(3,4)", "(1,2,3,4,5)"], 5)
    table = a5.table()
    ctx = WreathContext(7, a5)
    entries = [i % table.size for i in range(ctx.k)]
    u = ctx.from_assignment(entries, parse_cycles("(1,2,3,4,5,6,7)", 7))
    v = ctx.from_assignment(entries[::-1], parse_cycles("(1,2)", 7))
    u * v  # fill the comp-map cache, as the pipeline's repeated products do
    w = benchmark(u.__mul__, v)
    assert w.sigma == u.sigma * v.sigma
    assert w.f[0] == table.multiply(u.f[0], v.f[ctx.comp_map(u.sigma)[0]])


def cover_data(n, group, x, y):
    job = CoverJob(n=n, group=group, x=parse_cycles(x, group.degree),
                   y=parse_cycles(y, group.degree))
    return build_cover_group(job)


@pytest.mark.parametrize("n", [7, 8])
def test_build_cover_group(benchmark, n):
    """The set-up of one job, with the full-cycle domain's per-process
    cache emptied before every round and T's table already built."""
    group = resolve_group("A5")
    group.table()
    job = CoverJob(n=n, group=group, x=parse_cycles("(1,2)(3,4)", 5),
                   y=parse_cycles("(1,2,3,4,5)", 5))
    data = benchmark.pedantic(build_cover_group, args=(job,),
                              setup=_cycle_domain.cache_clear, rounds=20)
    assert data.ctx.k == math.factorial(n - 1)


def test_twist_tops_n8(benchmark):
    """K = H ∩ H^g = L = Sym{3..8}, decided by one gather of g's base per
    generator of L, the generators' comp maps cached as in a job."""
    data = cover_data(8, resolve_group("A5"), "(1,2)(3,4)", "(1,2,3,4,5)")
    twist_tops(data)
    assert benchmark(twist_tops, data)


def formed_rows(data):
    """Every row the Schreier route (the test oracle's BFS over all n!
    tops) forms, in order, and the tops it reached."""
    batches = []
    tops = schreier_rows(data, batches.append)
    return np.concatenate(batches), tops


def sifted(data):
    """The kernel's block structure, as the pipeline finds it: the normal
    closure of the kernel witness, its rows sifted as they are formed."""
    sifter = RowSifter(data.job.group, data.ctx.k)
    normal_closure(data, sifter)
    return sifter.structure()


@pytest.mark.parametrize("name, n, x, y, d, rounds", [
    ("A5", 7, "(1,2)(3,4)", "(1,2,3,4,5)", 360, 20),
    ("A5", 8, "(1,2)(3,4)", "(1,2,3,4,5)", 2520, 5),
    ("A7", 6, "(1,2)(3,4)", "(1,2,3,4,5,6,7)", 60, 5),
    ("A11", 4, "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)", 6, 10),
], ids=["A5-n7-table", "A5-n8-table", "A7-n6-pool", "A11-n4-pool"])
def test_normal_closure(benchmark, name, n, x, y, d, rounds):
    """The kernel M as the normal closure of the kernel witness, its rows
    sifted into the block structure (`normal_closure`, `RowSifter`): the
    kernel-generators stage's work. Each round on a fresh group, so that a
    pool's caches start from the construction's entries alone; a table is
    built before timing."""

    def fresh():
        group = resolve_group(name)
        group.table()
        return (cover_data(n, group, x, y),), {}

    structure = benchmark.pedantic(sifted, setup=fresh, rounds=rounds)
    assert structure.block_count == d
    assert (structure.group.table() is None) == (name in ("A7", "A11"))


@pytest.mark.parametrize("name, n, x, y, d", [
    ("A5", 7, "(1,2)(3,4)", "(1,2,3,4,5)", 360),
    ("A11", 4, "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)", 6),
], ids=["A5-n7-table", "A11-n4-conjugator"])
def test_subdirect_decompose(benchmark, name, n, x, y, d):
    """The decomposition of every Schreier row at once: one `RowSifter.add`
    of them all and its `structure()`, as the tuple-generators stage sifts
    its three rows."""
    group = resolve_group(name)
    kgens = formed_rows(cover_data(n, group, x, y))[0]
    structure = benchmark(decompose_rows, kgens, group)
    assert structure.block_count == d
    assert (group.table() is None) == (name == "A11")


def test_a11_n6_rows_and_decomposition(benchmark):
    """The n = 6 A11 kernel as the normal closure of the kernel witness, its
    rows sifted into its block structure as they are formed, each round on
    a fresh group, so that its entry pool starts from the construction's
    entries alone and every product is composed anew."""

    def fresh():
        return (cover_data(6, resolve_group("A11"), *A11_PAIR),), {}

    structure = benchmark.pedantic(sifted, setup=fresh, rounds=5)
    assert structure.k == 120 and structure.block_count == 120


@pytest.mark.parametrize("route", ["pool", "table"])
def test_a7_n6_decomposition(benchmark, route):
    """A7 runs on its entry pool; the table route is what it would cost with
    its 2520 x 2520 table, built before timing. Both routes are set
    explicitly, so that the layer times the same route in any checkout."""
    group = resolve_group("A7")
    table = TableGroup(group) if route == "table" else None
    group.table = lambda: table
    kgens = formed_rows(cover_data(6, group, "(1,2)(3,4)", "(1,2,3,4,5,6,7)"))[0]
    structure = benchmark(decompose_rows, kgens, group)
    assert structure.block_count == 60 and kgens.dtype == group.entries().dtype


def cover(group, x, y):
    """The cover group data, its block structure and the generators of M."""
    job = CoverJob(n=4, group=group, x=parse_cycles(x, group.degree),
                   y=parse_cycles(y, group.degree))
    data = build_cover_group(job)
    structure = sifted(data)
    m_gens = [data.ctx.from_assignment(row) for row in structure.generators]
    return data, structure, m_gens


def without_table(group):
    """A fresh copy of `group` whose `table()` is None: T on its entry pool."""
    bare = PermGroup(group.generators, group.degree)
    bare.table = lambda: None
    return bare


COVERS = {
    "example1": (lambda: resolve_group("A5"), "(1,2)(3,4)", "(1,2,3,4,5)", 240),
    "example1-pool": (lambda: without_table(resolve_group("A5")), "(1,2)(3,4)", "(1,2,3,4,5)", 240),
    "PSL2_13": (lambda: PermGroup.from_cycle_strings(GROUPS["PSL2_13"][1], 14),
                "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)", "(1,4,7,10,13,3,6,9,12,2,5,8,11)", 4368),
}


@pytest.fixture(scope="module", params=sorted(COVERS))
def built(request):
    group, x, y, order = COVERS[request.param]
    data, structure, m_gens = cover(group(), x, y)
    return data, structure, m_gens, order


def test_build_coset_graph(benchmark, built):
    """The derived-graph build: voltages, adjacency columns, and the
    symmetry and connectivity checks."""
    data, structure, _, order = built
    graph = benchmark(build_coset_graph, data, structure)
    assert graph.order == order and graph.components == 1


def test_quotient_by_m(benchmark, built):
    """The vertex maps of M's generators and the array quotient by them."""
    data, structure, m_gens, _ = built
    graph = build_coset_graph(data, structure)
    cert = benchmark(lambda: quotient_graph(graph, m_gens))
    assert cert.quotient_order == 4 and cert.quotient_is_complete


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-text"])
def test_export_chunks(benchmark, built, fmt):
    """The text export of the graph, chunk by chunk, as a job writes it."""
    data, structure, _, order = built
    graph = build_coset_graph(data, structure)
    size = benchmark(lambda: sum(map(len, export_chunks(graph.adjacency, fmt))))
    assert size > order


def test_build_and_quotient_extended_build(benchmark):
    """The graph build and the quotient by M of the extended-build job's
    864,000-vertex cover, in one round: the graph stages at the size whose
    memory they are written for."""
    data, structure, m_gens = cover(resolve_group("A5"), "(1,2)(3,4)", "(1,5,3)")

    def build_and_quotient():
        return quotient_graph(build_coset_graph(data, structure), m_gens)

    cert = benchmark.pedantic(build_and_quotient, rounds=1)
    assert cert.quotient_order == 4 and cert.fibre_size == 60**3 and cert.locally_bijective


@pytest.fixture(scope="module")
def example1():
    """Example-1's cover data and the generators of its M."""
    group, x, y, _ = COVERS["example1"]
    data, _, m_gens = cover(group(), x, y)
    return data, m_gens


def test_closure_of_y_example1(benchmark, example1):
    """Y = <H, g> by BFS over wreath elements, as the centralizer stage
    enumerates it."""
    data, _ = example1
    elements = benchmark(closure, data.y_gens, data.ctx.identity_element())
    assert len(elements) == 1440


def test_centralizer_elements_example1(benchmark, example1):
    """The 24 elements of Y that commute with every generator of M."""
    data, m_gens = example1
    elements = closure(data.y_gens, data.ctx.identity_element())
    assert len(benchmark(centralizer_elements, elements, m_gens)) == 24
