"""Layer microbenchmarks, run with pytest-benchmark outside the test suite.

    python -m pytest benchmarks --benchmark-only

Each benchmark times one layer on its own: the multiplication-table build of
an enumerable T (A7 and PSL(2,13), generated as in perfbench/jobs.py), an
index-mode wreath product at n = 7, which reads the table through
`TableGroup.mult_flat` once per cycle position (k = 360), the Schreier rows
of the kernel of the top projection (the n = 7 A5 kernel, 1004 uint8 rows
over k = 720 from 5040 tops; the n = 4 A11 kernel of example-3 in object
mode), the subdirect decomposition of those rows by each linking route
(table propagation on the A5 kernel; the conjugator search on the A11
kernel), and, on the 240-vertex cover of K4 of
example-1 (n = 4, A5, (1,2)(3,4), (1,2,3,4,5)) and the 4368-vertex
PSL(2,13) cover of perfbench's cover-k4, the derived-graph build and the
quotient by the kernel M on vertex arrays.
"""

import math

import pytest

from arccover.catalog import resolve_group
from arccover.cosetgraph import build_coset_graph, quotient_graph
from arccover.groups import PermGroup, TableGroup
from arccover.perm import Permutation, parse_cycles
from arccover.subdirect import subdirect_decompose
from arccover.wreath import (
    CoverJob,
    WreathContext,
    WreathElement,
    build_cover_group,
    schreier_rows,
)

GROUPS = {
    "A7": (7, ["(1,2,3)", "(1,2,3,4,5,6,7)"]),
    "PSL2_13": (14, ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"]),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_table_build(benchmark, name):
    degree, gens = GROUPS[name]
    group = PermGroup.from_cycle_strings(gens, degree)
    group.elements()  # enumerate once, so only the table build is timed
    table = benchmark(TableGroup, group)
    assert table.size == len(group.elements())


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


@pytest.mark.parametrize("name, n, x, y, count", [
    ("A5", 7, "(1,2)(3,4)", "(1,2,3,4,5)", 1004),
    ("A11", 4, "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)", 7),
], ids=["A5-n7-table", "A11-n4-object"])
def test_schreier_rows(benchmark, name, n, x, y, count):
    """The Schreier rows of the kernel of the top projection, over all n! tops."""
    group = resolve_group(name)
    data = cover_data(n, group, x, y)
    rows, tops = benchmark(schreier_rows, data)
    assert len(rows) == count and tops == math.factorial(n)
    assert (rows.dtype == object) == (name == "A11")


@pytest.mark.parametrize("name, n, x, y, d", [
    ("A5", 7, "(1,2)(3,4)", "(1,2,3,4,5)", 360),
    ("A11", 4, "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)", 6),
], ids=["A5-n7-table", "A11-n4-conjugator"])
def test_subdirect_decompose(benchmark, name, n, x, y, d):
    group = resolve_group(name)
    kgens = schreier_rows(cover_data(n, group, x, y))[0]
    structure = benchmark(subdirect_decompose, kgens, group)
    assert structure.block_count == d
    assert (group.table() is None) == (name == "A11")


def cover(group, x, y):
    """The cover group data, its block structure and the generators of M."""
    job = CoverJob(n=4, group=group, x=parse_cycles(x, group.degree),
                   y=parse_cycles(y, group.degree))
    data = build_cover_group(job)
    kgens = schreier_rows(data)[0]
    structure = subdirect_decompose(kgens, group)
    ident = Permutation.identity(4)
    m_gens = [WreathElement(data.ctx, tuple(row), ident) for row in structure.generators]
    return data, structure, m_gens


COVERS = {
    "example1": (lambda: resolve_group("A5"), "(1,2)(3,4)", "(1,2,3,4,5)", 240),
    "PSL2_13": (lambda: PermGroup.from_cycle_strings(GROUPS["PSL2_13"][1], 14),
                "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)", "(1,4,7,10,13,3,6,9,12,2,5,8,11)", 4368),
}


@pytest.fixture(scope="module", params=sorted(COVERS))
def built(request):
    group, x, y, order = COVERS[request.param]
    data, structure, m_gens = cover(group(), x, y)
    return data, structure, m_gens, order


def test_build_coset_graph(benchmark, built):
    """The derived-graph build: voltages, canonical keys and adjacency."""
    data, structure, _, order = built
    data.h_elements()  # H is enumerated once per job in the pipeline
    graph = benchmark(build_coset_graph, data, structure)
    assert graph.order == order and graph.components == 1


def test_quotient_by_m(benchmark, built):
    """The vertex maps of M's generators and the array quotient by them."""
    data, structure, m_gens, _ = built
    graph = build_coset_graph(data, structure)
    cert = benchmark(lambda: quotient_graph(graph, m_gens))
    assert cert.quotient_order == 4 and cert.quotient_is_complete
