"""Layer microbenchmarks, run with pytest-benchmark outside the test suite.

    python -m pytest benchmarks --benchmark-only

Each benchmark times one layer on its own: the multiplication-table build of
an enumerable T (A7 and PSL(2,13), generated as in perfbench/jobs.py) and an
index-mode wreath product at n = 7, which reads the table through
`TableGroup.mult_flat` once per cycle position (k = 360).
"""

import pytest

from arccover.groups import PermGroup, TableGroup
from arccover.perm import parse_cycles
from arccover.wreath import WreathContext

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
    table = TableGroup(a5)
    ctx = WreathContext(7, a5, table)
    entries = [i % table.size for i in range(ctx.k)]
    u = ctx.from_assignment(entries, parse_cycles("(1,2,3,4,5,6,7)", 7))
    v = ctx.from_assignment(entries[::-1], parse_cycles("(1,2)", 7))
    u * v  # fill the comp-map cache, as the pipeline's repeated products do
    w = benchmark(u.__mul__, v)
    assert w.sigma == u.sigma * v.sigma
    assert w.f[0] == table.multiply(u.f[0], v.f[ctx.comp_map(u.sigma)[0]])
