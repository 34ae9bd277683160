"""Coset graph construction, verification, quotients, and exports.

The derived-graph build and the array quotient are checked against the BFS
and orbit-quotient oracles of `coset_oracle` (the generic constructions they
replaced) on example-1, the PSL(2,13) cover of K4, a conjugated pair and the
route without a table; the oracles themselves are checked on small
permutation groups.
"""

import dataclasses
import random
import tracemalloc
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

import coset_oracle as oracle
from schreier_oracle import all_rows
from table_oracle import int32_table
from arccover import cosetgraph
from arccover.catalog import resolve_group
from arccover.cosetgraph import (
    _Fibre,
    _check_symmetric,
    build_coset_graph,
    EXPORT_CHUNK_INTS,
    centralizer_elements,
    export_chunks,
    graph_girth,
    quotient_graph,
    two_arc_transitive,
)
from arccover.errors import CapacityExceeded, InternalCheckError, ValidationError
from arccover.groups import EntryPool, PermGroup, closure
from arccover.perm import Permutation, parse_cycles
from arccover.report import JobSpec, run_job
from arccover.subdirect import RowSifter, subdirect_decompose
from arccover.wreath import (
    CoverJob,
    WreathElement,
    build_cover_group,
    normal_closure,
)


def P(text, degree):
    return parse_cycles(text, degree)


def nx_graph(adjacency):
    """The networkx graph of adjacency rows (networkx is a test-only oracle)."""
    nx = pytest.importorskip("networkx")
    return nx.from_dict_of_lists({v: list(map(int, nbrs)) for v, nbrs in enumerate(adjacency)})


def is_petersen(adjacency):
    nx = pytest.importorskip("networkx")
    return nx.is_isomorphic(nx_graph(adjacency), nx.petersen_graph())


def assert_networkx_agrees(graph):
    """Connectivity and girth of a derived graph agree with networkx:
    `components` and the single-root `graph_girth` that graph-build records."""
    nx = pytest.importorskip("networkx")
    g = nx_graph(graph.adjacency)
    assert g.number_of_nodes() == graph.order
    assert nx.number_connected_components(g) == graph.components == 1
    assert nx.girth(g) == graph_girth(graph.adjacency, roots=(0,))


def sym_fixing_last(n):
    """All permutations of degree n fixing the point n."""
    if n == 4:
        gens = [P("(1,2,3)", 4), P("(1,2)", 4)]
    else:
        gens = [P("(1,2,3)", 5), P("(1,2)", 5), P("(4,5)", 5)]
    return closure(gens, Permutation.identity(n))


def cover_data(group, x, y):
    """Cover group data of an n = 4 job and the block structure of its kernel."""
    job = CoverJob(n=4, group=group, x=P(x, group.degree), y=P(y, group.degree))
    data = build_cover_group(job)
    kgens = all_rows(data)[0]
    return data, subdirect_decompose(kgens, group)


def example1():
    """The standing n = 4, A5, (1,2)(3,4)/(1,2,3,4,5) job (d = 1)."""
    return cover_data(resolve_group("A5"), "(1,2)(3,4)", "(1,2,3,4,5)")


def cover_graph():
    """Example-1's data, block structure and 240-vertex derived graph."""
    data, structure = example1()
    return data, structure, build_coset_graph(data, structure)


def kernel_gens(data, structure):
    """Generators of the base-only kernel M, as wreath elements."""
    return [data.ctx.from_assignment(row) for row in structure.generators]


# PSL(2,13) on the projective line, with the pair of the 4368-vertex cover
PSL2_13 = (14, ["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)"])
PSL2_13_PAIR = ("(1,14)(2,13)(3,7)(4,5)(8,12)(10,11)", "(1,4,7,10,13,3,6,9,12,2,5,8,11)")


def assert_matches_oracle(data, structure, centralizer=False):
    """Same adjacency, vertex numbering and quotient facts as the BFS oracle."""
    graph = build_coset_graph(data, structure)
    bfs = oracle.build_coset_graph(data.h_elements(), data.g)
    assert graph.adjacency.tolist() == [list(nbrs) for nbrs in bfs.adjacency]
    assert graph.components == 1 and graph.valency == bfs.valency == 3
    for i, c in enumerate(graph.sections):
        for f in range(graph.fibre.points):
            w = c * oracle.fibre_element(graph, f)
            assert bfs.vertex_of(w) == graph.vertex[i, f]
    m_gens = kernel_gens(data, structure)
    groups = [m_gens]
    if centralizer:
        elements = closure(data.y_gens, data.ctx.identity_element())
        groups.append(centralizer_elements(elements, m_gens))
    for gens in groups:
        for z in gens:
            moved = graph.vertex_map(z)
            assert moved.tolist() == [bfs.vertex_of(w * z) for w in bfs.reps]
        assert quotient_graph(graph, gens) == oracle.quotient_graph(bfs, gens)
    return graph


# ---------------------------------------------------------------------------
# the oracles and 2-arc-transitivity on permutation groups
# ---------------------------------------------------------------------------


def test_complete_graph_on_point_stabilizer():
    h = closure([P("(1,2,3)", 4), P("(1,2)", 4)], Permutation.identity(4))
    g = P("(1,4)", 4)
    graph = oracle.build_coset_graph(h, g)
    assert graph.order == 4
    assert graph.valency == 3
    assert graph.adjacency == [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    assert graph.order == 24 // 6
    assert pytest.importorskip("networkx").is_connected(nx_graph(graph.adjacency))
    stats = oracle.two_arc_transitive(h, oracle.conj_intersection(h, g), h)
    assert stats == {"index": 3, "two_transitive": True}


def test_petersen_graph_from_pair_stabilizer():
    gens = [P("(1,2)", 5), P("(1,2,3)", 5), P("(4,5)", 5)]
    h = closure(gens, Permutation.identity(5))
    assert len(h) == 12
    g = P("(1,4)(2,5)", 5)
    graph = oracle.build_coset_graph(h, g)
    assert graph.order == 10
    assert is_petersen(graph.adjacency)
    assert graph.order == 120 // 12
    assert oracle.two_arc_transitive(h, oracle.conj_intersection(h, g), gens)["two_transitive"]


def test_regular_subgroup_action_is_not_two_transitive():
    h = closure([P("(1,2,3,4)", 4)], Permutation.identity(4))
    g = P("(1,2)", 4)
    stats = oracle.two_arc_transitive(h, oracle.conj_intersection(h, g), h)
    assert stats["index"] == 4
    assert stats["two_transitive"] is False
    graph = oracle.build_coset_graph(h, g)
    assert graph.order == 6
    assert graph.valency == 4


def test_rejects_g_inside_h():
    h = sym_fixing_last(4)
    with pytest.raises(ValidationError, match="lies in H"):
        oracle.build_coset_graph(h, P("(1,2,3)", 4))


def test_rejects_g_squared_outside_h():
    h = closure([P("(1,2,3)", 4)], Permutation.identity(4))
    with pytest.raises(ValidationError, match="g\\^2"):
        oracle.build_coset_graph(h, P("(1,2,3,4)", 4))


def canonical_cases():
    """(H, sample of group elements w) for the three kinds of H the oracle
    meets: top-only wreath elements over a table (the 240-vertex cover) and
    over an entry pool (A11, object mode), and plain permutations (the
    Petersen H)."""
    rng = random.Random(17)
    data, _ = example1()
    bfs = oracle.build_coset_graph(data.h_elements(), data.g)
    table_sample = [bfs.reps[rng.randrange(bfs.order)] for _ in range(30)]
    table_sample += [data.g * w for w in table_sample[:10]]

    a11 = CoverJob(
        n=4,
        group=resolve_group("A11"),
        x=P("(1,2)(3,6)", 11),
        y=P("(1,2,3,4,5,6,7,8,9,10,11)", 11),
        group_name="A11",
    )
    obj = build_cover_group(a11)
    assert isinstance(obj.ctx.entries, EntryPool)
    word = obj.ctx.identity_element()
    object_sample = []
    for _ in range(30):
        word = word * rng.choice(obj.y_gens)
        object_sample.append(word)

    petersen_h = closure([P("(1,2)", 5), P("(1,2,3)", 5), P("(4,5)", 5)], Permutation.identity(5))
    s5 = closure([P("(1,2)", 5), P("(1,2,3,4,5)", 5)], Permutation.identity(5))
    return [
        (data.h_elements(), table_sample),
        (obj.h_elements(), object_sample),
        (petersen_h, s5),
    ]


def test_canonical_representative_is_least_key_in_coset():
    for h_elems, sample in canonical_cases():
        canon = oracle._Canonicalizer(h_elems)
        # wreath-valued H here is top-only, so the cached-top path runs
        assert (canon._tops is not None) == isinstance(h_elems[0], WreathElement)
        h_keys = {h.key() for h in h_elems}
        for w in sample:
            r = canon.rep(w)
            assert oracle.canonical_key(r) == min(oracle.canonical_key(h * w) for h in h_elems)
            assert (r * w.inverse()).key() in h_keys


# ---------------------------------------------------------------------------
# the 240-vertex cover of K4
# ---------------------------------------------------------------------------


def test_cover_graph_invariants():
    data, structure, graph = cover_graph()
    assert graph.order == 240
    assert graph.valency == 3
    assert graph.order == 1440 // len(data.h_elements())
    assert graph.fibre.points == structure.order() == 60
    assert graph.adjacency.shape == (240, 3)
    assert graph_girth(graph.adjacency, roots=(0,)) == 9
    assert_networkx_agrees(graph)


def test_single_root_girth_matches_full_scan():
    _, _, graph = cover_graph()
    assert graph_girth(graph.adjacency, roots=(0,)) == 9
    assert graph_girth(graph.adjacency) == 9
    assert graph_girth(graph.adjacency.tolist()) == 9


def test_two_arc_transitivity_of_cover():
    data, _, _ = cover_graph()
    stats = two_arc_transitive(data.h_top_gens, data.l_top_gens, 4)
    assert stats == {"index": 3, "two_transitive": True}
    assert oracle.two_arc_transitive(data.h_tops(), data.k_tops(), data.h_top_gens) == stats


def test_vertex_lookup_constant_on_cosets():
    """H·c_i·m names vertex[i, f] whatever element of the coset is named."""
    data, _, graph = cover_graph()
    bfs = oracle.build_coset_graph(data.h_elements(), data.g)
    rng = random.Random(5)
    h_elems = data.h_elements()
    for _ in range(25):
        i = rng.randrange(4)
        f = rng.randrange(graph.fibre.points)
        w = graph.sections[i] * oracle.fibre_element(graph, f)
        assert bfs.vertex_of(rng.choice(h_elems) * w) == graph.vertex[i, f]
    with pytest.raises(ValidationError):
        bfs.index_of_key(b"\x00nonsense")


def test_vertex_index_is_sorted_and_names_each_representative():
    """Every vertex id is used once, and ids follow the sorted canonical keys."""
    data, _, graph = cover_graph()
    assert sorted(graph.vertex.reshape(-1).tolist()) == list(range(graph.order))
    canon = oracle._Canonicalizer(data.h_elements())
    keys = [None] * graph.order
    for i, c in enumerate(graph.sections):
        for f in range(graph.fibre.points):
            keys[graph.vertex[i, f]] = oracle.canonical_key(canon.rep(c * oracle.fibre_element(graph, f)))
    assert keys == sorted(keys) and len(set(keys)) == graph.order


def test_vertex_cap_interrupts_search():
    data, structure = example1()
    with pytest.raises(
        CapacityExceeded, match=r"^expected 4·60\^1 vertices \(3 digits\) exceeds the cap 50$"
    ):
        build_coset_graph(data, structure, vertex_cap=50)


def test_digit_count_is_exact_next_to_powers_of_ten():
    """The capacity skip's digit count, checked against Decimal up to the
    35,849 digits of A5's n·|T|^d at n = 9."""
    near = [10**e + step for e in (1, 2, 17, 300, 4300) for step in (-1, 0, 1)]
    for value in (1, 9, 240, *near, 8 * 60**2520, 9 * 60**20160):
        assert cosetgraph._digit_count(value) == len(str(Decimal(value)))


def test_adjacency_is_symmetric_and_loop_free():
    _, _, graph = cover_graph()
    adjacency = graph.adjacency.tolist()
    for v, nbrs in enumerate(adjacency):
        assert v not in nbrs
        assert len(set(nbrs)) == len(nbrs) == 3
        for u in nbrs:
            assert v in adjacency[u]
    # the build's own check rejects a directed triangle
    with pytest.raises(InternalCheckError, match="no reverse"):
        _check_symmetric(np.array([[1], [2], [0]]))


# ---------------------------------------------------------------------------
# agreement with the BFS and orbit-quotient oracles
# ---------------------------------------------------------------------------


def test_example1_matches_oracle():
    data, structure = example1()
    assert_matches_oracle(data, structure, centralizer=True)


def test_psl2_13_cover_matches_oracle():
    degree, gens = PSL2_13
    group = PermGroup.from_cycle_strings(gens, degree)
    data, structure = cover_data(group, *PSL2_13_PAIR)
    assert structure.block_count == 1
    graph = assert_matches_oracle(data, structure)
    assert graph.order == 4368
    assert_networkx_agrees(graph)


def test_conjugated_pair_matches_oracle():
    """x and y conjugated by an element of T: the same cover, other labels."""
    a5 = resolve_group("A5")
    c = P("(1,3,5)", 5)
    x, y = (P(t, 5).conjugate(c).cycle_string() for t in ("(1,2)(3,4)", "(1,2,3,4,5)"))
    assert (x, y) != ("(1,2)(3,4)", "(1,2,3,4,5)")
    data, structure = cover_data(a5, x, y)
    assert_matches_oracle(data, structure, centralizer=True)


def test_route_without_table_matches_oracle(conjugator_route):
    """Example-1 with T forced onto its entry pool: the same graph as the
    oracle, and as the table route, since the canonical keys are the same
    bytes."""
    data, structure = cover_data(conjugator_route(resolve_group("A5")), "(1,2)(3,4)", "(1,2,3,4,5)")
    assert isinstance(data.ctx.entries, EntryPool)
    graph = assert_matches_oracle(data, structure, centralizer=True)
    assert np.array_equal(graph.adjacency, cover_graph()[2].adjacency)


def test_route_without_table_reads_t_through_its_entry_ids(conjugator_route, monkeypatch):
    """On the entry pool the graph reads T as maps over the pool's ids: the
    build leaves the pool holding exactly T's 60 elements, and the build and
    its quotient multiply fewer than 400 Permutations (about 3,400 when
    every product map was formed one Permutation product at a time)."""
    data, structure = cover_data(conjugator_route(resolve_group("A5")), "(1,2)(3,4)", "(1,2,3,4,5)")
    products = []
    real = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__", lambda a, b: products.append(1) or real(a, b))
    graph = build_coset_graph(data, structure)
    assert data.ctx.entries.size == 60
    cert = quotient_graph(graph, kernel_gens(data, structure))
    assert len(products) < 400
    table_route = cover_graph()
    assert np.array_equal(graph.adjacency, table_route[2].adjacency)
    assert cert == quotient_graph(table_route[2], kernel_gens(*table_route[:2]))


# ---------------------------------------------------------------------------
# a failed check is a failing record, not a traceback
# ---------------------------------------------------------------------------

JOB1 = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)")


def graph_record(cert):
    rec = cert.check("graph-build")
    assert rec is not None and rec["passed"] is False
    return rec["computed"]["error"]


def test_corrupted_generator_row_fails_graph_build(monkeypatch):
    """A twisted swap g whose first entry is changed gives voltages outside M."""
    real = cosetgraph.build_coset_graph

    def corrupted(data, structure, vertex_cap):
        f = data.g.f.tolist()
        f[0] = 1 if f[0] == 0 else 0
        g = data.ctx.from_assignment(f, data.g.sigma)
        return real(dataclasses.replace(data, g=g), structure, vertex_cap)

    monkeypatch.setattr(cosetgraph, "build_coset_graph", corrupted)
    assert graph_record(run_job(JOB1, phase="graph")) == "a voltage does not lie in M"


def test_corrupted_voltage_fails_graph_build(monkeypatch):
    """Links twisted by an inner automorphism put every voltage outside M."""
    real = cosetgraph.build_coset_graph

    def corrupted(data, structure, vertex_cap):
        table = structure.group.table()
        s = table.gen_indices[0]
        twist = table.product(table.product(table.invert(s), np.arange(table.size)), s)  # a -> s^-1·a·s
        link = structure.links[1]
        link_id = structure.link_id.copy()
        link_id[1] = len(structure.maps)  # component 1 alone takes the twisted link
        maps = structure.maps + (dataclasses.replace(link, lookup=twist[link.lookup]),)
        return real(data, dataclasses.replace(structure, link_id=link_id, maps=maps), vertex_cap)

    monkeypatch.setattr(cosetgraph, "build_coset_graph", corrupted)
    assert graph_record(run_job(JOB1, phase="graph")) == "a voltage does not lie in M"


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def test_quotient_by_kernel_is_complete_graph():
    data, structure, graph = cover_graph()
    cert = quotient_graph(graph, kernel_gens(data, structure))
    assert cert.quotient_order == 4
    assert cert.quotient_valency == 3
    assert cert.fibre_size == 60
    assert cert.locally_bijective
    assert cert.quotient_is_complete
    assert cert.quotient_adjacency == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def test_quotient_by_centralizer_is_petersen():
    data, structure, graph = cover_graph()
    elements = closure(data.y_gens, data.ctx.identity_element(), cap=1441)
    assert len(elements) == 1440
    cent = centralizer_elements(elements, kernel_gens(data, structure))
    assert len(cent) == 24
    cert = quotient_graph(graph, cent)
    assert cert.quotient_order == 10
    assert cert.fibre_size == 24
    assert cert.locally_bijective
    assert not cert.quotient_is_complete
    assert is_petersen(cert.quotient_adjacency)


def centralizer_case(seed):
    """Y's elements and M's generators of example-1 (seed 0) or of its pair
    conjugated by a seeded element of A5."""
    a5 = resolve_group("A5")
    c = random.Random(seed).choice(a5.elements()) if seed else Permutation.identity(5)
    x, y = (P(t, 5).conjugate(c).cycle_string() for t in ("(1,2)(3,4)", "(1,2,3,4,5)"))
    data, structure = cover_data(a5, x, y)
    return data, closure(data.y_gens, data.ctx.identity_element()), kernel_gens(data, structure)


@pytest.mark.parametrize("seed", [0, 3], ids=["example1", "conjugated"])
def test_centralizer_elements_match_the_oracle(seed):
    """The stacked test keeps what the one-element-at-a-time oracle keeps,
    in order, for M's generators (trivial tops), for g (neither part
    trivial) and for H's (trivial bases), and a mutated entry of one M
    generator changes the answer for both."""
    data, elements, m_gens = centralizer_case(seed)
    assert len(elements) == 1440

    def keys(zs):
        return [z.key() for z in zs]

    got = centralizer_elements(elements, m_gens)
    assert len(got) == 24
    assert keys(got) == keys(oracle.centralizer_elements(elements, m_gens))
    by_g = centralizer_elements(elements, [data.g])
    assert data.g in by_g and len(by_g) < len(elements)
    assert keys(by_g) == keys(oracle.centralizer_elements(elements, [data.g]))
    # trivial bases agree with every top-only element: the tops decide
    by_h = centralizer_elements(elements, data.h_gens)
    assert keys(by_h) == keys(oracle.centralizer_elements(elements, data.h_gens))
    row = m_gens[-1].f.copy()
    row[-1] = (row[-1] + 1) % data.ctx.entries.size
    mutated = m_gens[:-1] + [data.ctx.from_assignment(row)]
    changed = centralizer_elements(elements, mutated)
    assert keys(changed) != keys(got)
    assert keys(changed) == keys(oracle.centralizer_elements(elements, mutated))


@pytest.mark.parametrize("name", ["A5", "PSL2_13"])
def test_fibre_ranks_follow_the_permutation_keys(name):
    """The fibre's key order, one lexsort over T's image rows, ranks the ids
    as sorting their elements' Permutation keys does."""
    if name == "A5":
        _, structure = example1()
    else:
        degree, gens = PSL2_13
        _, structure = cover_data(PermGroup.from_cycle_strings(gens, degree), *PSL2_13_PAIR)
    fibre = _Fibre(structure)
    keys = [fibre.entries.elem(i).key() for i in range(fibre.size)]
    by_keys = np.empty(fibre.size, dtype=np.int64)
    by_keys[sorted(range(fibre.size), key=keys.__getitem__)] = np.arange(fibre.size)
    assert np.array_equal(fibre.rank, by_keys)


@pytest.mark.parametrize("name, dtype", [("A5", np.uint8), ("PSL2_13", np.uint16)])
def test_generator_rows_become_elements_with_int_entries(name, dtype):
    """M's generating rows are a uint8 (A5) or uint16 (PSL(2,13)) matrix,
    and the graph holds them as read-only bases in that dtype, which is the
    table's (`CosetGraph.m_gens`). The index a·|T| + b of a product would
    wrap in it, and `WreathContext.product` forms it in intp, so the product
    of two generators has the table's entries, and its vertex map composes
    theirs."""
    if name == "A5":
        data, structure = example1()
    else:
        degree, gens = PSL2_13
        data, structure = cover_data(PermGroup.from_cycle_strings(gens, degree), *PSL2_13_PAIR)
    rows = structure.generators
    assert rows.dtype == dtype
    graph = build_coset_graph(data, structure)
    m_gens = graph.m_gens
    assert all(m.f.dtype == dtype and not m.f.flags.writeable for m in m_gens)
    assert np.array_equal(np.stack([m.f for m in m_gens]), rows)
    z = m_gens[0] * m_gens[1]
    table = structure.group.table()
    assert z.f.dtype == dtype
    assert z.f.tolist() == int32_table(structure.group)[0][rows[0], rows[1]].tolist()
    assert int(rows.max()) * table.size > np.iinfo(dtype).max  # the product would wrap
    first, second = (graph.vertex_map(m) for m in m_gens[:2])
    assert np.array_equal(graph.vertex_map(z), second[first])


def test_vertex_map_rejects_elements_outside_m_and_its_centralizer():
    data, _, graph = cover_graph()
    with pytest.raises(ValidationError, match="outside M"):
        graph.vertex_map(data.ctx.from_assignment([1, 0, 0, 0, 0, 0]))
    with pytest.raises(ValidationError, match="centralizes"):
        graph.vertex_map(data.g)


# K4 with elements given as their own vertex maps
K4 = SimpleNamespace(
    adjacency=np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]),
    vertex_map=lambda z: z,
)


def test_quotient_rejects_unequal_orbits():
    with pytest.raises(ValidationError, match=r"^orbit sizes differ \(\[1, 2\]\); not a cover action$"):
        quotient_graph(K4, [np.array([1, 0, 2, 3])])


def test_quotient_rejects_edges_inside_orbits():
    with pytest.raises(
        ValidationError,
        match="^an edge joins two vertices of one orbit; quotient would have a loop$",
    ):
        quotient_graph(K4, [np.array([1, 0, 3, 2])])


# ---------------------------------------------------------------------------
# invariants and exports
# ---------------------------------------------------------------------------


def test_girth_of_forest_is_none():
    assert graph_girth([(1,), (0, 2), (1,)]) is None
    assert graph_girth([()]) is None


def test_girth_of_cycle_graphs():
    for m in (3, 4, 5, 8):
        ring = [((v - 1) % m, (v + 1) % m) for v in range(m)]
        assert graph_girth(ring) == m
        assert graph_girth(ring, roots=(0,)) == m


def test_is_petersen_negatives():
    k4 = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    assert not is_petersen(k4)
    ring10 = [((v - 1) % 10, (v + 1) % 10) for v in range(10)]
    assert not is_petersen(ring10)


def export_bytes(adjacency, fmt):
    return b"".join(export_chunks(adjacency, fmt))


def test_exports_are_deterministic_bytes():
    k4 = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    assert export_bytes(k4, "edge-list") == b"0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert (
        export_bytes(k4, "adjacency-text")
        == b"0: 1 2 3\n1: 0 2 3\n2: 0 1 3\n3: 0 1 2\n"
    )
    with pytest.raises(ValidationError, match="unknown export format"):
        export_bytes(k4, "graphml")


def _joined_export(adjacency, fmt):
    """The exports as one joined string of lines, the format's definition."""
    if fmt == "edge-list":
        lines = [f"{v} {u}" for v, nbrs in enumerate(adjacency) for u in nbrs if v < u]
    else:
        lines = [f"{v}: " + " ".join(map(str, nbrs)) for v, nbrs in enumerate(adjacency)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-text"])
def test_exports_in_chunks_match_the_joined_lines(fmt):
    """A circulant graph over more than two chunks of rows, and graphs with
    no edges or no vertices, export the same bytes as the joined lines. Each
    chunk formats at most EXPORT_CHUNK_INTS ints (a line "v: a b c d" has
    five, an edge "u v" two)."""
    order = 2 * (EXPORT_CHUNK_INTS // 5) + 7
    ids = np.arange(order)[:, None]
    circulant = np.sort((ids + np.array([-5, -1, 1, 5])) % order, axis=1)
    chunks = list(export_chunks(circulant, fmt))
    assert len(chunks) >= 3
    assert all(len(chunk.split()) <= EXPORT_CHUNK_INTS for chunk in chunks)
    edgeless, empty = np.zeros((3, 0), dtype=np.int32), np.zeros((0, 3), dtype=np.int32)
    for adjacency in (circulant, edgeless, empty):
        assert export_bytes(adjacency, fmt) == _joined_export(adjacency.tolist(), fmt)


def traced_peak(work) -> int:
    """The tracemalloc peak of `work()`, above what was held before it."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["edge-list", "adjacency-text"])
def test_export_peak_does_not_grow_with_the_graph(fmt):
    """A circulant graph eight times larger exports with no higher peak:
    each chunk formats at most EXPORT_CHUNK_INTS ints, whatever the order."""
    peaks = []
    for order in (2_000, 16_000):
        ids = np.arange(order, dtype=np.int32)[:, None]
        circulant = np.sort((ids + np.array([-5, -1, 1, 5], dtype=np.int32)) % order, axis=1)
        peaks.append(traced_peak(lambda: sum(map(len, export_chunks(circulant, fmt)))))
    assert peaks[1] < 1.25 * peaks[0]


def test_build_and_quotient_peak_below_three_times_the_graph():
    """The 864,000-vertex cover (A5, y = (1,5,3), d = 3) of the extended-build
    job, with M's generators as the job finds them (the normal closure's
    rows, four here): the graph build and the quotient by M together peak
    below three times the bytes of `vertex` and `adjacency`. Every other
    array is one section's, one column's or one generator's vertex map, in
    the entry or the vertex ids' dtype."""
    a5 = resolve_group("A5")
    data = build_cover_group(CoverJob(n=4, group=a5, x=P("(1,2)(3,4)", 5), y=P("(1,5,3)", 5)))
    sifter = RowSifter(a5, data.ctx.k)
    normal_closure(data, sifter)
    structure = sifter.structure()
    assert len(structure.generators) == 4
    built = {}

    def work():
        graph = built["graph"] = build_coset_graph(data, structure)
        built["cert"] = quotient_graph(graph, graph.m_gens)

    peak = traced_peak(work)
    graph, cert = built["graph"], built["cert"]
    assert graph.order == 864_000 and graph.vertex.dtype == graph.adjacency.dtype == np.int32
    assert cert.quotient_is_complete and cert.locally_bijective and cert.fibre_size == 60**3
    assert peak < 3 * (graph.vertex.nbytes + graph.adjacency.nbytes)
