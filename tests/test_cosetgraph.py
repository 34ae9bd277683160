"""Coset graph construction, verification, quotients, and exports."""

import random

import pytest

from arccover.catalog import resolve_group
from arccover.cosetgraph import (
    _Canonicalizer,
    CosetGraph,
    build_coset_graph,
    centralizer_elements,
    export_graph,
    graph_girth,
    graph_invariants,
    quotient_graph,
    two_arc_transitive,
)
from arccover.errors import CapacityExceeded, ValidationError
from arccover.groups import closure
from arccover.perm import Permutation, parse_cycles
from arccover.wreath import CoverJob, WreathElement, build_cover_group


def P(text, degree):
    return parse_cycles(text, degree)


def is_petersen(adjacency):
    """The unique 3-regular girth-5 graph on 10 vertices."""
    inv = graph_invariants(adjacency)
    return (
        inv["order"] == 10
        and inv["valency"] == 3
        and inv["components"] == 1
        and inv["girth"] == 5
    )


def sym_fixing_last(n):
    """All permutations of degree n fixing the point n."""
    if n == 4:
        gens = [P("(1,2,3)", 4), P("(1,2)", 4)]
    else:
        gens = [P("(1,2,3)", 5), P("(1,2)", 5), P("(4,5)", 5)]
    return closure(gens, Permutation.identity(n))


def cover_graph():
    """The 240-vertex graph of the standing n = 4, A5, (1,2)(3,4)/(1,2,3,4,5) job."""
    job = CoverJob(
        n=4,
        group=resolve_group("A5"),
        x=P("(1,2)(3,4)", 5),
        y=P("(1,2,3,4,5)", 5),
        group_name="A5",
    )
    data = build_cover_group(job)
    return data, build_coset_graph(data.h_elements(), data.g)


# ---------------------------------------------------------------------------
# permutation-group sanity cases
# ---------------------------------------------------------------------------


def test_complete_graph_on_point_stabilizer():
    h = closure([P("(1,2,3)", 4), P("(1,2)", 4)], Permutation.identity(4))
    g = P("(1,4)", 4)
    graph = build_coset_graph(h, g)
    assert graph.order == 4
    assert graph.valency == 3
    assert graph.adjacency == [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    assert graph.order == 24 // 6
    assert graph_invariants(graph.adjacency)["components"] == 1
    stats = two_arc_transitive(h, g)
    assert stats == {"index": 3, "two_transitive": True}


def test_petersen_graph_from_pair_stabilizer():
    gens = [P("(1,2)", 5), P("(1,2,3)", 5), P("(4,5)", 5)]
    h = closure(gens, Permutation.identity(5))
    assert len(h) == 12
    g = P("(1,4)(2,5)", 5)
    graph = build_coset_graph(h, g)
    assert graph.order == 10
    assert is_petersen(graph.adjacency)
    assert graph.order == 120 // 12
    assert graph_invariants(graph.adjacency)["components"] == 1
    assert two_arc_transitive(h, g, h_gens=gens)["two_transitive"]


def test_regular_subgroup_action_is_not_two_transitive():
    h = closure([P("(1,2,3,4)", 4)], Permutation.identity(4))
    g = P("(1,2)", 4)
    stats = two_arc_transitive(h, g)
    assert stats["index"] == 4
    assert stats["two_transitive"] is False
    graph = build_coset_graph(h, g)
    assert graph.order == 6
    assert graph.valency == 4


def test_rejects_g_inside_h():
    h = sym_fixing_last(4)
    with pytest.raises(ValidationError, match="lies in H"):
        build_coset_graph(h, P("(1,2,3)", 4))


def test_rejects_g_squared_outside_h():
    h = closure([P("(1,2,3)", 4)], Permutation.identity(4))
    with pytest.raises(ValidationError, match="g\\^2"):
        build_coset_graph(h, P("(1,2,3,4)", 4))


# ---------------------------------------------------------------------------
# the 240-vertex cover of K4
# ---------------------------------------------------------------------------


def test_cover_graph_invariants():
    _, graph = cover_graph()
    assert graph.order == 240
    assert graph.valency == 3
    assert graph.subgroup_order == 6
    assert graph.order == 1440 // 6
    inv = graph_invariants(graph.adjacency)
    assert inv == {"order": 240, "valency": 3, "components": 1, "girth": 9}


def test_single_root_girth_matches_full_scan():
    _, graph = cover_graph()
    assert graph_girth(graph.adjacency, roots=(0,)) == 9
    assert graph_girth(graph.adjacency) == 9


def test_two_arc_transitivity_of_cover():
    data, _ = cover_graph()
    stats = two_arc_transitive(data.h_elements(), data.g, h_gens=data.h_gens)
    assert stats == {"index": 3, "two_transitive": True}


def test_vertex_lookup_constant_on_cosets():
    data, graph = cover_graph()
    rng = random.Random(5)
    h_elems = data.h_elements()
    for _ in range(25):
        v = rng.randrange(graph.order)
        w = graph.reps[v]
        h = rng.choice(h_elems)
        assert graph.vertex_of(h * w) == v
    with pytest.raises(ValidationError):
        graph.index_of_key(b"\x00nonsense")


def test_vertex_index_is_sorted_and_names_each_representative():
    _, graph = cover_graph()
    assert list(graph.index) == sorted(graph.index)
    assert len(graph.index) == graph.order
    for v, w in enumerate(graph.reps):
        assert graph.index[w.key()] == v


def canonical_cases():
    """(H, sample of group elements w) for the three kinds of H in use: top-only
    wreath elements over a table (the 240-vertex cover) and over Permutation
    entries (A11, object mode), and plain permutations (the Petersen H)."""
    rng = random.Random(17)
    data, graph = cover_graph()
    table_sample = [graph.reps[rng.randrange(graph.order)] for _ in range(30)]
    table_sample += [data.g * w for w in table_sample[:10]]

    a11 = CoverJob(
        n=4,
        group=resolve_group("A11"),
        x=P("(1,2)(3,6)", 11),
        y=P("(1,2,3,4,5,6,7,8,9,10,11)", 11),
        group_name="A11",
    )
    obj = build_cover_group(a11)
    assert not obj.ctx.index_mode
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
        canon = _Canonicalizer(h_elems)
        # wreath-valued H here is top-only, so the cached-top path runs
        assert (canon._tops is not None) == isinstance(h_elems[0], WreathElement)
        h_keys = {h.key() for h in h_elems}
        for w in sample:
            r = canon.rep(w)
            assert r.key() == min((h * w).key() for h in h_elems)
            assert (r * w.inverse()).key() in h_keys


def test_vertex_cap_interrupts_search():
    data, _ = cover_graph()
    with pytest.raises(CapacityExceeded) as info:
        build_coset_graph(data.h_elements(), data.g, vertex_cap=50)
    assert info.value.details["discovered"] >= 50


def test_adjacency_is_symmetric_and_loop_free():
    _, graph = cover_graph()
    for v, nbrs in enumerate(graph.adjacency):
        assert v not in nbrs
        assert len(set(nbrs)) == len(nbrs) == 3
        for u in nbrs:
            assert v in graph.adjacency[u]


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def kernel_gens(data):
    """Generators of the base-only kernel M, as wreath elements."""
    from arccover.groups import schreier_kernel_generators
    from arccover.subdirect import subdirect_decompose

    kgens = schreier_kernel_generators(
        data.y_gens, lambda w: w.sigma, data.ctx.identity_element()
    )
    structure = subdirect_decompose(kgens, data.ctx.group)
    ident = Permutation.identity(data.ctx.n)
    return [WreathElement(data.ctx, tuple(row), ident) for row in structure.generators]


def test_quotient_by_kernel_is_complete_graph():
    data, graph = cover_graph()
    cert = quotient_graph(graph, kernel_gens(data))
    assert cert.quotient_order == 4
    assert cert.quotient_valency == 3
    assert cert.fibre_size == 60
    assert cert.locally_bijective
    assert cert.quotient_is_complete
    assert cert.quotient_adjacency == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def test_quotient_by_centralizer_is_petersen():
    data, graph = cover_graph()
    elements = closure(data.y_gens, data.ctx.identity_element(), cap=1441)
    assert len(elements) == 1440
    cent = centralizer_elements(elements, kernel_gens(data))
    assert len(cent) == 24
    cert = quotient_graph(graph, cent)
    assert cert.quotient_order == 10
    assert cert.fibre_size == 24
    assert cert.locally_bijective
    assert not cert.quotient_is_complete
    assert is_petersen(cert.quotient_adjacency)


def test_quotient_rejects_unequal_orbits():
    h = sym_fixing_last(4)
    graph = build_coset_graph(h, P("(1,4)", 4))
    with pytest.raises(ValidationError, match="orbit sizes differ"):
        quotient_graph(graph, [P("(1,4)", 4)])


def test_quotient_rejects_edges_inside_orbits():
    h = sym_fixing_last(4)
    graph = build_coset_graph(h, P("(1,4)", 4))
    with pytest.raises(ValidationError, match="loop"):
        quotient_graph(graph, [P("(1,4)(2,3)", 4)])


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


def test_exports_are_deterministic_bytes():
    k4 = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    assert export_graph(k4, "edge-list") == b"0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert (
        export_graph(k4, "adjacency-text")
        == b"0: 1 2 3\n1: 0 2 3\n2: 0 1 3\n3: 0 1 2\n"
    )
    with pytest.raises(ValidationError, match="unknown export format"):
        export_graph(k4, "graphml")
