"""Acceptance gate: the nine end-to-end guarantees, each with its runtime target.

Every test_criterion_* function verifies one guarantee at its stated tolerance
and asserts the measured runtime of the governing computation. The shared
fixtures time the expensive work once; the per-criterion targets are asserted
against those measurements.
"""

import math
import random
import time

import pytest

from coset_oracle import conj_intersection, l_elements, two_arc_transitive
from cycle_oracle import cycle_class, full_cycles
from schreier_oracle import all_rows
from subdirect_oracle import decompose_rows
from arccover.catalog import resolve_group
from arccover.cosetgraph import build_coset_graph, quotient_graph
from arccover.groups import closure, group_order
from arccover.perm import Permutation, parse_cycles
from arccover.report import GAP_STATEMENTS, JobSpec, run_job
from arccover.suite import run_suite
from arccover.subdirect import inverting_automorphism, structures_equal
from arccover.wreath import (
    CoverJob,
    WreathContext,
    build_cover_group,
    k4_tuple_data,
    kernel_witness,
)

JOB1 = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,2,3,4,5)")
JOB2 = JobSpec(n=4, group="A5", x="(1,2)(3,4)", y="(1,5,3)")
JOB3 = JobSpec(n=4, group="A11", x="(1,2)(3,6)", y="(1,2,3,4,5,6,7,8,9,10,11)")

SEED = 90210


def assert_multiplicative(phi, t):
    """phi(a*b) = phi(a)*phi(b) over every pair of elements of the table t."""
    for a in range(t.size):
        for b in range(t.size):
            assert phi.lookup[t.multiply(a, b)] == t.multiply(phi.lookup[a], phi.lookup[b])


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def job1_run():
    return timed(run_job, JOB1)


@pytest.fixture(scope="module")
def job3_run():
    return timed(run_job, JOB3)


@pytest.fixture(scope="module")
def extended_suite():
    return timed(run_suite, "extended")


# the extended suite runs its jobs in this fixed order
EXTENDED_LABELS = (
    "example-1", "example-2", "example-3",
    "small-n4", "small-n5", "small-n6", "small-n7",
    "extended-build",
)


def cert_of(result, label):
    return dict(zip(EXTENDED_LABELS, result.certificates))[label]


# ---------------------------------------------------------------------------
# criterion 1: the 240-vertex cover of K4 and both of its quotients
# ---------------------------------------------------------------------------


def test_criterion_01_small_cover_pipeline(job1_run):
    cert, elapsed = job1_run
    assert cert.ok
    prediction = cert.check("block-count-prediction")["computed"]
    assert prediction["fix_x_invert_y_exists"] is True
    assert prediction["cross_words_exists"] is True
    blocks = cert.check("block-structure")["computed"]
    assert blocks["d"] == 1
    assert blocks["order_m"] == "60"
    assert blocks["order_y"] == "1440"
    graph = cert.check("graph-build")["computed"]
    assert graph["vertices"] == 240
    assert graph["valency"] == 3
    assert graph["connected"] is True
    assert cert.check("two-arc-transitive")["computed"]["two_transitive"] is True
    quotient = cert.check("cover-quotient")["computed"]
    assert quotient["quotient_order"] == 4
    assert quotient["complete"] is True
    assert quotient["locally_bijective"] is True
    assert quotient["fibre_size"] == 60
    central = cert.check("centralizer-structure")["computed"]
    assert central["centralizer_order"] == 24
    petersen = central["quotient"]
    assert petersen["order"] == 10
    assert petersen["valency"] == 3
    assert petersen["girth"] == 5
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: d=3 structure exactly, and the 864000-vertex build
# ---------------------------------------------------------------------------


def test_criterion_02_structural_facts_and_extended_build(extended_suite):
    (structural, structural_elapsed) = timed(run_job, JOB2, phase="decompose")
    assert structural.ok
    prediction = structural.check("block-count-prediction")["computed"]
    assert prediction["fix_x_invert_y_exists"] is True
    assert prediction["cross_words_exists"] is False
    blocks = structural.check("block-structure")["computed"]
    assert blocks["d"] == 3
    assert sorted(map(tuple, blocks["blocks_positional"])) == [(1, 2), (3, 4), (5, 6)]
    assert blocks["order_y"] == str(60**3 * 24) == "5184000"
    assert structural_elapsed < 10.0

    result, _ = extended_suite
    big = cert_of(result, "extended-build")
    assert big.ok
    graph = big.check("graph-build")["computed"]
    assert graph["vertices"] == 864000
    assert graph["valency"] == 3
    assert graph["connected"] is True
    quotient = big.check("cover-quotient")["computed"]
    assert quotient["quotient_order"] == 4 and quotient["complete"] is True
    girth_reg = {r["key"]: r for r in result.regressions}[
        "girth/n=4/A5/(1,2)(3,4)/(1,5,3)"
    ]
    assert girth_reg["computed"] == 15 and girth_reg["passed"]
    assert big.payload["timings"]["graph-build"] < 600.0


# ---------------------------------------------------------------------------
# criterion 3: the degree-11 job decides d=6 without any enumeration
# ---------------------------------------------------------------------------


def test_criterion_03_large_group_structural_only(job3_run):
    cert, elapsed = job3_run
    assert cert.ok
    prediction = cert.check("block-count-prediction")["computed"]
    assert prediction["fix_x_invert_y_exists"] is False
    assert prediction["predicted_d"] == 6 == prediction["computed_d"]
    assert cert.check("job-valid")["computed"]["entry_mode"] == "pool"
    blocks = cert.check("block-structure")["computed"]
    assert blocks["d"] == 6
    exact = 19958400**6 * 24
    assert blocks["order_y"] == str(exact)
    assert blocks["order_y_digits"] == len(str(exact)) == 46
    skip = cert.skipped("graph-build")
    assert skip is not None and skip["kind"] == "capacity"
    assert cert.check("cover-quotient") is None  # no graph was attempted
    assert list(GAP_STATEMENTS) == cert.payload["gaps"]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: the class partition of the full cycles, n = 4..8
# ---------------------------------------------------------------------------


def test_criterion_04_class_partition_sweep():
    t0 = time.perf_counter()
    group = resolve_group("A5")
    for n in range(4, 9):
        class_positions: dict[int, list[int]] = {}
        for i, k in enumerate(WreathContext(n, group).place[:, 1].tolist()):
            class_positions.setdefault(k, []).append(i)
        cycles = full_cycles(n)
        assert all(cycle_class(cycles[i]) == k
                   for k, positions in class_positions.items() for i in positions)
        assert sorted(class_positions) == list(range(1, n))
        union = [i for k in sorted(class_positions) for i in class_positions[k]]
        assert sorted(union) == list(range(math.factorial(n - 1)))
        size = math.factorial(n - 2)
        assert all(len(class_positions[k]) == size for k in class_positions)
        classes = {
            k: [cycles[i] for i in positions]
            for k, positions in class_positions.items()
        }

        # the subgroup fixing 1 and 2 acts regularly on every class
        tail = list(range(3, n + 1))
        l_gens = []
        if len(tail) >= 2:
            l_gens.append(parse_cycles("(" + ",".join(map(str, tail)) + ")", n))
        if len(tail) >= 3:
            l_gens.append(parse_cycles(f"({n - 1},{n})", n))
        l_tops = closure(l_gens, Permutation.identity(n))
        assert len(l_tops) == size
        for k in sorted(classes):
            cls_keys = {c.key() for c in classes[k]}
            first = classes[k][0]
            orbit = {(first.conjugate(z)).key() for z in l_tops}
            assert orbit == cls_keys  # transitive, and |L| = |class| forces free

        # conjugation by (1,2) swaps class k with class n-k
        delta = parse_cycles("(1,2)", n)
        for k in sorted(classes):
            image = {c.conjugate(delta).key() for c in classes[k]}
            assert image == {c.key() for c in classes[n - k]}
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# criterion 5: defining identities of the twisted swap, n = 4..7
# ---------------------------------------------------------------------------


def test_criterion_05_twist_identities_sweep():
    t0 = time.perf_counter()
    group = resolve_group("A5")
    x = parse_cycles("(1,2)(3,4)", 5)
    y = parse_cycles("(1,2,3,4,5)", 5)
    for n in range(4, 8):
        data = build_cover_group(
            CoverJob(n=n, group=group, x=x, y=y, group_name="A5")
        )
        g = data.g
        assert (g * g).is_identity()
        l_elems = l_elements(data)
        assert all((g * z).key() == (z * g).key() for z in l_elems)
        h_elems = data.h_elements()
        intersection = conj_intersection(h_elems, g)
        assert len(intersection) == math.factorial(n - 2)
        assert {w.key() for w in intersection} == {w.key() for w in l_elems}

        s = kernel_witness(data)
        ctx = data.ctx
        alpha = parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)
        s_alpha = ctx.entries.elem(s.f[full_cycles(n).index(alpha)])
        s_alpha_inv = ctx.entries.elem(s.f[full_cycles(n).index(alpha.inverse())])
        assert s_alpha == y * y * x
        assert s_alpha_inv == y.inverse() * y.inverse() * x
        assert group_order([s_alpha, s_alpha_inv], 5) == 60
        if n == 7:
            beta = parse_cycles("(1,4,2,5,3,6,7)", 7)
            assert s.f[full_cycles(7).index(beta)] == 0
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# criterion 6: explicit tuple generators against the Schreier kernel
# ---------------------------------------------------------------------------


def test_criterion_06_tuple_cross_check(job1_run):
    t0 = time.perf_counter()
    group = resolve_group("A5")
    x = parse_cycles("(1,2)(3,4)", 5)
    y = parse_cycles("(1,2,3,4,5)", 5)
    data = build_cover_group(CoverJob(n=4, group=group, x=x, y=y, group_name="A5"))
    kgens = all_rows(data)[0]
    schreier = decompose_rows(kgens, group)
    tuples = k4_tuple_data(data)
    explicit = decompose_rows([t.f.tolist() for t in (tuples.t1, tuples.t2, tuples.t3)], group)
    assert structures_equal(schreier, explicit)

    yi = y.inverse()
    t1, t2, t3 = tuples.tuples_in_positions()
    assert t1 == (y*x*y, yi*x*yi, y*y*x, yi*yi*x, x*y*y, x*yi*yi)
    assert t2 == (y*y*x, yi*yi*x, y*x*y, yi*x*yi, x*yi*yi, x*y*y)
    assert t3 == (x*y*y, x*yi*yi, yi*yi*x, y*y*x, y*x*y, yi*x*yi)

    cert, _ = job1_run
    recorded = cert.check("tuple-generators")["computed"]
    assert recorded["structures_equal"] is True
    assert recorded["tuple_d"] == 1
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 7: predicted d equals computed d across a battery of pairs
# ---------------------------------------------------------------------------

BATTERY = (
    ("A5", "(1,2)(3,4)", "(1,2,3,4,5)", 1),
    ("A5", "(1,2)(3,4)", "(1,5,3)", 3),
    ("A5", "(2,3)(4,5)", "(1,3,5,2,4)", 3),
    ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)", 3),
    ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,7,8)(2,4,6)", 3),
    ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,3,5,7,2,4,6)", 3),
)


def test_criterion_07_prediction_battery():
    t0 = time.perf_counter()
    assert len(BATTERY) >= 5
    for name, x_text, y_text, frozen_d in BATTERY:
        group = resolve_group(name)
        x = parse_cycles(x_text, group.degree)
        y = parse_cycles(y_text, group.degree)
        job = CoverJob(n=4, group=group, x=x, y=y, group_name=name)
        assert job.problems() == []
        cert = run_job(JobSpec(n=4, group=name, x=x_text, y=y_text), phase="decompose")
        rec = cert.check("block-count-prediction")
        predicted, computed = rec["computed"]["predicted_d"], rec["computed"]["computed_d"]
        assert rec["passed"] and predicted == computed == frozen_d, (name, x_text, y_text)
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# criterion 8: the n = 7 block-count bound and its frozen regression value
# ---------------------------------------------------------------------------


def test_criterion_08_n7_bound_and_regression(extended_suite):
    result, _ = extended_suite
    cert = cert_of(result, "small-n7")
    assert cert.ok
    blocks = cert.check("block-structure")["computed"]
    m = blocks["d"]
    assert blocks["component_count"] == 720
    assert blocks["divides_component_count"] is True
    assert 720 % m == 0
    assert blocks["lower_bound"] == 18 == math.ceil(math.comb(7, 3) / 2)
    assert m >= 18 and blocks["bound_ok"] is True
    reg = {r["key"]: r for r in result.regressions}[
        "d/n=7/A5/(1,2)(3,4)/(1,2,3,4,5)"
    ]
    assert reg["computed"] == m == 360
    assert reg["passed"] and not reg.get("frozen")  # compared, not newly frozen
    job_time = sum(
        t for key, t in cert.payload["timings"].items()
    )
    assert job_time < 600.0


# ---------------------------------------------------------------------------
# criterion 9: the property suites (laws, actions, links, graphs, covers)
# ---------------------------------------------------------------------------


def test_criterion_09_property_suites(extended_suite):
    rng = random.Random(SEED)
    group = resolve_group("A5")
    x = parse_cycles("(1,2)(3,4)", 5)
    y = parse_cycles("(1,2,3,4,5)", 5)
    data = build_cover_group(CoverJob(n=4, group=group, x=x, y=y, group_name="A5"))
    ctx = data.ctx
    ident = ctx.identity_element()

    # group laws: 10^4 random triples, fixed seed
    pool = []
    w = ident
    for _ in range(200):
        for _ in range(rng.randrange(1, 5)):
            w = w * rng.choice(data.y_gens)
        pool.append(w)
    for _ in range(10_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert ((a * b) * c).key() == (a * (b * c)).key()
    for a in pool:
        assert (a * a.inverse()).key() == ident.key()

    # action laws on the cycle domain
    s4 = closure([parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)],
                 Permutation.identity(4))
    assert len(s4) == 24
    for _ in range(200):
        s1, s2 = rng.choice(s4), rng.choice(s4)
        for alpha in full_cycles(4):
            assert alpha.conjugate(s1 * s2) == alpha.conjugate(s1).conjugate(s2)
        m1, m2, m12 = ctx.comp_map(s1), ctx.comp_map(s2), ctx.comp_map(s1 * s2)
        assert all(m12[i] == m2[m1[i]] for i in range(ctx.k))

    # automorphism maps multiply like automorphisms, on all 3600 pairs of A5
    assert_multiplicative(inverting_automorphism(group, x, y), group.table())

    # linking maps satisfy the equivalence axioms on a 3-block structure
    y2 = parse_cycles("(1,5,3)", 5)
    data2 = build_cover_group(CoverJob(n=4, group=group, x=x, y=y2, group_name="A5"))
    kgens = all_rows(data2)[0]
    structure = decompose_rows(kgens, group)
    flattened = sorted(c for blk in structure.blocks for c in blk)
    assert flattened == list(range(structure.k))  # blocks partition components
    for blk in structure.blocks:
        base = structure.base_of[blk[0]]
        assert base == blk[0] and structure.links[base] is None
        for j in blk[1:]:
            link = structure.links[j]
            assert structure.base_of[j] == base and link is not None
            for row in structure.generators:
                assert row[j] == link.lookup[row[base]]
            assert_multiplicative(link, group.table())

    # graph symmetry and irreflexivity for every graph built here
    m_structure = decompose_rows(
        all_rows(data)[0],
        group,
    )
    graph = build_coset_graph(data, m_structure)
    m_gens = [ctx.from_assignment(row) for row in m_structure.generators]
    quotient = quotient_graph(graph, m_gens)
    adjacencies = [graph.adjacency.tolist(), quotient.quotient_adjacency]
    result, _ = extended_suite
    for cert in result.certificates:
        rec = cert.check("graph-build")
        if rec is not None:
            assert rec["computed"]["connected"] is True
    for adjacency in adjacencies:
        for v, nbrs in enumerate(adjacency):
            assert v not in nbrs
            assert len(set(nbrs)) == len(nbrs)
            for u in nbrs:
                assert v in adjacency[u]

    # cover maps are locally bijective at every vertex of every built cover
    assert quotient.locally_bijective and quotient.quotient_is_complete
    h_elems = data.h_elements()
    kernel = conj_intersection(h_elems, data.g)
    assert two_arc_transitive(h_elems, kernel, data.h_gens)["two_transitive"]
    for label in ("example-1", "small-n4", "extended-build"):
        rec = cert_of(result, label).check("cover-quotient")
        assert rec is not None and rec["computed"]["locally_bijective"] is True
