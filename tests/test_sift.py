"""The sifted block structure (`RowSifter`) of the rows of every Schreier
generator (`schreier_oracle.schreier_rows`, many rows in large batches)
against their decomposition all at once (`subdirect_oracle.decompose_rows`),
its refinement by a row outside <S>, the inverse-pair blocks at n >= 5 and
their two interned links, and the pool's conjugation cache that its links
read."""

import numpy as np
import pytest

from schreier_oracle import schreier_rows
from subdirect_oracle import decompose_rows
from arccover import report
from arccover.catalog import resolve_group
from arccover.cosetgraph import build_coset_graph, quotient_graph
from arccover.errors import ValidationError
from arccover.groups import AutomorphismMap, EntryPool
from arccover.perm import Permutation, parse_cycles
from arccover.subdirect import (
    RowSifter,
    SubdirectStructure,
    inverting_automorphism,
    structures_equal,
)
from arccover.wreath import CoverJob, _lehmer_ranks, build_cover_group

A5 = ("A5", "(1,2)(3,4)", "(1,2,3,4,5)")
A5_Y2 = ("A5", "(1,2)(3,4)", "(1,5,3)")
PSL27 = ("PSL27", "(1,8)(2,7)(3,4)(5,6)", "(1,2,3,4,5,6,7)")
A7 = ("A7", "(1,2)(3,4)", "(1,2,3,4,5,6,7)")
A11 = ("A11", "(1,2)(3,6)", "(1,2,3,4,5,6,7,8,9,10,11)")

# the jobs of the three suites (A5 at n = 4 to 7 with either y, A11 at n = 4),
# A5 at n = 8, PSL27 at n = 5, A7 at n = 5 to 7 on its entry pool, A11 at n = 5
JOBS = [
    (A5, 4), (A5_Y2, 4), (A11, 4), (A5, 5), (A5, 6), (A5, 7), (A5, 8), (A5_Y2, 5),
    (PSL27, 5), (A7, 5), (A7, 6), (A7, 7), (A11, 5),
]
IDS = [f"{job[0]}-{job[2]}-n{n}" for job, n in JOBS]


def cover(job, n, group=None):
    name, x, y = job
    group = group or resolve_group(name)
    return build_cover_group(CoverJob(n=n, group=group, x=parse_cycles(x, group.degree),
                                      y=parse_cycles(y, group.degree)))


def sift(data):
    """The sifter over the BFS's batches, and every row formed."""
    sifter = RowSifter(data.job.group, data.ctx.k)
    batches = []

    def take(rows):
        batches.append(rows.copy())
        sifter.add(rows)

    schreier_rows(data, take)
    return sifter, np.concatenate(batches)


def link_keys(structure):
    return [None if link is None else link.key() for link in structure.links]


def assert_same_structure(sifted, whole):
    assert sifted.blocks == whole.blocks and np.array_equal(sifted.base_of, whole.base_of)
    assert link_keys(sifted) == link_keys(whole)
    assert structures_equal(sifted, whole)


@pytest.fixture(scope="module", params=JOBS, ids=IDS)
def sifted(request):
    job, n = request.param
    data = cover(job, n)
    sifter, rows = sift(data)
    return job, data, sifter, rows


def test_sifted_structure_is_the_decomposition_of_every_row(sifted):
    """Blocks, bases and links are M's whichever rows generate it: the few
    rows S kept give those of all the rows formed."""
    _, data, sifter, rows = sifted
    structure = sifter.structure()
    assert_same_structure(structure, decompose_rows(rows, data.job.group))
    s = structure.generators
    assert len(s) == sifter.rows_kept <= sifter.rows_formed == len(rows)
    assert not s.flags.writeable and s.dtype == rows.dtype
    # S is a set of rows formed, and every row formed lies in <S>
    formed = {row.tobytes() for row in rows}
    assert all(row.tobytes() in formed for row in s)
    assert structure._holds(rows).all()


@pytest.mark.parametrize("sifted", [p for p in JOBS if p[1] == 4], indirect=True,
                         ids=[i for p, i in zip(JOBS, IDS) if p[1] == 4])
def test_n4_rows_are_decomposed_once(sifted):
    """S takes whole batches until it decomposes, so n = 4's few rows, in
    three small batches, are decomposed once, as when every row formed was
    decomposed, and later batches are only checked against the links."""
    _, _, sifter, _ = sifted
    assert sifter.structure() is not None
    assert sifter.decompositions == 1 and sifter.rows_kept < sifter.rows_formed


@pytest.mark.parametrize("sifted", [p for p in JOBS if p[1] >= 5], indirect=True,
                         ids=[i for p, i in zip(JOBS, IDS) if p[1] >= 5])
def test_inverse_cycles_share_a_block_linked_by_phi(sifted):
    """Where an automorphism phi of T fixes x and inverts y, every block at
    n >= 5 is a full cycle and its inverse, linked by phi (ROADMAP item 2's
    fact); A11 has no such phi, and there every block is one cycle."""
    (name, x, y), data, sifter, _ = sifted
    group, structure = data.job.group, sifter.structure()
    phi = inverting_automorphism(group, parse_cycles(x, group.degree), parse_cycles(y, group.degree))
    if phi is None:
        assert name == "A11" and structure.block_count == data.ctx.k
        return
    walk = data.ctx.walk
    inverse_of = _lehmer_ranks(np.hstack([walk[:, :1], walk[:, :0:-1]]))
    assert structure.block_count == data.ctx.k // 2
    for base, other in structure.blocks:
        assert inverse_of[base] == other
        assert structure.links[other].key() == phi.key()


def identity_key(group):
    """The identity's key in the form `subdirect` finds links for `group`:
    a lookup in the entries' dtype with a table, a conjugator without."""
    if group.table() is None:
        return Permutation.identity(group.degree).images
    return np.arange(group.order(), dtype=group.entries().dtype).tobytes()


@pytest.mark.parametrize("sifted", [p for p in JOBS if p[1] >= 5], indirect=True,
                         ids=[i for p, i in zip(JOBS, IDS) if p[1] >= 5])
def test_the_interned_links_are_the_identity_and_phi(sifted):
    """The k links of n >= 5 are held as two distinct maps, the identity at
    id 0 (the bases' id) and phi, compared by key; A11, with no phi, holds
    the identity alone."""
    (_, x, y), data, sifter, _ = sifted
    group, structure = data.job.group, sifter.structure()
    phi = inverting_automorphism(group, parse_cycles(x, group.degree), parse_cycles(y, group.degree))
    want = [identity_key(group)] + ([] if phi is None else [phi.key()])
    assert [link.key() for link in structure.maps] == want
    assert not structure.link_id[structure.bases].any()


def test_refinement_composes_once_per_pair_of_link_ids(monkeypatch):
    """A5 n = 8's kernel-generators decomposes S once and refines it twice;
    each refinement forms a moved component's link φ_j∘φ_c^-1 once per
    distinct pair (link_id[j], link_id[c]), not once per moved component
    (120 and 60 of them)."""
    calls = []
    real_after, real_refined = AutomorphismMap.after, SubdirectStructure.refined

    def after(self, other):
        calls.append(1)
        return real_after(self, other)

    refinements = []  # per refinement: (after calls, distinct id pairs, moved links)

    def refined(self, row, generators):
        before = len(calls)
        new = real_refined(self, row, generators)
        moved = np.flatnonzero(new.base_of != self.base_of)
        linked = moved[new.base_of[moved] != moved]
        pairs = set(zip(self.link_id[linked].tolist(), self.link_id[new.base_of[linked]].tolist()))
        refinements.append((len(calls) - before, len(pairs), len(linked)))
        return new

    monkeypatch.setattr(AutomorphismMap, "after", after)
    monkeypatch.setattr(SubdirectStructure, "refined", refined)
    name, x, y = A5
    cert = report.run_job(report.JobSpec(n=8, group=name, x=x, y=y), "decompose")
    assert cert.ok and cert.check("block-structure")["computed"]["d"] == 2520
    assert cert.check("kernel-generators")["computed"]["decompositions"] == 1 + len(refinements) == 3
    assert all(made <= pairs for made, pairs, _ in refinements)
    assert sum(made for made, _, _ in refinements) < sum(linked for _, _, linked in refinements)


def test_a_row_outside_s_raises_d():
    """A row outside <S>, sifted after the Schreier rows, joins S, and the
    refined structure is the decomposition of every row given."""
    data = cover(A5, 5)
    sifter, rows = sift(data)
    before = sifter.structure()
    table = data.job.group.table()
    member = next(j for j, link in enumerate(before.links) if link is not None)
    outside = before.generators[0].copy()
    outside[member] = table.multiply(int(outside[member]), table.idx(parse_cycles("(1,2,3)", 5)))
    assert not before._holds(outside[None])[0]
    kept, steps = sifter.rows_kept, sifter.decompositions
    sifter.add(outside[None])
    after = sifter.structure()
    assert after.block_count > before.block_count
    assert (sifter.rows_kept, sifter.decompositions) == (kept + 1, steps + 1)
    whole = decompose_rows(np.vstack([rows, outside]), data.job.group)
    assert_same_structure(after, whole)
    # a row inside <S> changes nothing
    sifter.add(after.generators[:1])
    assert sifter.structure() is after and sifter.rows_kept == kept + 1


@pytest.mark.parametrize("route", ["table", "pool"])
def test_a_split_block_links_to_its_new_base(route, conjugator_route):
    """Example-1's one block of six, split by a row whose entries pulled
    back through the links are 1 on components 0-2 and e on 3-5: component
    3 becomes a base, and 4 and 5 link to it by their link composed after
    the inverse of 3's, with the table's lookups or the pool's conjugators,
    as the decomposition of every row finds them."""
    group = resolve_group("A5")
    if route == "pool":
        group = conjugator_route(group)
    data = cover(A5, 4, group)
    sifter, rows = sift(data)
    before = sifter.structure()
    assert before.blocks == ((0, 1, 2, 3, 4, 5),)
    entries = group.entries()
    e = np.array([entries.idx(parse_cycles("(1,2,3)", 5))], dtype=entries.dtype)
    row = np.zeros(6, dtype=entries.dtype)
    for j in (3, 4, 5):
        row[j] = before.links[j].image(e, entries)[0]
    sifter.add(row[None])
    after = sifter.structure()
    assert after.blocks == ((0, 1, 2), (3, 4, 5)) and after.base_of.tolist() == [0, 0, 0, 3, 3, 3]
    assert_same_structure(after, decompose_rows(np.vstack([rows, row]), group))


def test_a_column_that_never_generates_is_named_as_the_whole_decomposition_names_it():
    """Rows whose columns never all generate T all join S, and the structure
    names the least column that does not, as the decomposition of every row does."""
    data = cover(A5, 5)
    _, rows = sift(data)
    rows = rows.copy()
    rows[:, [3, 7]] = 0
    sifter = RowSifter(data.job.group, data.ctx.k)
    sifter.add(rows)
    assert sifter.decompositions == 0 and sifter.rows_kept == len(np.unique(rows, axis=0))
    message = "component 3 projection generates a proper subgroup"
    with pytest.raises(ValidationError, match=message):
        decompose_rows(rows, data.job.group)
    with pytest.raises(ValidationError, match=message):
        sifter.structure()


def test_pool_conjugates_are_derived_once_per_conjugator(conjugator_route, monkeypatch):
    """Example-1 with A5 on its entry pool, through the graph and the
    quotient by M: the cached conjugation numbers every element as deriving
    each conjugate afresh does, with fewer derivations."""
    uncached = []

    def fresh(self, a, c):
        distinct, back = np.unique(a, return_inverse=True)
        s = np.array(c.images, dtype=np.intp) - 1
        rows = np.empty((len(distinct), len(s)), dtype=np.uint8)
        rows[:, s] = s[self._rows.take(distinct)]
        uncached.append(len(distinct))
        return self._intern(rows)[back.reshape(np.shape(a))]

    def run():
        data = cover(A5, 4, conjugator_route(resolve_group("A5")))
        sifter, _ = sift(data)
        graph = build_coset_graph(data, sifter.structure())
        cert = quotient_graph(graph, graph.m_gens)
        assert cert.quotient_order == 4 and cert.quotient_is_complete
        pool = data.job.group.entries()
        assert isinstance(pool, EntryPool)
        return [pool.elem(i) for i in range(pool.size)], pool.conjugates_derived

    cached_ids, cached = run()
    monkeypatch.setattr(EntryPool, "conjugate", fresh)
    fresh_ids, _ = run()
    assert cached_ids == fresh_ids and len(cached_ids) == 60
    assert 0 < cached < sum(uncached)
