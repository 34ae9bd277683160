"""The cover graph as a derived graph of K_n over T^d, and its quotients.

The graph Cos(Y, H, HgH) has the right cosets of H as vertices, with Hx ~ Hy
iff y x^-1 in HgH. H is top-only (the embedded Sym{2..n}) and the kernel M of
the top projection meets it trivially, so every coset is H·c_i·m for exactly
one top i = 1^σ and one m in M. The sections are c_1 = 1, c_2 = g and
c_j = g·(2,j). A neighbour seed p (g times a transversal of H ∩ H^g in H,
both held as tops) sends H·c_i·m to H·c_j·(v·m), where p·c_i = h·c_j·v with
h in H and the voltage v in M. So the graph is the derived graph of K_n with n(n-1)
voltages in M = T^d (Gross–Tucker), built with one gather per dart and block
base over all |T|^d fibre points and no coset search.

An element m of M is held by its entry ids (`PermGroup.entries`) at the
block bases of the subdirect structure (`_Fibre`); the other entries follow
through the links. Vertices are numbered by the sorted canonical key of their
coset, the least serialized key of an element of H·c_i·m: the least top of
H·c_i first, then the entries, compared in the order of their Permutation
keys.

`quotient_graph` takes the quotient by a subgroup of M or of M's
centralizer acting on the right, through int vertex maps
(`CosetGraph.vertex_map`): (i, m) -> (i, m·z) for z in M, and
(i, m) -> (j, m'·m) for z centralizing M, where H·c_i·z = H·c_j·m'.

Arrays are held in the narrowest dtype of what they hold. T's entry ids,
the fibre's coordinates and key ranks and the key columns are in the entry
dtype (`id_dtype`: uint8 up to |T| = 256, else uint16). Fibre points,
vertex ids, `vertex`, `adjacency`, vertex maps, orbit labels and orbit
numbers are in the vertex ids' dtype (`_id_type`: int32 up to 2^31 - 1
vertices). The build and the quotient read the adjacency one column at a
time, so each temporary is one section's or one column's; the only intp
array is the sort order of one section's keys. An export formats at most
EXPORT_CHUNK_INTS ints at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import CapacityExceeded, InternalCheckError, ValidationError
from .groups import (
    VERTEX_CAP_DEFAULT,
    EntryPool,
    group_order,
    is_2_transitive,
    orbit,
    right_transversal,
)
from .perm import Permutation, parse_cycles
from .subdirect import SubdirectStructure
from .wreath import CoverGroupData, WreathElement


def _id_type(order: int) -> type:
    """The int type of vertex ids: int32 halves the graph's arrays."""
    return np.int32 if order <= np.iinfo(np.int32).max else np.int64


class _Fibre:
    """M = T^d as the fibre points f = sum_t (m at base b_t) · |T|^t.

    Entries are T's entry ids (`PermGroup.entries`), 0..|T|-1: a pool first
    takes in every element of T. Products, links and key order are read as
    maps over all the ids at once. The coordinates and key ranks are in the
    entry dtype, and fibre points in `dtype`, the vertex ids' rule.
    """

    def __init__(self, structure: SubdirectStructure):
        self.structure = structure
        self.entries = entries = structure.group.entries()
        if isinstance(entries, EntryPool):
            entries.fill()
        self.size = entries.size
        self.ids = np.arange(self.size, dtype=entries.dtype)
        # id -> place of its element's Permutation key (its images) in key
        # order: the image rows sorted by their first column, then the next
        self.rank = np.empty(self.size, dtype=entries.dtype)
        self.rank[np.lexsort(entries.image_rows(self.ids).T[::-1])] = self.ids
        self.bases = structure.bases.tolist()
        self.points = self.size ** len(self.bases)
        self.dtype = _id_type(self.points)
        # coordinate t of the points in order: each id for |T|^t points in
        # turn, the run repeated |T|^(d-1-t) times
        self.coords = [
            np.tile(np.repeat(self.ids, self.size**t), self.size ** (len(self.bases) - 1 - t))
            for t in range(len(self.bases))
        ]
        # per link id, link(t) for every id t; id 0 is the identity
        self.images = [self.ids] + [link.image(self.ids, entries) for link in structure.maps[1:]]

    def apply(self, z: WreathElement, left: bool) -> np.ndarray:
        """The fibre point of z·m (left) or m·z for every fibre point m; z in M."""
        out = np.zeros(self.points, dtype=self.dtype)
        for t, (b, coord) in enumerate(zip(self.bases, self.coords)):
            e = z.f[b]
            products = self.entries.product(e, self.ids) if left else self.entries.product(self.ids, e)
            out += (products.astype(self.dtype) * self.size**t)[coord]
        return out

    def key_columns(self, r: WreathElement) -> list[np.ndarray]:
        """Per component, the entry ranks of r·m over every fibre point m."""
        amap = r.ctx.comp_map(r.sigma)
        base_at = {b: t for t, b in enumerate(self.bases)}
        base_of, link_id = self.structure.base_of.tolist(), self.structure.link_id.tolist()
        cols = []
        for alpha, beta in enumerate(amap):
            # (r·m)(alpha) = r(alpha) · m(beta), m(beta) = link_beta(m at its base)
            ranks = self.rank[self.entries.product(r.f[alpha], self.images[link_id[beta]])]
            cols.append(ranks[self.coords[base_at[base_of[beta]]]])
        return cols


class CosetGraph:
    """The derived graph: vertex ids of the fibre points and sorted adjacency.

    `vertex[i, f]` is the id of H·c_(i+1)·m for the fibre point f of m,
    `adjacency` is an (order × valency) int array of sorted neighbour rows,
    and `m_gens` holds M's generating rows as base-only elements.
    """

    def __init__(self, data: CoverGroupData, structure: SubdirectStructure, seeds: list):
        ctx, n, g = data.ctx, data.ctx.n, data.g
        self.ctx = ctx
        self.structure = structure
        self.fibre = _Fibre(structure)
        self.m_gens = [ctx.from_assignment(row) for row in structure.generators]
        self.sections = [ctx.identity_element(), g] + [
            g * ctx.embed_top(parse_cycles(f"(2,{j})", n)) for j in range(3, n + 1)
        ]
        self._section_inverses = [c.inverse() for c in self.sections]
        self.valency = len(seeds)
        points = self.fibre.points
        ids = _id_type(n * points)
        self.vertex = np.empty((n, points), dtype=ids)
        for i, c in enumerate(self.sections):
            self._number_section(i, c)
        self.adjacency = np.empty((n * points, self.valency), dtype=ids)
        for i, c in enumerate(self.sections):
            tops = []
            for col, p in enumerate(seeds):
                j, v = self._split(p * c)
                tops.append(j)
                self.adjacency[self.vertex[i], col] = self.vertex[j][self.fibre.apply(v, True)]
            # neighbours in n-1 distinct tops other than i: no loop, no repeat
            if i in tops or len(set(tops)) != len(tops):
                raise InternalCheckError("neighbor cosets collide; H∩H^g is wrong")
        self.adjacency.sort(axis=1)
        _check_symmetric(self.adjacency)
        labels = _orbit_labels(list(self.adjacency.T), self.order)
        self.components = int(np.count_nonzero(labels == np.arange(self.order, dtype=ids)))

    @property
    def order(self) -> int:
        return len(self.adjacency)

    def _number_section(self, i: int, c: WreathElement) -> None:
        """Fill `vertex[i]`: the ids i·|M| on of the fibre points, in the
        order of their cosets' canonical keys, which must be distinct."""
        n, points = self.ctx.n, self.fibre.points
        # the least top in H·top(c_i) sends 1 to i and the rest in order;
        # vertex ids follow the keys, which start with that top
        least = Permutation([i + 1] + [p for p in range(1, n + 1) if p != i + 1])
        cols = self.fibre.key_columns(self.ctx.embed_top(least * c.sigma.inverse()) * c)
        order = np.lexsort(cols[::-1])
        # sorted keys are distinct iff each neighbouring pair differs in some
        # column, compared one column at a time
        differ = np.zeros(max(points - 1, 0), dtype=bool)
        for col in cols:
            keys = col[order]
            differ |= keys[1:] != keys[:-1]
        if not differ.all():
            raise InternalCheckError("two fibre points name one coset")
        self.vertex[i, order] = np.arange(i * points, (i + 1) * points, dtype=self.vertex.dtype)

    def _split(self, w: WreathElement) -> tuple[int, WreathElement]:
        """(j, v) with H·w = H·c_(j+1)·v and v in M, checked by membership."""
        top = w.sigma
        j = top.apply(1) - 1
        h = self.ctx.embed_top(top * self.sections[j].sigma.inverse())
        v = self._section_inverses[j] * (h.inverse() * w)
        if not v.sigma.is_identity() or not self.structure.contains(v.f):
            raise InternalCheckError("a voltage does not lie in M")
        return j, v

    def vertex_map(self, z: WreathElement) -> np.ndarray:
        """The vertex permutation Hw -> Hwz, for z in M or z centralizing M.

        For z in M it is (i, m) -> (i, m·z). For z centralizing M,
        H·c_i·m·z = H·c_i·z·m = H·c_j·m'·m with H·c_i·z = H·c_j·m'.
        Any other z is a ValidationError.
        """
        out = np.empty_like(self.vertex, shape=self.order)
        if z.sigma.is_identity():
            if not self.structure.contains(z.f):
                raise ValidationError("a base-only element outside M")
            moved = self.fibre.apply(z, False)
            for ids in self.vertex:
                out[ids] = ids[moved]
            return out
        # commuting is symmetric: z centralizes M iff every generator of M
        # commutes with z, tested for all of them at once
        if len(centralizer_elements(self.m_gens, [z])) != len(self.m_gens):
            raise ValidationError("element neither lies in M nor centralizes M")
        for i, c in enumerate(self.sections):
            j, m = self._split(c * z)
            out[self.vertex[i]] = self.vertex[j][self.fibre.apply(m, True)]
        return out


def build_coset_graph(
    data: CoverGroupData,
    structure: SubdirectStructure,
    vertex_cap: int = VERTEX_CAP_DEFAULT,
) -> CosetGraph:
    """Cos(Y, H, HgH) as the derived graph of K_n over M = T^d.

    `structure` is M's block structure (`RowSifter.structure` of the
    kernel generators). Every voltage must have a trivial top and lie in M,
    the n·|T|^d canonical keys must be distinct, and the adjacency symmetric,
    loop-free and (n-1)-regular; otherwise InternalCheckError. Raises
    CapacityExceeded before enumerating anything when n·|T|^d exceeds
    `vertex_cap`. `components` counts the connected components; the graph is
    connected exactly when the voltages generate all of T^d.
    """
    n = data.ctx.n
    expected = n * structure.order()
    if expected > vertex_cap:
        raise CapacityExceeded(
            f"expected {n}·{structure.group.order()}^{structure.block_count} vertices "
            f"({_digit_count(expected)} digits) exceeds the cap {vertex_cap}"
        )
    transversal = right_transversal(data.k_tops(), data.h_tops())[0]
    seeds = [data.g * data.ctx.embed_top(t) for t in transversal]
    return CosetGraph(data, structure, seeds)


def _digit_count(value: int) -> int:
    """The decimal digits of an int >= 1, without writing it out (n·|T|^d
    has 35,849 at n = 9): 0.301029 < log10(2), so the first guess from the
    bit length is at most the count."""
    digits = max(1, (value.bit_length() - 1) * 301029 // 1000000)
    while 10**digits <= value:
        digits += 1
    return digits


def _check_symmetric(adjacency: np.ndarray) -> None:
    """Every edge v -> u of the adjacency rows also appears as u -> v: for
    each column, u's row is searched for v one column at a time."""
    ids = np.arange(len(adjacency), dtype=adjacency.dtype)
    found, same = np.empty(len(adjacency), dtype=bool), np.empty(len(adjacency), dtype=bool)
    for heads in adjacency.T:
        found[:] = False
        for back in range(adjacency.shape[1]):
            found |= np.equal(adjacency[heads, back], ids, out=same)
        if not found.all():
            raise InternalCheckError("an edge of the coset graph has no reverse")


def _orbit_labels(columns: Sequence[np.ndarray], order: int) -> np.ndarray:
    """The least vertex of each vertex's class under the edges v -> col[v].

    For the columns of a symmetric adjacency the classes are the connected
    components; for permutations generating a finite group, its orbits
    (every orbit is strongly connected). Labels are pulled along the edges
    and then through themselves, in place, until nothing changes. A label
    only falls, so an unchanged sum is an unchanged array.
    """
    label = np.arange(order, dtype=_id_type(order))
    total = None
    while True:
        for col in columns:
            np.minimum(label, label[col], out=label)
        label[:] = label[label]
        before, total = total, int(label.sum(dtype=np.int64))
        if total == before:
            return label


def two_arc_transitive(
    h_gens: Sequence[Permutation], k_gens: Sequence[Permutation], degree: int
) -> dict:
    """Whether the coset graph is 2-arc-transitive under its defining group.

    Criterion: H acts 2-transitively on the right cosets of K = H ∩ H^g.
    K's generators `k_gens` fix 2 and |H| = |2^H|·|K| (stabilizer chains),
    so K is the stabilizer of 2 in H, and K·h -> 2^h carries H's action on
    the cosets to its action on the orbit of 2. That action is computed for
    the generators `h_gens` of H. InternalCheckError if K is not the
    stabilizer of 2.
    """
    points = orbit(2, h_gens, lambda p, h: h.apply(p))
    fixes_2 = all(s.apply(2) == 2 for s in k_gens)
    if not fixes_2 or group_order(h_gens, degree) != len(points) * group_order(k_gens, degree):
        raise InternalCheckError("K is not the stabilizer of 2 in H")
    number = {p: i for i, p in enumerate(points, start=1)}
    action_gens = [Permutation([number[h.apply(p)] for p in points]) for h in h_gens]
    return {"index": len(points), "two_transitive": is_2_transitive(action_gens, len(points))}


@dataclass(frozen=True)
class CoverCertificate:
    """Facts certifying that a quotient map is a local isomorphism."""

    quotient_order: int
    quotient_valency: int
    fibre_size: int
    locally_bijective: bool
    quotient_is_complete: bool
    quotient_adjacency: tuple[tuple[int, ...], ...]


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in increasing order, by a sort in place and a
    mask: in numpy 2 a plain `np.unique` imports `numpy.ma`, a start-up cost
    of its own, to test for a masked array."""
    values.sort()
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def quotient_graph(graph: CosetGraph, elements: Sequence[WreathElement]) -> CoverCertificate:
    """Quotient by the group generated by `elements`; certifies covering facts.

    The elements lie in M or centralize M, and act on the vertex ids through
    `graph.vertex_map` (otherwise ValidationError). The group must have all
    orbits of one size and no edge inside an orbit (as a normal subgroup of
    the cover group does); otherwise ValidationError. Local bijectivity is
    checked at every vertex. Orbits are numbered by their least vertex, in
    the vertex ids' dtype, and the adjacency is read one column at a time.
    """
    adjacency = graph.adjacency
    labels = _orbit_labels([graph.vertex_map(z) for z in elements], len(adjacency))
    # the labels are the orbits' least vertices: number them in increasing order
    number = np.zeros(len(labels), dtype=labels.dtype)
    number[labels] = 1
    np.cumsum(number, out=number)
    count = int(number[-1]) if len(number) else 0
    number -= 1
    orbit_of = number[labels]
    del labels, number
    sizes = np.bincount(orbit_of, minlength=count).tolist()
    if len(set(sizes)) != 1:
        raise ValidationError(f"orbit sizes differ ({sorted(set(sizes))}); not a cover action")
    seen = [orbit_of[col] for col in adjacency.T]
    if any((col == orbit_of).any() for col in seen):
        raise ValidationError(
            "an edge joins two vertices of one orbit; quotient would have a loop"
        )
    locally_bijective = all(
        not (seen[a] == seen[b]).any() for a in range(len(seen)) for b in range(a)
    )

    # an edge {a, b} of the quotient, a < b, as the code a·count + b
    code = _id_type(count * count)
    codes = _sorted_distinct(np.concatenate([
        _sorted_distinct(np.minimum(orbit_of, col).astype(code) * count + np.maximum(orbit_of, col))
        for col in seen
    ]))
    q_adj: list[list[int]] = [[] for _ in range(count)]
    for a, b in zip(*(x.tolist() for x in divmod(codes, count))):
        q_adj[a].append(b)
        q_adj[b].append(a)
    q_adj_t = tuple(tuple(sorted(nbrs)) for nbrs in q_adj)
    valencies = {len(nbrs) for nbrs in q_adj_t}
    q_valency = valencies.pop() if len(valencies) == 1 else -1
    complete = q_valency == count - 1 and all(len(nbrs) == count - 1 for nbrs in q_adj_t)
    return CoverCertificate(
        quotient_order=count,
        quotient_valency=q_valency,
        fibre_size=sizes[0],
        locally_bijective=locally_bijective,
        quotient_is_complete=complete,
        quotient_adjacency=q_adj_t,
    )


# ---------------------------------------------------------------------------
# invariants and exports
# ---------------------------------------------------------------------------


def graph_girth(
    adjacency: Sequence[Sequence[int]], roots: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Shortest cycle length, None if the graph is a forest.

    With `roots` given, only BFS trees at those vertices are examined; the
    result then lies between the girth and the shortest cycle through a root,
    so any single root is exact for a vertex-transitive graph. Default (all
    vertices) is exact for every graph. Rows may be sequences or numpy
    arrays; each visited row is read as Python ints.
    """
    best: Optional[int] = None
    order = len(adjacency)
    for root in roots if roots is not None else range(order):
        depth = {root: 0}
        parent = {root: -1}
        frontier = [root]
        d = 0
        while frontier:
            if best is not None and 2 * d >= best:
                break
            new_frontier = []
            for v in frontier:
                for u in map(int, adjacency[v]):
                    if u == parent[v]:
                        continue
                    if u in depth:
                        cycle = depth[v] + depth[u] + 1
                        if best is None or cycle < best:
                            best = cycle
                    else:
                        depth[u] = depth[v] + 1
                        parent[u] = v
                        new_frontier.append(u)
            frontier = new_frontier
            d += 1
    return best


def centralizer_elements(elements: Sequence[WreathElement], gens: Sequence) -> list:
    """The elements that commute with every generator, in order.

    u·z = (f_u·f_z[comp(σ_u)], σ_u·σ_z) and z·u = (f_z·f_u[comp(σ_z)],
    σ_z·σ_u), so z commutes with u iff the tops commute and the two bases
    agree: every element is tested at once, with one gather of u's base and
    one of the stacked bases of the elements per generator.
    """
    ctx = elements[0].ctx
    bases = np.stack([z.f for z in elements])
    comps = np.stack([ctx.comp_map(z.sigma) for z in elements])
    tops = np.array([z.sigma.images for z in elements]) - 1
    keep = np.ones(len(elements), dtype=bool)
    for u in gens:
        s = np.array(u.sigma.images) - 1
        keep &= (tops[:, s] == s[tops]).all(axis=1)
        left = ctx.entries.product(u.f, bases[:, ctx.comp_map(u.sigma)])
        keep &= (left == ctx.entries.product(bases, u.f[comps])).all(axis=1)
    return [z for z, ok in zip(elements, keep.tolist()) if ok]


EXPORT_CHUNK_INTS = 1 << 12


def export_chunks(adjacency: np.ndarray, fmt: str) -> Iterator[bytes]:
    """The deterministic text export of an (order × valency) int adjacency
    array: 'edge-list' ("u v" per line, 0-based, u < v, sorted) or
    'adjacency-text' ("v: n1 n2 ..." per line). It comes in pieces of whole
    rows that format at most EXPORT_CHUNK_INTS ints each (one row at least),
    so a large graph is never formatted whole."""
    if fmt not in ("edge-list", "adjacency-text"):
        raise ValidationError(f"unknown export format {fmt!r}")
    adjacency = np.asarray(adjacency)
    width = adjacency.shape[1]
    line = "%d: " + " ".join(["%d"] * width) + "\n"
    # a row formats at most two ints per neighbour as edges, or itself and
    # its neighbours as a line
    step = max(1, EXPORT_CHUNK_INTS // max(1, 2 * width if fmt == "edge-list" else width + 1))
    empty = True
    for start in range(0, len(adjacency), step):
        rows = adjacency[start:start + step]
        ids = np.arange(start, start + len(rows))[:, None]
        if fmt == "edge-list":
            # row-major order keeps v ascending, then u ascending in the sorted row
            upper = rows > ids
            pairs = np.stack([np.broadcast_to(ids, rows.shape)[upper], rows[upper]], axis=1)
            text = "%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist())
        else:
            text = line * len(rows) % tuple(np.hstack([ids, rows]).ravel().tolist())
        if text:
            empty = False
            yield text.encode()
    if empty:
        yield b"\n"
