"""Test oracles: the coset-graph BFS and the orbit quotient on group elements.

These are the generic constructions the derived-graph build replaced. The BFS
builds Cos(<H,g>, H, HgH) from the trivial coset, naming each coset Hw by its
element of least canonical key (`canonical_key`, `_Canonicalizer.rep`) and
numbering vertices by sorted canonical key; the quotient labels orbits by BFS
over products w*z. They work for any elements with `*`, `.inverse()` and
`.key()`: plain Permutations as well as wreath elements, as does
`conj_intersection`, H ∩ H^g by elements, over the wreath elements of H
(`CoverGroupData.h_elements`) and L (`l_elements`); the pipeline decides
K = L on L's generators (`wreath.twist_tops`), and the enumeration of L
it replaced is `cycle_oracle.twist_intersection`. So does
`centralizer_elements`, the one-element-at-a-time commutation test that
`cosetgraph.centralizer_elements` replaced, and `two_arc_transitive`, H's
action on a right transversal of K in H (`right_transversal`), both closed,
which `cosetgraph.two_arc_transitive` replaced by the action of H's
generators on the orbit of 2; the BFS seeds the graph by such a transversal
too, where the derived graph takes the sections g·(2,j). Its 2-transitivity
is decided by `orbit`, a BFS of its own on ordered pairs, where the pipeline
labels orbits with `groups.orbit_labels`. `fibre_element`
turns a fibre point f of the derived graph back into its element m_f of M,
so the two numberings can be compared: the derived graph's vertex
i·|M| + f is the oracle's vertex of c_(i+1)·m_f.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from arccover.cosetgraph import VERTEX_CAP_DEFAULT, CoverCertificate
from arccover.errors import CapacityExceeded, InternalCheckError, ValidationError
from arccover.groups import closure
from arccover.perm import Permutation
from arccover.wreath import WreathElement


def conj_intersection(h_elements: Sequence, g) -> list:
    """H ∩ H^g for an explicitly listed subgroup H and a group element g.

    H^g = g^-1 H g; membership is decided by serialized keys, so this works
    for any element type with `*`, `.inverse()` and `.key()`.
    """
    h_keys = {h.key() for h in h_elements}
    g_inv = g.inverse()
    # h in H^g = g^-1 H g iff g h g^-1 in H
    return [h for h in h_elements if (g * h * g_inv).key() in h_keys]


def right_transversal(
    subgroup_elements: Sequence, group_elements: Sequence
) -> tuple[list, dict[bytes, int]]:
    """Representatives of the right cosets K\\H, in H's listed order, and the
    position of each element's coset among them, by key."""
    coset_of: dict[bytes, int] = {}
    reps: list = []
    for h in group_elements:
        if h.key() in coset_of:
            continue
        for s in subgroup_elements:
            coset_of[(s * h).key()] = len(reps)
        reps.append(h)
    return reps, coset_of


def orbit(point, generators: Sequence, action) -> list:
    """The orbit of `point` under `generators` via `action(point, g)`, in
    BFS order."""
    out, seen = [point], {point}
    for p in out:  # grows while it is read: a FIFO queue
        for g in generators:
            q = action(p, g)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def is_2_transitive(generators: Sequence[Permutation], degree: int) -> bool:
    """Whether the pair (1, 2) reaches all degree·(degree - 1) ordered pairs
    of distinct points, by a BFS on pairs."""
    if degree < 2:
        return False
    pairs = orbit((1, 2), generators, lambda pq, g: (g.apply(pq[0]), g.apply(pq[1])))
    return len(pairs) == degree * (degree - 1)


def two_arc_transitive(h_elements: Sequence, k_elements: Sequence, h_gens: Sequence) -> dict:
    """Whether H acts 2-transitively on the right cosets of K, both given
    as element lists: the action of `h_gens` on a right transversal."""
    transversal, pos_of = right_transversal(k_elements, h_elements)
    index = len(transversal)
    action_gens = [
        Permutation([pos_of[(t * h).key()] + 1 for t in transversal]) for h in h_gens
    ]
    return {"index": index, "two_transitive": is_2_transitive(action_gens, index)}


def canonical_key(w) -> bytes:
    """The key cosets are named and vertices numbered by: a Permutation's
    own, or a wreath element's top images followed by its entries'
    Permutation keys in cycle order."""
    if isinstance(w, WreathElement):
        return bytes(w.sigma.images) + b"".join(w.ctx.entries.elem(e).key() for e in w.f.tolist())
    return w.key()


def centralizer_elements(elements: Sequence, gens: Sequence) -> list:
    """Members of an enumerated group commuting with every generator, by two
    products per element and generator."""
    return [u for u in elements if all((u * z).key() == (z * u).key() for z in gens)]


def l_elements(data) -> list[WreathElement]:
    """L = Sym{3..n} as wreath elements: the closure of its embedded tops."""
    ctx = data.ctx
    return closure([ctx.embed_top(s) for s in data.l_top_gens], ctx.identity_element())


class _Canonicalizer:
    """Canonical coset representatives, with a fast path for top-only subgroups.

    Generic path: the h*w of least key over all h in H. When every H element
    is a wreath element with trivial base part, the candidates h*w share no top
    part, keys sort by top part first, and the minimum is attained at a single
    h per top value of w: its top and position map are cached per top value,
    so a representative costs one reindex and no group arithmetic.
    """

    def __init__(self, h_elements: Sequence):
        self.h_elements = list(h_elements)
        self._tops = None
        first = self.h_elements[0]
        if isinstance(first, WreathElement):
            # a trivial base: every entry is the identity, id 0 in both formats
            if all(
                isinstance(h, WreathElement) and all(e == 0 for e in h.f.tolist())
                for h in self.h_elements
            ):
                self.ctx = first.ctx
                self._tops = [h.sigma for h in self.h_elements]
                # top images -> (least top, its position map), or () when the
                # minimizing h is the identity: w is then its own representative,
                # and () keeps that case apart from a miss (None)
                self._by_sigma: dict[tuple, tuple] = {}

    def rep(self, w):
        """The element of Hw with the least key."""
        if self._tops is None:
            return min((h * w for h in self.h_elements), key=canonical_key)
        sig = w.sigma
        entry = self._by_sigma.get(sig.images)
        if entry is None:
            best = min(self._tops, key=lambda t: (t * sig).images)
            entry = () if best.is_identity() else (best * sig, self.ctx.comp_map(best))
            self._by_sigma[sig.images] = entry
        if not entry:
            return w
        top, amap = entry
        f = w.f.tolist()
        return self.ctx.from_assignment([f[m] for m in amap.tolist()], top)


@dataclass
class CosetGraph:
    """An undirected regular graph on canonical coset representatives."""

    adjacency: list[tuple[int, ...]]
    reps: list
    index: dict[bytes, int]  # representative's canonical key -> vertex, in sorted order
    valency: int
    subgroup_order: int
    canon: _Canonicalizer

    @property
    def order(self) -> int:
        return len(self.adjacency)

    def index_of_key(self, key: bytes) -> int:
        idx = self.index.get(key)
        if idx is None:
            raise ValidationError("key does not name a vertex of this graph")
        return idx

    def vertex_of(self, w) -> int:
        return self.index_of_key(canonical_key(self.canon.rep(w)))


def build_coset_graph(
    h_elements: Sequence,
    g,
    vertex_cap: int = VERTEX_CAP_DEFAULT,
) -> CosetGraph:
    """BFS construction of Cos(<H,g>, H, HgH).

    Requires g^2 in H (so the double coset is symmetric and the graph
    undirected) and g not in H (no loops). Raises CapacityExceeded with
    progress counters if more than `vertex_cap` cosets appear.
    """
    h_keys = {h.key() for h in h_elements}
    if g.key() in h_keys:
        raise ValidationError("g lies in H: every edge would be a loop")
    if (g * g).key() not in h_keys:
        raise ValidationError("g^2 must lie in H for an undirected graph")

    kernel = conj_intersection(h_elements, g)
    transversal, _ = right_transversal(kernel, h_elements)
    seeds = [g * h for h in transversal]
    valency = len(seeds)

    canon = _Canonicalizer(h_elements)
    start = canon.rep(h_elements[0] * h_elements[0].inverse())
    key_index: dict[bytes, int] = {canonical_key(start): 0}
    reps = [start]
    adjacency: list[Optional[tuple[int, ...]]] = [None]
    frontier = [0]
    while frontier:
        next_frontier = []
        for v in frontier:
            w = reps[v]
            nbrs = []
            for p in seeds:
                u = canon.rep(p * w)
                uk = canonical_key(u)
                idx = key_index.get(uk)
                if idx is None:
                    idx = len(reps)
                    if idx >= vertex_cap:
                        raise CapacityExceeded(
                            f"coset graph exceeded vertex cap {vertex_cap}",
                            discovered=idx + 1,
                            frontier=len(next_frontier),
                        )
                    key_index[uk] = idx
                    reps.append(u)
                    adjacency.append(None)
                    next_frontier.append(idx)
                nbrs.append(idx)
            if len(set(nbrs)) != valency:
                raise InternalCheckError("neighbor cosets collide; H∩H^g is wrong")
            adjacency[v] = tuple(nbrs)
        frontier = next_frontier

    # renumber vertices by sorted canonical key; the discovery-order dict is
    # dropped before the sorted one is built, so the two never coexist
    order = len(reps)
    sorted_keys = sorted(key_index)
    remap = [0] * order
    for i, k in enumerate(sorted_keys):
        remap[key_index[k]] = i
    del key_index
    index = dict(zip(sorted_keys, range(order)))
    new_adj: list[tuple[int, ...]] = [()] * order
    new_reps = [None] * order
    for old in range(order):
        new_adj[remap[old]] = tuple(sorted(remap[t] for t in adjacency[old]))
        new_reps[remap[old]] = reps[old]
    graph = CosetGraph(
        adjacency=new_adj,
        reps=new_reps,
        index=index,
        valency=valency,
        subgroup_order=len(h_elements),
        canon=canon,
    )
    _check_symmetric(graph.adjacency)
    return graph


def _check_symmetric(adjacency: Sequence[Sequence[int]]) -> None:
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            if u == v:
                raise InternalCheckError(f"loop at vertex {v}")
            if v not in adjacency[u]:
                raise InternalCheckError(f"edge {v}->{u} has no reverse")


def quotient_graph(graph: CosetGraph, subgroup_gens: Sequence) -> CoverCertificate:
    """Quotient by the right action of a subgroup; certifies covering facts.

    The subgroup must act semiregularly with all orbits equal and no edge
    inside an orbit (as a normal subgroup of the cover group does); otherwise
    ValidationError. Local bijectivity is checked at every vertex.
    """
    order = graph.order
    orbit_of = [-1] * order
    orbit_count = 0
    sizes = []
    for start in range(order):
        if orbit_of[start] != -1:
            continue
        orbit_of[start] = orbit_count
        frontier = [start]
        size = 1
        while frontier:
            new_frontier = []
            for v in frontier:
                w = graph.reps[v]
                for z in subgroup_gens:
                    u = graph.vertex_of(w * z)
                    if orbit_of[u] == -1:
                        orbit_of[u] = orbit_count
                        size += 1
                        new_frontier.append(u)
                    elif orbit_of[u] != orbit_count:
                        raise InternalCheckError("orbits merged after labeling")
            frontier = new_frontier
        sizes.append(size)
        orbit_count += 1
    if len(set(sizes)) != 1:
        raise ValidationError(f"orbit sizes differ ({sorted(set(sizes))}); not a cover action")

    quotient_edges: set[tuple[int, int]] = set()
    locally_bijective = True
    for v in range(order):
        mine = orbit_of[v]
        seen_orbits = set()
        for u in graph.adjacency[v]:
            ou = orbit_of[u]
            if ou == mine:
                raise ValidationError(
                    "an edge joins two vertices of one orbit; quotient would have a loop"
                )
            seen_orbits.add(ou)
            quotient_edges.add((min(mine, ou), max(mine, ou)))
        if len(seen_orbits) != graph.valency:
            locally_bijective = False

    q_adj: list[list[int]] = [[] for _ in range(orbit_count)]
    for a, b in sorted(quotient_edges):
        q_adj[a].append(b)
        q_adj[b].append(a)
    q_adj_t = tuple(tuple(sorted(nbrs)) for nbrs in q_adj)
    valencies = {len(nbrs) for nbrs in q_adj_t}
    q_valency = valencies.pop() if len(valencies) == 1 else -1
    complete = q_valency == orbit_count - 1 and all(
        len(nbrs) == orbit_count - 1 for nbrs in q_adj_t
    )
    return CoverCertificate(
        quotient_order=orbit_count,
        quotient_valency=q_valency,
        fibre_size=sizes[0],
        locally_bijective=locally_bijective,
        quotient_is_complete=complete,
        quotient_adjacency=q_adj_t,
    )


def fibre_element(graph, f: int) -> WreathElement:
    """The element m of M at fibre point f of a derived graph: its entry ids
    at the block bases are f's digits, and the others follow by the links."""
    fibre, structure = graph.fibre, graph.structure
    entries = structure.group.entries()
    at_base = {b: int(coord[f]) for b, coord in zip(fibre.bases, fibre.coords)}
    row = []
    for base, link in zip(structure.base_of, structure.links):
        e = at_base[base]
        row.append(e if link is None else int(link.image(e, entries)))
    return graph.ctx.from_assignment(row)
