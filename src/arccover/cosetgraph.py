"""Coset graphs, their verification, and quotients down to complete graphs.

The graph Cos(Y, H, HgH) has the right cosets of H as vertices, with Hx ~ Hy
iff y x^-1 in HgH. It is built by BFS from the trivial coset: the neighbors
of Hw are H(g h w) for h ranging over a right transversal of H ∩ H^g in H.
Every coset Hw is identified by one canonical representative, the element of
Hw with the least serialized key (`_Canonicalizer.rep`); the same primitive
names the vertex of a product in the quotient and the coset of H ∩ H^g in the
2-arc-transitivity check. Vertices are renumbered by sorted representative key
after the BFS, so vertex ids do not depend on discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import CapacityExceeded, InternalCheckError, ValidationError
from .groups import conj_intersection, is_2_transitive, right_transversal
from .perm import Permutation
from .wreath import WreathElement

VERTEX_CAP_DEFAULT = 2_000_000


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
            ident = first.ctx.identity_entry
            if all(
                isinstance(h, WreathElement) and all(e == ident for e in h.f)
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
            return min((h * w for h in self.h_elements), key=lambda u: u.key())
        sig = w.sigma
        entry = self._by_sigma.get(sig.images)
        if entry is None:
            best = min(self._tops, key=lambda t: (t * sig).images)
            entry = () if best.is_identity() else (best * sig, self.ctx.comp_map(best))
            self._by_sigma[sig.images] = entry
        if not entry:
            return w
        top, amap = entry
        f = w.f
        return WreathElement(self.ctx, tuple([f[m] for m in amap]), top)


@dataclass
class CosetGraph:
    """An undirected regular graph on canonical coset representatives."""

    adjacency: list[tuple[int, ...]]
    reps: list
    index: dict[bytes, int]  # representative key -> vertex, in sorted key order
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
        return self.index_of_key(self.canon.rep(w).key())


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
    transversal = right_transversal(kernel, h_elements)
    seeds = [g * h for h in transversal]
    valency = len(seeds)

    canon = _Canonicalizer(h_elements)
    start = canon.rep(h_elements[0] * h_elements[0].inverse())
    key_index: dict[bytes, int] = {start.key(): 0}
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
                uk = u.key()
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


def two_arc_transitive(h_elements: Sequence, g, h_gens: Optional[Sequence] = None) -> dict:
    """Whether the coset graph is 2-arc-transitive under its defining group.

    Criterion: H acts 2-transitively on the cosets of K = H ∩ H^g. The coset
    action is computed for a generating set of H (defaults to all elements).
    """
    kernel = conj_intersection(h_elements, g)
    transversal = right_transversal(kernel, h_elements)
    index = len(transversal)
    canon = _Canonicalizer(kernel)
    pos_of = {canon.rep(t).key(): pos for pos, t in enumerate(transversal)}
    action_gens = []
    for h in h_gens if h_gens is not None else h_elements:
        images = [pos_of[canon.rep(t * h).key()] + 1 for t in transversal]
        action_gens.append(Permutation(images))
    ok = is_2_transitive(action_gens, index)
    return {"index": index, "two_transitive": ok}


@dataclass(frozen=True)
class CoverCertificate:
    """Facts certifying that a quotient map is a local isomorphism."""

    quotient_order: int
    quotient_valency: int
    fibre_size: int
    locally_bijective: bool
    quotient_is_complete: bool
    quotient_adjacency: tuple[tuple[int, ...], ...]


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


# ---------------------------------------------------------------------------
# invariants and exports
# ---------------------------------------------------------------------------


def graph_invariants(
    adjacency: Sequence[Sequence[int]], girth_roots: Optional[Sequence[int]] = None
) -> dict:
    """Order, valency (or -1 if irregular), component count, exact girth.

    `girth_roots` restricts the girth search to cycles through the given
    vertices; any single root is exact when the graph is vertex-transitive.
    """
    order = len(adjacency)
    valencies = {len(nbrs) for nbrs in adjacency}
    valency = valencies.pop() if len(valencies) == 1 else -1
    components = 0
    seen = bytearray(order)
    for v in range(order):
        if not seen[v]:
            components += 1
            seen[v] = 1
            frontier = [v]
            while frontier:
                new_frontier = []
                for a in frontier:
                    for b in adjacency[a]:
                        if not seen[b]:
                            seen[b] = 1
                            new_frontier.append(b)
                frontier = new_frontier
    return {
        "order": order,
        "valency": valency,
        "components": components,
        "girth": graph_girth(adjacency, girth_roots),
    }


def graph_girth(
    adjacency: Sequence[Sequence[int]], roots: Optional[Sequence[int]] = None
) -> Optional[int]:
    """Shortest cycle length, None if the graph is a forest.

    With `roots` given, only BFS trees at those vertices are examined; the
    result then lies between the girth and the shortest cycle through a root,
    so any single root is exact for a vertex-transitive graph. Default (all
    vertices) is exact for every graph.
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
                for u in adjacency[v]:
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


def centralizer_elements(elements: Sequence, gens: Sequence) -> list:
    """Members of an enumerated group commuting with every generator."""
    out = []
    for u in elements:
        if all((u * z).key() == (z * u).key() for z in gens):
            out.append(u)
    return out


def export_graph(adjacency: Sequence[Sequence[int]], fmt: str) -> bytes:
    """Deterministic text exports: 'edge-list' ("u v" per line, 0-based,
    u < v, sorted) or 'adjacency-text' ("v: n1 n2 ..." per line)."""
    if fmt == "edge-list":
        lines = []
        for v, nbrs in enumerate(adjacency):
            for u in nbrs:
                if v < u:
                    lines.append(f"{v} {u}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "adjacency-text":
        lines = [
            f"{v}: " + " ".join(map(str, nbrs)) for v, nbrs in enumerate(adjacency)
        ]
        return ("\n".join(lines) + "\n").encode()
    raise ValidationError(f"unknown export format {fmt!r}")