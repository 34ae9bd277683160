"""Group engine: orders, closures, orbits, transversals, automorphism extension.

Everything here is deterministic: BFS in generator order with FIFO frontiers,
dict insertion order, no randomness. Groups are given by permutation
generators; large groups are handled through a stabilizer chain without
enumeration, small groups may additionally carry a full multiplication table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityExceeded, InternalCheckError, ValidationError
from .perm import Permutation, parse_cycles

ENUM_CAP_DEFAULT = 10_000_000
TABLE_CAP = 4000


# ---------------------------------------------------------------------------
# generic BFS closure and orbits
# ---------------------------------------------------------------------------


def closure(generators: Sequence, identity, cap: int = ENUM_CAP_DEFAULT) -> list:
    """All products of `generators`, by BFS from the identity.

    Works for any elements with `*` and `.key()`. Deterministic: elements
    appear in BFS discovery order, identity first. Raises CapacityExceeded
    once more than `cap` elements are discovered.
    """
    elements = [identity]
    seen = {identity.key()}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for u in frontier:
            for g in generators:
                w = u * g
                k = w.key()
                if k not in seen:
                    seen.add(k)
                    elements.append(w)
                    new_frontier.append(w)
                    if len(elements) > cap:
                        raise CapacityExceeded(
                            f"closure exceeded cap {cap}",
                            discovered=len(elements),
                            frontier=len(new_frontier),
                        )
        frontier = new_frontier
    return elements


def orbit(point, generators: Sequence, action: Callable) -> list:
    """Orbit of `point` under `generators` via `action(point, g)`, BFS order."""
    out = [point]
    seen = {point}
    frontier = [point]
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in generators:
                q = action(p, g)
                if q not in seen:
                    seen.add(q)
                    out.append(q)
                    new_frontier.append(q)
        frontier = new_frontier
    return out


def orbit_with_transversal(point, generators: Sequence, action: Callable, identity):
    """Orbit plus coset representatives u_q with action(point, u_q) = q."""
    reps = {point: identity}
    out = [point]
    frontier = [point]
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in generators:
                q = action(p, g)
                if q not in reps:
                    reps[q] = reps[p] * g
                    out.append(q)
                    new_frontier.append(q)
        frontier = new_frontier
    return out, reps


def _point_action(point: int, g: Permutation) -> int:
    return g.apply(point)


# ---------------------------------------------------------------------------
# stabilizer chain (deterministic Schreier-Sims with sifting)
# ---------------------------------------------------------------------------


class StabilizerChain:
    """Base-and-strong-generating-set structure for a permutation group.

    Deterministic Schreier-Sims: one master list of strong generators, level i
    uses the master generators fixing the first i base points, levels are
    verified bottom-up (every Schreier generator must sift to the identity
    through the levels below; failures join the master list and re-verify from
    their own level). Supports exact order and membership for groups far too
    large to enumerate.
    """

    def __init__(self, generators: Sequence[Permutation], degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.master: list[Permutation] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._seen: set[bytes] = set()
        for g in generators:
            if not g.is_identity():
                self._add_strong_gen(g)
        self._verify_all()

    def _add_strong_gen(self, h: Permutation) -> int:
        """Add h to the master list; returns the deepest level whose gens changed."""
        self.master.append(h)
        self._seen.add(h.key())
        prefix = 0
        for b in self.base:
            if h.apply(b) != b:
                break
            prefix += 1
        if prefix == len(self.base):
            new_point = min(i for i, j in enumerate(h.images, start=1) if i != j)
            self.base.append(new_point)
            self.transversals.append({})
        return prefix

    def _level_gens(self, i: int) -> list[Permutation]:
        prefix = self.base[:i]
        return [
            g for g in self.master if all(g.apply(b) == b for b in prefix)
        ]

    def _sift_below(self, level: int, g: Permutation) -> Permutation:
        for j in range(level, len(self.base)):
            if g.is_identity():
                return g
            rep = self.transversals[j].get(g.apply(self.base[j]))
            if rep is None:
                return g
            g = g * rep.inverse()
        return g

    def _verify_all(self) -> None:
        i = len(self.base) - 1
        while i >= 0:
            gens_i = self._level_gens(i)
            _, transversal = orbit_with_transversal(
                self.base[i], gens_i, _point_action, Permutation.identity(self.degree)
            )
            self.transversals[i] = transversal
            restart_at = None
            for p in list(transversal):
                u_p = transversal[p]
                for s in gens_i:
                    schreier = u_p * s * transversal[s.apply(p)].inverse()
                    residue = self._sift_below(i + 1, schreier)
                    if residue.is_identity() or residue.key() in self._seen:
                        continue
                    restart_at = self._add_strong_gen(residue)
                    break
                if restart_at is not None:
                    break
            if restart_at is not None:
                # the residue fixes base[0..i], so it lives strictly below i;
                # levels deeper than restart_at are untouched and stay verified
                if restart_at <= i:
                    raise InternalCheckError("sifted residue moved an upper base point")
                i = restart_at
            else:
                i -= 1

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self._sift_below(0, g).is_identity()


# ---------------------------------------------------------------------------
# group handle
# ---------------------------------------------------------------------------


class PermGroup:
    """A permutation group given by generators, with cached derived data."""

    def __init__(self, generators: Iterable[Permutation], degree: Optional[int] = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValidationError("degree required for an empty generating set")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValidationError("generator degree mismatch")
        self.generators = tuple(g for g in gens if not g.is_identity())
        self.degree = degree
        self._chain: Optional[StabilizerChain] = None
        self._elements: Optional[tuple[Permutation, ...]] = None
        self._index: Optional[dict[bytes, int]] = None
        self._table: Optional[TableGroup] = None

    @classmethod
    def from_cycle_strings(cls, texts: Sequence[str], degree: int) -> "PermGroup":
        return cls([parse_cycles(t, degree) for t in texts], degree)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Permutation) -> bool:
        return self.chain().contains(g)

    def elements(self, cap: int = ENUM_CAP_DEFAULT) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = tuple(closure(self.generators, self.identity, cap))
        if len(self._elements) > cap:
            raise CapacityExceeded(
                f"group order {len(self._elements)} exceeds cap {cap}",
                discovered=len(self._elements),
            )
        return self._elements

    def table(self) -> Optional[TableGroup]:
        """The multiplication table, built once; None when |T| > TABLE_CAP.

        Whether it exists fixes T's entry format everywhere: table indices
        with a table, Permutations without one.
        """
        if self._table is None and self.order() <= TABLE_CAP:
            self._table = TableGroup(self)
        return self._table

    def element_index(self) -> dict[bytes, int]:
        """The element index of each element by key: its position in
        `elements()`, which is also its table index."""
        if self._index is None:
            self._index = {p.key(): i for i, p in enumerate(self.elements())}
        return self._index

    def key_ranks(self) -> np.ndarray:
        """The place in key order of each element index."""
        keys = [p.key() for p in self.elements()]
        ranks = np.empty(len(keys), dtype=np.int64)
        ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
        return ranks

    def product_map(self, e, left: bool) -> np.ndarray:
        """The element index of e*t (left) or t*e for every element index t.

        `e` is an entry of T: a table index, or a Permutation when there is
        no table, whose products are then taken one by one.
        """
        table = self.table()
        if table is not None:
            return table.mult[e] if left else table.mult[:, e]
        index = self.element_index()
        return np.array([index[(e * t if left else t * e).key()] for t in self.elements()])

    def orbit_of(self, point: int) -> list[int]:
        return orbit(point, self.generators, _point_action)

    def is_transitive(self) -> bool:
        return len(self.orbit_of(1)) == self.degree


def group_order(generators: Sequence[Permutation], degree: int) -> int:
    if not any(not g.is_identity() for g in generators):
        return 1
    return StabilizerChain(generators, degree).order()


# ---------------------------------------------------------------------------
# action predicates
# ---------------------------------------------------------------------------


def is_2_transitive(generators: Sequence[Permutation], degree: int) -> bool:
    """True iff the group is 2-transitive on 1..degree.

    BFS on ordered pairs under the generators; 2-transitive iff the pair
    (1, 2) reaches all degree*(degree-1) ordered pairs of distinct points.
    """
    if degree < 2:
        return False

    def act(pair, g: Permutation):
        return (g.apply(pair[0]), g.apply(pair[1]))

    reached = orbit((1, 2), generators, act)
    return len(reached) == degree * (degree - 1)


# ---------------------------------------------------------------------------
# subgroup utilities on explicit element lists
# ---------------------------------------------------------------------------


def conj_intersection(h_elements: Sequence, g) -> list:
    """H ∩ H^g for an explicitly listed subgroup H and a group element g.

    H^g = g^-1 H g; membership is decided by serialized keys, so this works
    for any element type with `*`, `.inverse()` and `.key()`.
    """
    h_keys = {h.key() for h in h_elements}
    g_inv = g.inverse()
    out = []
    for h in h_elements:
        # h in H^g = g^-1 H g iff g h g^-1 in H
        if (g * h * g_inv).key() in h_keys:
            out.append(h)
    return out


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


# ---------------------------------------------------------------------------
# enumerated groups with multiplication tables
# ---------------------------------------------------------------------------


class TableGroup:
    """A small group held as an explicit element list with index tables.

    Elements are indexed in BFS order from the identity (index 0). `mult` is
    the int32 array of index products, `mult[a, b]` = index of a*b, and
    `mult_flat` a flat view of the same buffer for scalar reads; `inv` holds
    the index inverses. These are the workhorse for wreath base arithmetic and
    automorphism propagation.
    """

    def __init__(self, group: PermGroup, cap: int = TABLE_CAP):
        elems = group.elements(cap)
        if len(elems) > cap:
            raise CapacityExceeded("group too large for a multiplication table")
        self.group = group
        self.elements = elems
        size = self.size = len(elems)
        self.elem_bytes = tuple(p.key() for p in elems)
        self.index = group.element_index()
        self.gen_indices = tuple(self.index[g.key()] for g in group.generators)
        # images matrix: rows = elements, columns = points (0-based values)
        mat = np.array([p.images for p in elems], dtype=np.intp) - 1
        # per generator s: right[a] = idx(a*s), left[b] = idx(s*b), where
        # (a*b)(i) = b(a(i)); these are the only products looked up
        maps = [
            (self._lookup(mat[s][mat]).tolist(), self._lookup(mat[:, mat[s]]))
            for s in self.gen_indices
        ]
        # by associativity (a*s)*b = a*(s*b): row a*s is row a read through
        # left; BFS over right multiplication reaches every row from row 0
        mult = np.empty((size, size), dtype=np.int32)
        mult[0] = np.arange(size)
        filled = [False] * size
        filled[0] = True
        rows = [0]
        for a in rows:
            for right, left in maps:
                t = right[a]
                if not filled[t]:
                    filled[t] = True
                    np.take(mult[a], left, out=mult[t])
                    rows.append(t)
        if len(rows) != size:
            raise InternalCheckError(
                f"multiplication table: {size - len(rows)} rows unreached"
            )
        self.mult = mult
        self.mult_flat = memoryview(mult.reshape(-1))
        inv_rows, inv = np.nonzero(mult == 0)
        if not np.array_equal(inv_rows, np.arange(size)):
            raise InternalCheckError("multiplication table: identity not once per row")
        self.inv = tuple(inv.tolist())
        self.order_of = tuple(p.order() for p in elems)

    def _lookup(self, images: np.ndarray) -> np.ndarray:
        """Indices of the elements whose 0-based image rows are given."""
        keys = (images + 1).astype(np.uint8)
        try:
            return np.array([self.index[r.tobytes()] for r in keys], dtype=np.intp)
        except KeyError:
            raise InternalCheckError("a product of two elements is not in the element list")

    def idx(self, p: Permutation) -> int:
        try:
            return self.index[p.key()]
        except KeyError:
            raise ValidationError(f"element {p.cycle_string()} not in this group")

    def elem(self, i: int) -> Permutation:
        return self.elements[i]

    def multiply(self, a: int, b: int) -> int:
        return self.mult_flat[a * self.size + b]

    def invert(self, a: int) -> int:
        return self.inv[a]

    def generated_indices(self, sources: Sequence[int]) -> set[int]:
        """Index set of the subgroup generated by the given element indices."""
        seen = {0}
        frontier = [0]
        size = self.size
        mf = self.mult_flat
        while frontier:
            new_frontier = []
            for a in frontier:
                base = a * size
                for s in sources:
                    b = mf[base + s]
                    if b not in seen:
                        seen.add(b)
                        new_frontier.append(b)
            frontier = new_frontier
        return seen

    def generates(self, sources: Sequence[int]) -> bool:
        return len(self.generated_indices(sources)) == self.size


def conjugacy_classes(table: TableGroup) -> list[list[int]]:
    """The conjugacy classes as index lists, ordered by their least index
    (the identity's class first), each in BFS order from that index."""
    seen: set[int] = set()
    classes = []
    for a in range(table.size):
        if a in seen:
            continue
        cls = orbit(
            a,
            table.gen_indices,
            lambda p, s: table.multiply(table.multiply(table.invert(s), p), s),
        )
        seen.update(cls)
        classes.append(cls)
    return classes


def class_sizes_force_simple(sizes: Sequence[int], order: int) -> bool:
    """True when no union of conjugacy classes that contains the identity's
    class (sizes[0]), other than that class and the whole group, has an
    order dividing `order`. Every normal subgroup is such a union, so the
    group is then simple; False decides nothing."""
    sums = 1  # bit t: some set of non-identity classes holds t elements
    for size in sizes[1:]:
        sums |= sums << size
    return not any(sums >> (d - 1) & 1 for d in range(2, order) if order % d == 0)


def is_nonabelian_simple(table: TableGroup) -> bool:
    """Exact simplicity check: by class sizes alone when they leave no room
    for a proper normal subgroup, else every nontrivial class must generate
    G (the subgroup it generates is its normal closure)."""
    gens = table.gen_indices
    nonabelian = any(
        table.multiply(a, b) != table.multiply(b, a) for a in gens for b in gens
    )
    if not nonabelian:
        return False
    classes = conjugacy_classes(table)
    if class_sizes_force_simple([len(c) for c in classes], table.size):
        return True
    return all(table.generates(c) for c in classes[1:])


# ---------------------------------------------------------------------------
# automorphism maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AutomorphismMap:
    """An automorphism of a group T, in one of two exact representations.

    Table-backed: `lookup[i]` is the image index of element i over a
    TableGroup enumeration. Conjugation-backed: the map is t -> t^conjugator
    for a Permutation normalizing T (used for natural alternating groups,
    where every automorphism is induced this way).
    """

    table: Optional[TableGroup] = None
    lookup: Optional[tuple[int, ...]] = None
    conjugator: Optional[Permutation] = None

    def apply_index(self, i: int) -> int:
        if self.lookup is None:
            raise InternalCheckError("not a table-backed automorphism")
        return self.lookup[i]

    def apply(self, t: Permutation) -> Permutation:
        if self.conjugator is not None:
            return t.conjugate(self.conjugator)
        return self.table.elem(self.lookup[self.table.idx(t)])

    def lookup_array(self, group: PermGroup) -> np.ndarray:
        """The element index of the image of every element index of T."""
        if self.lookup is not None:
            return np.asarray(self.lookup, dtype=np.int32)
        index = group.element_index()
        return np.array([index[self.apply(t).key()] for t in group.elements()])


def extend_to_automorphism(
    table: TableGroup, sources: Sequence[int], targets: Sequence[int]
) -> Optional[AutomorphismMap]:
    """The unique automorphism of T with sources[j] -> targets[j], or None.

    Requires `sources` to generate T (ValidationError otherwise). The image
    of every element is forced by propagation along the Cayley graph from
    phi(identity) = identity; edge consistency on all |T| * len(sources)
    edges plus bijectivity is equivalent to full multiplicativity.
    """
    if len(sources) != len(targets):
        raise ValidationError("sources and targets must have equal length")
    if not table.generates(sources):
        raise ValidationError("sources do not generate the group")
    size = table.size
    mf = table.mult_flat
    lookup = [-1] * size
    lookup[0] = 0
    frontier = [0]
    while frontier:
        new_frontier = []
        for a in frontier:
            fa = lookup[a]
            base = a * size
            fbase = fa * size
            for s, t in zip(sources, targets):
                b = mf[base + s]
                fb = mf[fbase + t]
                if lookup[b] == -1:
                    lookup[b] = fb
                    new_frontier.append(b)
                elif lookup[b] != fb:
                    return None
        frontier = new_frontier
    if -1 in lookup or len(set(lookup)) != size:
        return None
    return AutomorphismMap(table=table, lookup=tuple(lookup))


def conjugating_permutations(
    sources: Sequence[Permutation], targets: Sequence[Permutation], degree: int
) -> list[Permutation]:
    """All b in Sym(degree) with sources[j]^b = targets[j] for every j.

    Exact search by constraint propagation: fixing b(1) forces b along the
    orbit of 1 under <sources> (which must be transitive). Every candidate is
    verified in full before being returned.
    """
    if len(sources) != len(targets):
        raise ValidationError("sources and targets must have equal length")
    if len(orbit(1, sources, _point_action)) != degree:
        raise ValidationError("sources must act transitively for the conjugator search")
    out = []
    for first in range(1, degree + 1):
        images = [0] * (degree + 1)
        images[1] = first
        frontier = [1]
        ok = True
        assigned = 1
        while frontier and ok:
            new_frontier = []
            for i in frontier:
                for s, t in zip(sources, targets):
                    j = s.apply(i)
                    forced = t.apply(images[i])
                    if images[j] == 0:
                        images[j] = forced
                        assigned += 1
                        new_frontier.append(j)
                    elif images[j] != forced:
                        ok = False
                        break
                if not ok:
                    break
            frontier = new_frontier
        if not ok or assigned != degree:
            continue
        body = images[1:]
        if sorted(body) != list(range(1, degree + 1)):
            continue
        b = Permutation(body)
        if all(s.conjugate(b) == t for s, t in zip(sources, targets)):
            out.append(b)
    return out


def is_natural_alternating(group: PermGroup) -> bool:
    """True iff the group is A_p in its natural degree-p action, p >= 5, p != 6.

    For these, every abstract automorphism is conjugation by an element of
    S_p, and distinct conjugators induce distinct automorphisms.
    """
    p = group.degree
    if p < 5 or p == 6:
        return False
    if not group.is_transitive():
        return False
    for g in group.generators:
        even = sum(len(c) - 1 for c in g.cycles()) % 2 == 0
        if not even:
            return False
    return group.order() == math.factorial(p) // 2
