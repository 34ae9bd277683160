"""Group engine: orders, closures, orbits, automorphism extension.

Everything here is deterministic: BFS in generator order with FIFO frontiers
and dict insertion order. The one random source is the stabilizer chain's
sifting of product-replacement elements, and it is seeded; no certified fact
depends on it, as the chain's order and membership are exact whatever
elements were sifted (`StabilizerChain`). Groups are given by permutation
generators and handled through a stabilizer chain without enumeration; small
groups that are not natural alternating, and A5, are also enumerated as a
`TableGroup`, which multiplies its ids through the images of a base of T and
keeps a multiplication table only while they fit in one byte. Either way T's
entries are integer ids (`PermGroup.entries`) in the smallest unsigned dtype
holding |T| - 1 (`id_dtype`): table indices, or ids of the group's
`EntryPool`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CapacityExceeded, InternalCheckError, ValidationError
from .perm import Permutation, parse_cycles

ENUM_CAP_DEFAULT = 10_000_000
VERTEX_CAP_DEFAULT = 2_000_000  # largest coset graph a job builds by default
TABLE_CAP = 4000
# entries per batch of an integer temporary, in `wreath` and `subdirect`: a few
# hundred kB at most
BATCH_ENTRIES = 1 << 15


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


def closure_rows(group: "PermGroup", cap: int = ENUM_CAP_DEFAULT) -> np.ndarray:
    """The uint8 rows of 0-based images of the group's elements, in
    `closure`'s order, with no Permutation built: a BFS over the rows, whose
    product u·s is s's row read at u's images, each row met filed once
    (`DistinctRows`). Raises CapacityExceeded once more than `cap` rows are
    met."""
    degree = group.degree
    gens = np.array([g.images for g in group.generators], dtype=np.uint8).reshape(-1, degree) - 1
    rows = DistinctRows(degree, np.uint8)
    rows.add(np.arange(degree, dtype=np.uint8))
    done = 0
    while done < rows.count:
        frontier = rows.take(np.arange(done, rows.count))
        done = rows.count
        # row-major: for each element of the frontier, each generator in order
        for row in gens.T[frontier].transpose(0, 2, 1).reshape(-1, degree):
            rows.add(row)
        if rows.count > cap:
            raise CapacityExceeded(f"closure exceeded cap {cap}", discovered=rows.count)
    return rows.take(np.arange(rows.count))


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


def _point_action(point: int, g: Permutation) -> int:
    return g.apply(point)


# ---------------------------------------------------------------------------
# distinct rows of an entry matrix
# ---------------------------------------------------------------------------


def row_hash(row: np.ndarray) -> int:
    """The hash `DistinctRows` files a row under: of its bytes."""
    return hash(row.tobytes())


class DistinctRows:
    """Distinct rows of one width and dtype, numbered in the order they were
    first added, held in one matrix grown in place by a quarter as needed.

    A row is looked up by `row_hash`, and rows sharing a hash are told apart
    by comparing their bytes, so no copy of a row is kept as its key. The
    matrix grows without numpy's reference check, which a profiler's
    reference to the bound `resize` would fail; that is safe because no view
    of it leaves the class (`take` copies).
    """

    def __init__(self, width: int, dtype):
        self._matrix = np.empty((16, width), dtype=dtype)
        self._ids: dict[int, list[int]] = {}  # hash -> ids of the rows with it
        self.count = 0

    def find(self, row: np.ndarray) -> int:
        """The number of `row`, or -1 if it was never added."""
        for i in self._ids.get(row_hash(row), ()):
            if self._matrix[i].tobytes() == row.tobytes():
                return i
        return -1

    def add(self, row: np.ndarray) -> int:
        """The number of `row`, which is the next one if the row is new."""
        i = self.find(row)
        if i >= 0:
            return i
        if self.count == len(self._matrix):
            # in place (no second buffer); the new rows are zero-filled
            self._matrix.resize(
                (self.count + self.count // 4, self._matrix.shape[1]), refcheck=False
            )
        self._matrix[self.count] = row
        self._ids.setdefault(row_hash(row), []).append(self.count)
        self.count += 1
        return self.count - 1

    def take(self, ids: np.ndarray) -> np.ndarray:
        """A copy of the rows numbered `ids`, in that order."""
        return self._matrix[ids]


# ---------------------------------------------------------------------------
# stabilizer chain (Schreier-Sims with seeded sifting)
# ---------------------------------------------------------------------------


class StabilizerChain:
    """Base-and-strong-generating-set structure for a permutation group.

    Schreier-Sims: one master list of strong generators, level i uses the
    master generators fixing the first i base points, and every level's
    transversal is kept a whole orbit: a new strong generator extends the
    orbits of the levels it joins and no other. Supports exact order and
    membership for groups far too large to enumerate.

    Known-order stop: given a proven upper bound B on |<generators>|, the run
    ends as soon as the product of the basic orbit lengths |b_i^H_i| reaches
    B, where H_i is generated by the master generators fixing b_1..b_(i-1).
    This is exact: H_(i+1) <= (H_i)_(b_i) and no master generator fixes every
    base point, so the product never exceeds |<generators>| <= B, and equality
    makes every H_(i+1) = (H_i)_(b_i), a complete base and strong generating
    set. A product above B means B was no bound (InternalCheckError); a false
    bound the product meets exactly goes unseen, so B must be proven.

    With a bound, elements of the group drawn by a fixed-seed product
    replacement are sifted first, each non-trivial residue joining the
    master list. The argument above holds whatever elements were sifted, so
    the seed can change only the base and the time taken, not the order or
    membership. After SIFT_PATIENCE residues in a row sift to the identity
    (or with no bound), every Schreier generator is verified bottom-up: it
    must sift to the identity through the levels below, and a failure joins
    the master list and re-verifies from its own level. That decides the
    order when B is never reached.
    """

    SIFT_SEED = 0
    SIFT_PATIENCE = 16  # consecutive trivial residues before the full verification

    def __init__(
        self,
        generators: Sequence[Permutation],
        degree: int,
        order_bound: Optional[int] = None,
    ):
        self.degree = degree
        self.base: list[int] = []
        self.master: list[Permutation] = []
        self.transversals: list[dict[int, Permutation]] = []
        self._inverses: list[dict[int, Permutation]] = []  # of transversals[i]
        self._gens: list[list[Permutation]] = []  # per level, in master order
        self._bound = order_bound
        for g in generators:
            if not g.is_identity():
                self._add_strong_gen(g)
        if self._bound is not None:
            self._sift_random()
        if not self._bound_reached():
            self._verify_all()

    def _add_strong_gen(self, h: Permutation) -> int:
        """Add h to the master list and to the levels whose base prefix it
        fixes, extending their orbits; returns the deepest such level."""
        self.master.append(h)
        prefix = 0
        for b in self.base:
            if h.apply(b) != b:
                break
            prefix += 1
        if prefix == len(self.base):
            new_point = min(i for i, j in enumerate(h.images, start=1) if i != j)
            ident = Permutation.identity(self.degree)
            self.base.append(new_point)
            self.transversals.append({new_point: ident})
            self._inverses.append({new_point: ident})
            self._gens.append([])
        for i in range(prefix + 1):
            self._gens[i].append(h)
            self._extend_level(i, h)
        return prefix

    def _extend_level(self, i: int, h: Permutation) -> None:
        """Grow level i's orbit, closed under its generators before h joined
        them, to the orbit under all of them: BFS from the images under h."""
        transversal, gens = self.transversals[i], self._gens[i]
        new = []
        for p, u in list(transversal.items()):
            q = h.apply(p)
            if q not in transversal:
                transversal[q] = u * h
                new.append(q)
        for p in new:  # grows while it is read: the BFS frontier
            for s in gens:
                q = s.apply(p)
                if q not in transversal:
                    transversal[q] = transversal[p] * s
                    new.append(q)
        self._inverses[i].update((q, transversal[q].inverse()) for q in new)

    def _sift_below(self, level: int, g: Permutation) -> Permutation:
        for j in range(level, len(self.base)):
            if g.is_identity():
                return g
            rep_inv = self._inverses[j].get(g.apply(self.base[j]))
            if rep_inv is None:
                return g
            g = g * rep_inv
        return g

    def _bound_reached(self) -> bool:
        """True once the product of the basic orbit lengths equals the order
        bound (class docstring)."""
        if self._bound is None:
            return False
        product = self.order()
        if product > self._bound:
            raise InternalCheckError(
                f"basic orbit lengths multiply to {product}, above the order bound {self._bound}"
            )
        return product == self._bound

    def _sift_random(self) -> None:
        """Sift product-replacement elements until the bound is reached or
        SIFT_PATIENCE of them in a row leave no residue."""
        gens = self.master
        if not gens:
            return
        rng = random.Random(self.SIFT_SEED)
        slots = [gens[i % len(gens)] for i in range(max(10, len(gens)))]
        acc = Permutation.identity(self.degree)
        trivial = 0
        while trivial < self.SIFT_PATIENCE and not self._bound_reached():
            i, j = rng.sample(range(len(slots)), 2)
            slots[i] = slots[i] * slots[j]
            acc = acc * slots[i]
            residue = self._sift_below(0, acc)
            if residue.is_identity():
                trivial += 1
            else:
                trivial = 0
                self._add_strong_gen(residue)

    def _verify_all(self) -> None:
        i = len(self.base) - 1
        while i >= 0:
            gens_i = self._gens[i]
            transversal = self.transversals[i]
            inverses = self._inverses[i]
            restart_at = None
            for p in list(transversal):
                u_p = transversal[p]
                for s in gens_i:
                    schreier = u_p * s * inverses[s.apply(p)]
                    residue = self._sift_below(i + 1, schreier)
                    if residue.is_identity():
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
                if self._bound_reached():
                    return
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
        self._table: Optional[TableGroup] = None
        self._tabled: Optional[bool] = None  # whether `table()` builds one
        self._pool: Optional[EntryPool] = None

    @classmethod
    def from_cycle_strings(cls, texts: Sequence[str], degree: int) -> "PermGroup":
        return cls([parse_cycles(t, degree) for t in texts], degree)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> StabilizerChain:
        """The stabilizer chain, stopped at the order of A_degree when every
        generator is even, else at that of S_degree."""
        if self._chain is None:
            bound = math.factorial(self.degree)
            if self.degree > 1 and all(g.is_even() for g in self.generators):
                bound //= 2
            self._chain = StabilizerChain(self.generators, self.degree, order_bound=bound)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def subgroup_order(self, elements: Sequence[Permutation]) -> int:
        """|<elements>| for elements of this group, whose order bounds it."""
        if all(g.is_identity() for g in elements):
            return 1
        return StabilizerChain(elements, self.degree, order_bound=self.order()).order()

    def contains(self, g: Permutation) -> bool:
        return self.chain().contains(g)

    def table(self) -> Optional[TableGroup]:
        """The enumerated group (`TableGroup`), built once, or None: when
        |T| > TABLE_CAP, and for a natural alternating T whose ids need more
        than one byte (`id_dtype`; A7 and up), which needs no table for any
        fact it certifies and runs on its entry pool. Decided once per
        group."""
        if self._tabled is None:
            order = self.order()
            self._tabled = order <= TABLE_CAP and (
                id_dtype(order).itemsize == 1 or not is_natural_alternating(self)
            )
        if self._table is None and self._tabled:
            self._table = TableGroup(self)
        return self._table

    def entries(self) -> "TableGroup | EntryPool":
        """T's entries, integer ids with the identity 0: the table's, or
        else those of the group's one pool (`EntryPool`)."""
        table = self.table()
        if table is not None:
            return table
        if self._pool is None:
            self._pool = EntryPool(self)
        return self._pool

    def orbit_of(self, point: int) -> list[int]:
        return orbit(point, self.generators, _point_action)

    def is_transitive(self) -> bool:
        return len(self.orbit_of(1)) == self.degree


def group_order(generators: Sequence[Permutation], degree: int) -> int:
    if not any(not g.is_identity() for g in generators):
        return 1
    return StabilizerChain(generators, degree).order()


def decimal_string(value: int) -> str:
    """str(value) without the interpreter's limit on the digits of an int
    (4300 by default; 60^2520 has 4481). `decimal` is imported only for a
    value past that limit, so a job that formats none never loads it."""
    try:
        return str(value)
    except ValueError:
        import decimal

        return str(decimal.Decimal(value))


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
# enumerated groups with multiplication tables
# ---------------------------------------------------------------------------


def id_dtype(size: int) -> np.dtype:
    """The dtype of the entry ids of a T of order `size`, table indices or
    pool ids alike: the smallest unsigned one holding size - 1."""
    return np.min_scalar_type(size - 1)


def _orders(mat: np.ndarray) -> np.ndarray:
    """The order of each row of 0-based images: the lcm of the first return
    times of its points, from at most `degree` gathers."""
    count, degree = mat.shape
    returns = np.zeros((count, degree), dtype=np.int64)
    images = mat
    for step in range(1, degree + 1):
        back = (images == np.arange(degree)) & (returns == 0)
        returns[back] = step
        if returns.all():
            break
        images = np.take_along_axis(mat, images, axis=1)
    return np.lcm.reduce(returns, axis=1)


class TableGroup:
    """A small group held as an explicit element list, numbered by ids.

    `PermGroup.table` builds one for A5 and for a T up to TABLE_CAP elements
    that is not natural alternating; `TableGroup(group)` builds one for any
    T up to TABLE_CAP elements, A7 included.

    Elements are numbered in BFS order from the identity (id 0), found as
    image rows (`closure_rows`), and held as `images`, the uint8 matrix of
    their 0-based images (|T| × degree); `elem` builds an id's Permutation
    when asked. An
    element is fixed by its images of a base b_1..b_m of T (the stabilizer
    chain's), so an id is read off base images level by level (`_levels`):
    the distinct images of b_1..b_j are ranked, and the rank c of the images
    of b_1..b_(j-1) (0 for none) and the image of b_j give the slot
    c·degree + image of level j, which holds the rank of the images of
    b_1..b_j, or at the last level the id. So level j has at most
    |T|·degree slots. The product a·b sends b_j to b(a(b_j)), b's row read
    at a's base images, so it needs no |T|² array. When the ids fit in one
    byte (|T| <= 256) the products of all pairs are formed so once and kept
    as the table `mult` (64 KB at most), which a product reads in one take;
    with two-byte ids `mult` is None.

    Ids are in the entry `dtype` (`id_dtype`: uint8 up to |T| = 256, uint16
    up to TABLE_CAP); the arrays `inv` and `order_of` hold the ids' inverses
    and the element orders. With `product` and `inverse`, the entry
    arithmetic `EntryPool` shares, they are the workhorse for wreath base
    arithmetic and automorphism propagation. Arithmetic on ids widens them
    first (to intp), as a·|T| overflows the dtype.
    """

    def __init__(self, group: PermGroup):
        images = self.images = closure_rows(group, TABLE_CAP)  # CapacityExceeded past it
        self.group = group
        size = self.size = len(images)
        degree = self.degree = group.degree
        self.dtype = id_dtype(size)
        self._base = [b - 1 for b in group.chain().base]
        self._base_images = [np.ascontiguousarray(images[:, b]) for b in self._base]
        # level j: offset of the prefix before + image of b_j -> offset of the
        # prefix, a prefix's offset being its rank among the distinct
        # prefixes times degree; the last level gives the ids instead
        self._levels = []
        offset, count = np.zeros(size, dtype=np.intp), 1
        for column in self._base_images:
            key = offset + column
            distinct, rank = np.unique(key, return_inverse=True)
            level = np.zeros(count * degree, dtype=np.intp)
            level[distinct] = np.arange(len(distinct)) * degree
            self._levels.append(level)
            offset, count = rank * degree, len(distinct)
        if count != size:
            raise InternalCheckError(f"multiplication table: {size - count} elements share their base images")
        if self._levels:
            self._levels[-1] = np.zeros(len(self._levels[-1]), dtype=self.dtype)
            self._levels[-1][key] = np.arange(size)
        gens = np.array([g.images for g in group.generators], dtype=np.uint8).reshape(-1, degree) - 1
        self.gen_indices = tuple(self._lookup(gens).tolist())
        # row a·s is s's row read at a's images, (a·s)(i) = s(a(i)); BFS over
        # right multiplication by the generators must reach every row
        right = [self._lookup(images[s].take(images)) for s in self.gen_indices]
        reached, new = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while len(frontier):
            new[:] = False
            for r in right:
                new[r.take(frontier)] = True
            new &= ~reached
            reached |= new
            frontier = np.flatnonzero(new)
        if not reached.all():
            raise InternalCheckError(
                f"multiplication table: {size - np.count_nonzero(reached)} rows unreached"
            )
        ids = np.arange(size)
        self.mult = self._compose(ids[:, None], ids) if self.dtype.itemsize == 1 else None
        # a row's argsort is its inverse's images
        self.inv = self._lookup(np.argsort(images, axis=1).astype(np.uint8))
        if (self.product(ids, self.inv) != 0).any():
            raise InternalCheckError("multiplication table: an inverse is not one")
        self.order_of = _orders(images.astype(np.intp))

    def _ids(self, rows: np.ndarray) -> np.ndarray:
        """The ids whose base images are those of the 0-based image rows;
        a row outside T gets some id whose row differs from it."""
        at = np.zeros(rows.shape[:-1], dtype=self.dtype)
        for b, level in zip(self._base, self._levels):
            at = level.take(rows[..., b] + at)
        return at

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """The ids of the elements whose 0-based image rows are given."""
        ids = self._ids(rows)
        if not (self.images[ids] == rows).all():
            raise InternalCheckError("a product of two elements is not in the element list")
        return ids

    def _compose(self, a, b) -> np.ndarray:
        """The ids of a·b, broadcast: a·b sends each base point b_j to b's
        image of a(b_j), read from the image matrix flat at b·degree + a(b_j)."""
        if not self._levels:  # the trivial group: no base
            return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=self.dtype)
        flat, rows = self.images.reshape(-1), np.multiply(b, self.degree, dtype=np.intp)
        at = 0
        for column, level in zip(self._base_images, self._levels):
            at = level.take(flat.take(rows + column.take(a)) + at)
        return at

    def idx(self, p: Permutation) -> int:
        row = np.array(p.images, dtype=np.uint8) - 1
        if p.degree == self.degree:
            i = int(self._ids(row))
            if np.array_equal(self.images[i], row):
                return i
        raise ValidationError(f"element {p.cycle_string()} not in this group")

    def elem(self, i: int) -> Permutation:
        return Permutation((self.images[i] + 1).tolist())

    def image_rows(self, ids: np.ndarray) -> np.ndarray:
        """The uint8 rows of 0-based images of the ids."""
        return self.images.take(ids, axis=0)

    def multiply(self, a: int, b: int) -> int:
        return int(self.product(a, b))

    def invert(self, a: int) -> int:
        return self.inv.item(a)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The entrywise product a·b of two id arrays or scalars, broadcast.
        With one-byte ids: one take from the table read flat (a view) at
        a·|T| + b, formed in intp, as a·|T| overflows the table's dtype.
        Else through the base images (`_compose`)."""
        if self.mult is None:
            return self._compose(a, b)
        at = np.multiply(a, self.size, dtype=np.intp)
        # in place unless b broadcasts, or a is a scalar
        at = np.add(at, b, out=at if at.ndim and at.shape == np.shape(b) else None)
        return self.mult.reshape(-1).take(at)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self.inv.take(a)

    def generates(self, sources: Sequence[int]) -> bool:
        return bool(generating_rows(self, [list(sources)])[0])


class EntryPool:
    """The entries of a T without a table (natural alternating from A7 on, or
    larger than TABLE_CAP): its elements in the order they were met,
    numbered by ids in the table's dtype rule (`id_dtype`: uint16 for A7,
    uint32 for A11), the identity first (id 0).

    Each element is held once, as a uint8 row of its 0-based images
    (`DistinctRows`). `idx` is the only way in for an outside element and
    checks its membership when it is new; products, inverses and conjugates
    of entries lie in T and are interned unchecked. `product` composes each
    distinct pair of ids once and files it under the code a·2^w + b, w the
    ids' width (A7's codes are uint32), in a sorted pair cache; `inv` and
    `order_of` are computed once per id, and `conjugate` once per id and
    conjugator.
    """

    def __init__(self, group: PermGroup):
        self.group = group
        self.dtype = id_dtype(group.order())
        self._rows = DistinctRows(group.degree, np.uint8)
        self._rows.add(np.arange(group.degree, dtype=np.uint8))
        # sorted pair codes a·2^w + b, w the ids' width in bits (32 at most:
        # no pool holds more ids), held in twice that width, and the product
        # of each, from code 0: 1·1 = 1
        self._width = min(32, 8 * self.dtype.itemsize)
        self._pairs = np.zeros(1, dtype=f"u{self._width // 4}")
        self._pair_ids = np.zeros(1, dtype=self.dtype)
        self._inv, self._order = np.empty(0, dtype=self.dtype), np.empty(0, dtype=np.int64)
        self._conjugates: dict[tuple[int, ...], np.ndarray] = {}  # conjugator images -> per id
        self.conjugates_derived = 0

    @property
    def size(self) -> int:
        return self._rows.count

    def _intern(self, rows: np.ndarray) -> np.ndarray:
        return np.array([self._rows.add(r) for r in rows.astype(np.uint8)], dtype=self.dtype)

    def _per_id(self, cache: np.ndarray, compute: Callable) -> np.ndarray:
        """`cache` extended by `compute` over the rows of the ids it lacks."""
        while len(cache) < self.size:
            cache = np.concatenate([cache, compute(self._rows.take(np.arange(len(cache), self.size)))])
        return cache

    def idx(self, p: Permutation) -> int:
        row = np.array(p.images, dtype=np.uint8) - 1
        i = self._rows.find(row) if p.degree == self.group.degree else -1
        if i < 0 and not self.group.contains(p):
            raise ValidationError(f"element {p.cycle_string()} not in this group")
        return i if i >= 0 else self._rows.add(row)

    def elem(self, i: int) -> Permutation:
        return Permutation((self._rows.take(i) + 1).tolist())

    def image_rows(self, ids: np.ndarray) -> np.ndarray:
        """The uint8 rows of 0-based images of the ids."""
        return self._rows.take(ids)

    def fill(self) -> None:
        """Intern every element of T, unchecked, as they are products of its
        generators, in `closure`'s order (`closure_rows`); the ids are then
        0..|T|-1."""
        self._intern(closure_rows(self.group))

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The entrywise product a·b of two id arrays, broadcast."""
        w, code = self._width, self._pairs.dtype
        codes = np.asarray(a, dtype=code) << w | np.asarray(b, dtype=code)
        pairs, back = np.unique(codes.reshape(-1), return_inverse=True)
        at = np.searchsorted(self._pairs, pairs, side="right") - 1  # the last code <= each
        new = pairs[self._pairs[at] != pairs]
        if len(new):
            # (a·b)(i) = b(a(i)): b's row read at a's images
            first = self._rows.take(new >> w).astype(np.intp)
            ids = self._intern(np.take_along_axis(self._rows.take(new & (1 << w) - 1), first, axis=1))
            where = np.searchsorted(self._pairs, new)
            self._pairs = np.insert(self._pairs, where, new)
            self._pair_ids = np.insert(self._pair_ids, where, ids)
            at = np.searchsorted(self._pairs, pairs)
        return self._pair_ids[at][back].reshape(codes.shape)

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self.inv.take(a)

    @property
    def inv(self) -> np.ndarray:
        """The inverse of every id so far: a row's argsort is its inverse's images."""
        self._inv = self._per_id(self._inv, lambda rows: self._intern(np.argsort(rows, axis=1)))
        return self._inv

    @property
    def order_of(self) -> np.ndarray:
        """The order of every id so far; read it after a product, as the
        pool grows while one is formed."""
        self._order = self._per_id(self._order, lambda rows: _orders(rows.astype(np.intp)))
        return self._order

    def conjugate(self, a: np.ndarray, c: Permutation) -> np.ndarray:
        """The ids of t^c = c^-1·t·c for the ids a of t.

        A link's images never change, so each id's conjugate is derived once
        per conjugator and kept, in an int64 array grown with the pool (-1
        until derived). The ids a call lacks are derived in increasing
        order, as a derivation afresh would take them, so the pool numbers
        their conjugates alike. `conjugates_derived` counts derivations.
        """
        a = np.asarray(a)
        images = self._conjugates.get(c.images, np.empty(0, dtype=np.int64))
        if len(images) < self.size:
            images = np.concatenate([images, np.full(self.size - len(images), -1)])
            self._conjugates[c.images] = images
        out = images.take(a)
        missing = out < 0
        if missing.any():
            new = np.flatnonzero(np.bincount(a[missing]))  # once each, increasing; no numpy.ma
            s = np.array(c.images, dtype=np.intp) - 1
            rows = np.empty((len(new), len(s)), dtype=np.uint8)
            rows[:, s] = s[self._rows.take(new)]  # t^c sends c(i) to c(t(i))
            images[new] = self._intern(rows)
            self.conjugates_derived += len(new)
            out = images.take(a)
        return out.astype(self.dtype)


def conjugacy_classes(table: TableGroup) -> list[list[int]]:
    """The conjugacy classes as index lists, ordered by their least index
    (the identity's class first), each in BFS order from that index."""
    ids = np.arange(table.size)
    # per generator s, the map a -> s^-1·a·s over all ids
    maps = [table.product(table.product(table.invert(s), ids), s).tolist() for s in table.gen_indices]
    seen: set[int] = set()
    classes = []
    for a in range(table.size):
        if a in seen:
            continue
        cls = orbit(a, maps, lambda p, m: m[p])
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


@dataclass(frozen=True, eq=False)
class AutomorphismMap:
    """An automorphism of a group T over its entry ids (`PermGroup.entries`),
    in one of two exact representations.

    With a table: `lookup[i]` is the id of the image of id i, a read-only
    array in the entries' dtype. On an entry pool: the map t -> t^conjugator
    for a Permutation normalizing T (natural alternating groups, where every
    automorphism is induced this way).
    """

    lookup: Optional[np.ndarray] = None
    conjugator: Optional[Permutation] = None

    def image(self, ids: np.ndarray, entries: "TableGroup | EntryPool") -> np.ndarray:
        """The ids of the images of the entry ids `ids`: one lookup, or a
        pool conjugation."""
        if self.lookup is not None:
            return self.lookup.take(ids)
        return entries.conjugate(ids, self.conjugator)

    def key(self):
        """Equal for equal maps: the lookup's bytes or the conjugator's images."""
        return self.conjugator.images if self.lookup is None else self.lookup.tobytes()

    def inverse(self) -> "AutomorphismMap":
        if self.lookup is None:
            return AutomorphismMap(conjugator=self.conjugator.inverse())
        lookup = np.empty_like(self.lookup)
        lookup[self.lookup] = np.arange(len(lookup))
        lookup.flags.writeable = False
        return AutomorphismMap(lookup=lookup)

    def after(self, other: "AutomorphismMap") -> "AutomorphismMap":
        """This map composed after `other`: t -> self(other(t)). With
        t^c = c^-1·t·c, (t^a)^b = t^(a·b)."""
        if self.lookup is None:
            return AutomorphismMap(conjugator=other.conjugator * self.conjugator)
        lookup = self.lookup.take(other.lookup)
        lookup.flags.writeable = False
        return AutomorphismMap(lookup=lookup)


def _propagate(
    table: TableGroup, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The maps forced along the Cayley graph, one per row of `sources`.

    Row p starts from phi(1) = 1 and sets phi(a·s) = phi(a)·t for each source
    s = sources[p, i] with target t = targets[p, i], by BFS over all rows at
    once: each step follows every edge out of the elements first reached in
    the step before. Returns the int32 images, -1 outside <sources[p]>, and
    per row whether every edge out of a reached element agreed.

    The products are read from the right-multiplication columns of the
    distinct sources and targets v, a·v for every element a, formed by one
    `product` and read flat at a·|V| + the column of v: a few sources and
    targets, far fewer than |T| (at most 22 distinct ones in the calls of
    PSL(2,13)'s n = 7 decomposition).
    """
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    count, size, width = len(sources), table.size, sources.shape[1]
    values, column = np.unique(np.concatenate([sources, targets], axis=1).ravel(), return_inverse=True)
    column = column.reshape(count, 2 * width)
    right = table.product(np.arange(size)[:, None], values).reshape(-1)
    images = np.full(count * size, -1, dtype=np.int32)  # row p, element a at p·|T| + a
    images[::size] = 0
    consistent = np.ones(count, dtype=bool)
    rows, elems = np.arange(count), np.zeros(count, dtype=np.intp)
    reached = np.zeros(count * size, dtype=bool)
    while len(rows):
        at = rows * size
        phi = np.multiply(images[at + elems], len(values), dtype=np.intp)
        elems *= len(values)
        for s, t in zip(column[:, :width].T, column[:, width:].T):
            slot = at + right[elems + s[rows]]
            forced = right[phi + t[rows]]
            new = images[slot] < 0
            images[slot[new]] = forced[new]
            reached[slot[new]] = True
            consistent[rows[images[slot] != forced]] = False
        rows, elems = np.divmod(np.flatnonzero(reached), size)
        reached[:] = False
    return images.reshape(count, size), consistent


def generating_rows(table: TableGroup, sources: np.ndarray) -> np.ndarray:
    """Per row of element indices, whether they generate T."""
    images, _ = _propagate(table, sources, sources)
    return (images >= 0).all(axis=1)


def automorphism_lookups(
    table: TableGroup, sources: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Row p: the lookup of the unique automorphism of T with
    sources[p, i] -> targets[p, i] for every i, or a row of -1 if none.

    Every row of sources must generate T. The image of every element is then
    forced by propagation from phi(identity) = identity; edge consistency on
    all |T| * width edges makes phi a homomorphism, and it is bijective iff
    its kernel is trivial: iff the identity (index 0) is the image of one
    element only. A consistent row that leaves an element unreached
    proves that its sources do not generate T: ValidationError. (An
    inconsistent row has no homomorphism from <sources> at all, so it is a
    row of -1 whether or not its sources generate.) Rows are int32.
    """
    images, consistent = _propagate(table, sources, targets)
    if (consistent & (images < 0).any(axis=1)).any():
        raise ValidationError("sources do not generate the group")
    injective = np.count_nonzero(images == 0, axis=1) == 1
    images[~(consistent & injective)] = -1
    return images


def extend_to_automorphism(
    table: TableGroup, sources: Sequence[int], targets: Sequence[int]
) -> Optional[AutomorphismMap]:
    """The unique automorphism of T with sources[j] -> targets[j], or None.

    Requires `sources` to generate T (`automorphism_lookups`).
    """
    if len(sources) != len(targets):
        raise ValidationError("sources and targets must have equal length")
    lookup = automorphism_lookups(table, [list(sources)], [list(targets)])[0]
    if lookup[0] < 0:
        return None
    lookup = lookup.astype(table.dtype)
    lookup.flags.writeable = False
    return AutomorphismMap(lookup=lookup)


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
    if not all(g.is_even() for g in group.generators):
        return False
    return group.order() == math.factorial(p) // 2
