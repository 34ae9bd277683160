"""The wreath-product construction over the domain of full cycles.

Elements are pairs (f, sigma): sigma permutes {1..n}, and f assigns an element
of T, as its entry id (`PermGroup.entries`), to every n-cycle (1, i2, ..., in),
indexed in the canonical lex order. Multiplication twists by the conjugation
action of sigma on the cycle domain:

    (f1, s1) * (f2, s2) = (alpha -> f1(alpha) * f2(alpha^s1), s1*s2)
    (f, s)^-1           = (alpha -> f(alpha^(s^-1))^-1,        s^-1)

The cover group Y is generated by a copy of Sym{2..n} (trivial assignments)
together with one twisted swap g = (f, (1,2)) whose assignment depends only on
each cycle's class index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExhausted, CapacityExceeded, InternalCheckError, ValidationError
from .groups import (
    ENUM_CAP_DEFAULT,
    PermGroup,
    closure,
    is_natural_alternating,
    is_nonabelian_simple,
)
from .perm import Permutation, parse_cycles

MATERIALIZE_LIMIT = 10  # largest n for which wreath elements may be built


def _is_odd_prime(m: int) -> bool:
    if m < 3 or m % 2 == 0:
        return False
    return all(m % d for d in range(3, int(m**0.5) + 1, 2))


@lru_cache(maxsize=None)
def _cycle_domain(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The full cycles of degree n as read-only (walk, place) arrays; see
    `WreathContext`."""
    walk = np.array([(0,) + tail for tail in itertools.permutations(range(1, n))], dtype=np.uint8)
    place = np.empty_like(walk)
    place[np.arange(len(walk))[:, None], walk] = np.arange(n, dtype=np.uint8)
    walk.flags.writeable = place.flags.writeable = False
    return walk, place


class WreathContext:
    """Shared data for wreath elements at a fixed n over a fixed group T.

    The k = (n-1)! full cycles (1, i2, ..., in) are held once per n as two
    k × n uint8 arrays of 0-based points. `walk[i, j]` is the point j steps
    from 1 along cycle i, and `place`, its inverse, counts the steps from 1
    to each point: place[i, walk[i, j]] = j. Cycles are indexed in the lex
    order of their walks, that is of their tails (i2, ..., in); a cycle's
    index is the rank of its walk (`position`), and its class, the number
    of steps from 1 to 2, is place[:, 1].

    A base is a row of T's entry ids, one per cycle, in `dtype`, and
    `entries` is T's entry arithmetic (`PermGroup.entries`): table indices
    when T has a table, ids of its pool when it has none (T too large to
    enumerate). The identity is 0 in both.
    """

    def __init__(self, n: int, group: PermGroup):
        if not 3 <= n <= MATERIALIZE_LIMIT:
            raise ValidationError(
                f"wreath elements materialize only for 3 <= n <= {MATERIALIZE_LIMIT}, got {n}"
            )
        self.n = n
        self.walk, self.place = _cycle_domain(n)
        self.k = len(self.walk)
        self.entries = group.entries()
        self.dtype = self.entries.dtype
        self._comp_maps: dict[tuple[int, ...], np.ndarray] = {}
        self.identity_row = self.row(np.zeros(self.k))

    def row(self, entries: Sequence) -> np.ndarray:
        """A read-only row of entry ids in T's entry dtype."""
        row = np.array(entries, dtype=self.dtype)
        row.setflags(write=False)
        return row

    def position(self, alpha: Permutation) -> int:
        """The index of the full cycle alpha: the rank of its walk from 1,
        which is its one cycle in `Permutation.cycles`. Raises
        ValidationError if alpha is not a full cycle of degree n."""
        cycles = alpha.cycles()
        if alpha.degree != self.n or len(cycles) != 1 or len(cycles[0]) != self.n:
            raise ValidationError(f"not a full cycle of degree {self.n}: {alpha.cycle_string()}")
        return int(_lehmer_ranks(np.array(cycles) - 1)[0])

    def comp_map(self, sigma: Permutation) -> np.ndarray:
        """Positions under conjugation, as a read-only intp array:
        comp_map(s)[i] is the index of cycle i's conjugate s^-1·α·s.

        That conjugate sends s(p) to s(α(p)), so its walk from 1 is α's walk
        from s^-1(1) with every point moved by s: each walk rotated to start
        at s^-1(1), gathered through s's images, and numbered by rank.
        """
        cached = self._comp_maps.get(sigma.images)
        if cached is None:
            n = self.n
            s = np.array(sigma.images, dtype=np.uint8) - 1
            turns = (self.place[:, sigma.images.index(1), None] + np.arange(n)) % n
            cached = _lehmer_ranks(s[np.take_along_axis(self.walk, turns, axis=1)])
            cached.setflags(write=False)
            self._comp_maps[sigma.images] = cached
        return cached

    def identity_element(self) -> "WreathElement":
        return WreathElement(self, self.identity_row, Permutation.identity(self.n))

    def embed_top(self, sigma: Permutation) -> "WreathElement":
        """The element (trivial assignment, sigma)."""
        if sigma.degree != self.n:
            raise ValidationError("top permutation degree must equal n")
        return WreathElement(self, self.identity_row, sigma)

    def from_assignment(self, entries: Sequence, sigma: Optional[Permutation] = None) -> "WreathElement":
        if len(entries) != self.k:
            raise ValidationError(f"assignment must have {self.k} entries")
        return WreathElement(self, self.row(entries), sigma or Permutation.identity(self.n))


class WreathElement:
    """An element (f, sigma) of the wreath product over the cycle domain;
    f is a read-only row in the context's entry dtype (`WreathContext.row`)."""

    __slots__ = ("ctx", "f", "sigma")

    def __init__(self, ctx: WreathContext, f: np.ndarray, sigma: Permutation):
        f.setflags(write=False)
        self.ctx = ctx
        self.f = f
        self.sigma = sigma

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        ctx = self.ctx
        f = ctx.entries.product(self.f, other.f[ctx.comp_map(self.sigma)])
        return WreathElement(ctx, f, self.sigma * other.sigma)

    def inverse(self) -> "WreathElement":
        ctx = self.ctx
        sigma_inv = self.sigma.inverse()
        return WreathElement(ctx, ctx.entries.inverse(self.f[ctx.comp_map(sigma_inv)]), sigma_inv)

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and np.array_equal(self.f, self.ctx.identity_row)

    def key(self) -> bytes:
        """Serialization: top images first, then the row's bytes."""
        return bytes(self.sigma.images) + self.f.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, WreathElement) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        entries = ", ".join(self.ctx.entries.elem(e).cycle_string() for e in self.f)
        return f"WreathElement([{entries}], {self.sigma.cycle_string()})"


# ---------------------------------------------------------------------------
# construction jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverJob:
    """Input data: the arity n and a generating pair (x, y) of T.

    Validated facts: 4 <= n, x and y lie in T, |x| = 2, |y| is an odd prime,
    <x, y> = T, and T is nonabelian simple (verified exactly when T is
    enumerable, by classification of the natural alternating action otherwise).
    """

    n: int
    group: PermGroup
    x: Permutation
    y: Permutation
    group_name: str = "T"

    def problems(self) -> list[str]:
        out = []
        if self.n < 4:
            out.append(f"n must be at least 4, got {self.n}")
        deg = self.group.degree
        if self.x.degree != deg or self.y.degree != deg:
            out.append("x and y must have the same degree as T")
            return out
        if self.x.order() != 2:
            out.append(f"|x| must be 2, got {self.x.order()}")
        if not _is_odd_prime(self.y.order()):
            out.append(f"|y| must be an odd prime, got {self.y.order()}")
        x_in, y_in = self.group.contains(self.x), self.group.contains(self.y)
        if not x_in:
            out.append("x is not an element of T")
        if not y_in:
            out.append("y is not an element of T")
        if x_in and y_in and self.group.subgroup_order([self.x, self.y]) != self.group.order():
            out.append("<x, y> is a proper subgroup of T")
        if is_natural_alternating(self.group):
            pass  # alternating of degree >= 5 in natural action: simple
        elif (table := self.group.table()) is not None:
            if not is_nonabelian_simple(table):
                out.append("T is not nonabelian simple")
        else:
            out.append(
                "cannot certify that T is nonabelian simple "
                "(not natural alternating and too large to enumerate)"
            )
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValidationError("; ".join(problems))


def class_assignment(ctx: WreathContext, x: Permutation, y: Permutation) -> np.ndarray:
    """The base row by class index: y on 1, y^-1 on n-1, x on 2 and n-2.

    All other classes get the identity. For n = 4 the x-classes coincide
    (2 = n-2); for n = 5 class 2 and 3 both map to x; from n = 7 on most
    classes are unassigned.
    """
    n, idx = ctx.n, ctx.entries.idx
    by_class = [0] * n
    by_class[2] = by_class[n - 2] = idx(x)
    by_class[1], by_class[n - 1] = idx(y), idx(y.inverse())
    return ctx.row(by_class)[ctx.place[:, 1]]


@dataclass(frozen=True)
class CoverGroupData:
    """The constructed generators and distinguished subgroups for one job."""

    ctx: WreathContext
    job: CoverJob
    g: WreathElement  # the twisted swap (f, (1,2))
    h_gens: tuple[WreathElement, ...]  # Sym{2..n} embedded
    y_gens: tuple[WreathElement, ...]  # h_gens + (g,)
    h_top_gens: tuple[Permutation, ...]
    l_top_gens: tuple[Permutation, ...]  # Sym{3..n}
    delta: Permutation  # the swap (1,2)

    def h_tops(self) -> list[Permutation]:
        """H = Sym{2..n} as top permutations, in `closure` order, closed on
        the first call and then held. Only the graph stages read H."""
        return self._closed("_h_tops", self.h_top_gens)

    def k_tops(self) -> list[Permutation]:
        """K = H ∩ H^g as top permutations: L = Sym{3..n}, closed and held
        as `h_tops` is. K = L only once `twist_tops` holds, so only the
        graph stages read it, after `twist-identities` has passed."""
        return self._closed("_k_tops", self.l_top_gens)

    def _closed(self, name: str, gens: Sequence[Permutation]) -> list[Permutation]:
        if name not in self.__dict__:
            self.__dict__[name] = closure(gens, Permutation.identity(self.ctx.n))
        return self.__dict__[name]

    def h_elements(self) -> list[WreathElement]:
        """H as wreath elements: H is top-only, and embedding a top is an
        isomorphism onto it, so this is the closure of `h_gens`, in order."""
        return [self.ctx.embed_top(t) for t in self.h_tops()]


def build_cover_group(job: CoverJob) -> CoverGroupData:
    """Materialize the construction for a validated job, with bases in
    the context's entry format (`WreathContext`)."""
    n = job.n
    ctx = WreathContext(n, job.group)
    f = class_assignment(ctx, job.x, job.y)
    delta = parse_cycles("(1,2)", n)
    g = ctx.from_assignment(f, delta)
    h_top = _sym_tail_gens(n, start=2)
    l_top = _sym_tail_gens(n, start=3)
    h_gens = tuple(ctx.embed_top(s) for s in h_top)
    return CoverGroupData(
        ctx=ctx,
        job=job,
        g=g,
        h_gens=h_gens,
        y_gens=h_gens + (g,),
        h_top_gens=h_top,
        l_top_gens=l_top,
        delta=delta,
    )


def _sym_tail_gens(n: int, start: int) -> tuple[Permutation, ...]:
    """Generators of Sym{start..n} inside Sym{1..n}: the long cycle + last swap."""
    points = list(range(start, n + 1))
    if len(points) <= 1:
        return ()
    long_cycle = "(" + ",".join(map(str, points)) + ")"
    if len(points) == 2:
        return (parse_cycles(long_cycle, n),)
    swap = f"({n - 1},{n})"
    return (parse_cycles(long_cycle, n), parse_cycles(swap, n))


def twist_tops(data: CoverGroupData) -> bool:
    """Whether K = H ∩ H^g equals L = Sym{3..n}, with H = Sym{2..n}, decided
    on L's top generators.

    H and L are top-only. g = (f, δ) with δ = (1,2), and the top of
    g·(1,τ)·g^-1 is δτδ, which fixes 1 iff τ fixes 2: only τ in L can lie
    in K. For τ in L, δτ = τδ, so g·(1,τ)·g^-1 lies in H iff it is (1,τ),
    iff (f, δτ) = g·(1,τ) = (1,τ)·g = (f∘comp(τ), τδ), iff f = f[comp(τ)]
    entrywise. The τ in L that fix f so form a subgroup, K, so K = L iff
    every generator of L fixes f: one gather of g's base per generator.
    """
    ctx, g = data.ctx, data.g
    if g.sigma != data.delta:
        raise InternalCheckError("the twisted swap's top is not (1,2)")
    return all([np.array_equal(g.f[ctx.comp_map(s)], g.f) for s in data.l_top_gens])


def kernel_witness(data: CoverGroupData) -> WreathElement:
    """The base-only element s = (g * (2,3))^3; its top part must vanish.

    Its entries at the cycles (1,2,...,n) and (1,n,...,2) are y*y*x and
    y^-1*y^-1*x respectively, and for n = 7 the entry at (1,4,2,5,3,6,7) is
    the identity.
    """
    ctx = data.ctx
    swap23 = ctx.embed_top(parse_cycles("(2,3)", ctx.n))
    gs = data.g * swap23
    s = gs * gs * gs
    if not s.sigma.is_identity():
        raise InternalCheckError("kernel witness has a nontrivial top part")
    return s


def _lehmer_ranks(tops: np.ndarray) -> np.ndarray:
    """The rank of each row of 0-based images in the lexicographic order of
    Sym(n): 0 for the identity, n! - 1 for the reversal."""
    n = tops.shape[1]
    ranks = np.zeros(len(tops), dtype=np.intp)
    for i in range(n - 1):
        ranks *= n - i
        ranks += (tops[:, i + 1:] < tops[:, i, None]).sum(axis=1)
    return ranks


def normal_closure(
    data: CoverGroupData,
    sifter,
    conjugation_cap: int = ENUM_CAP_DEFAULT,
    out_of_budget: Callable[[], bool] = lambda: False,
) -> int:
    """The kernel M of the top projection Y -> Sym(n), as the normal closure
    in Y of the kernel witness s (`kernel_witness`), its rows sifted into
    `sifter` (`subdirect.RowSifter`); returns the number of conjugations
    formed.

    Sym(n) has the Coxeter presentation on s_i = (i, i+1), and Y is
    generated by the lifts g of s_1 and the embedded (i, i+1) of s_i,
    i >= 2. The lifts satisfy every Coxeter relation but one: g^2 = 1 and
    g commutes with Sym{3..n} (`twist-identities`, on L's generators), and
    embedded tops multiply as tops. The one left, (s_1·s_2)^3, lifts to
    (g·(2,3))^3 = s. So by von Dyck's theorem M is the normal closure of s
    in Y, and Y/M is Sym(n) without a top enumerated.

    S starts as s's row. Each pass conjugates the rows that joined S in the
    pass before, as base-only elements, by every generator in `data.y_gens`
    (y^-1·z·y), and sifts the conjugates as one batch. Once a pass adds no
    row, every generator conjugates every row of S into <S>, so Y normalizes
    <S>; <S> lies in M and holds s, so <S> = M.

    Raises CapacityExceeded before a pass that would take the conjugations
    formed past `conjugation_cap`, and BudgetExhausted when `out_of_budget()`
    holds between two passes. Either stop, and a budget stop inside one of
    the sifter's decompositions, carries the conjugations formed, the rows
    kept and the decompositions in its details.
    """
    ctx = data.ctx
    identity = Permutation.identity(ctx.n)
    gens = [(y.inverse(), y) for y in data.y_gens]
    formed = 0
    try:
        sifter.add(kernel_witness(data).f[None])
        start = 0
        while start < sifter.rows_kept:
            frontier = sifter.rows(start)
            start = sifter.rows_kept
            if formed + len(frontier) * len(gens) > conjugation_cap:
                raise CapacityExceeded(f"normal closure exceeded cap {conjugation_cap} conjugations")
            conjugates = []
            for row in frontier:
                z = WreathElement(ctx, row, identity)
                conjugates += [(y_inv * z * y).f for y_inv, y in gens]
            formed += len(conjugates)
            sifter.add(np.stack(conjugates))
            if start < sifter.rows_kept and out_of_budget():
                raise BudgetExhausted("time budget exhausted")
    except CapacityExceeded as exc:  # BudgetExhausted too
        exc.details.update(
            conjugations=formed, rows_kept=sifter.rows_kept, decompositions=sifter.decompositions
        )
        raise
    return formed


# ---------------------------------------------------------------------------
# the n = 4 positional conventions and tuple generators
# ---------------------------------------------------------------------------

# Positional report order for the six 4-cycles. All n=4 block/tuple values
# are stated in this order; canonical (lex) indexing is translated through it.
K4_POSITIONS: tuple[str, ...] = (
    "(1,2,3,4)",
    "(1,4,3,2)",
    "(1,2,4,3)",
    "(1,3,4,2)",
    "(1,3,2,4)",
    "(1,4,2,3)",
)


@lru_cache(maxsize=None)
def _k4_maps() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(canonical index -> position, position -> canonical index), 0-based.
    A cycle's canonical index is the rank of its walk from 1, which its
    cycle notation spells out (`WreathContext.position`)."""
    walks = np.array([parse_cycles(text, 4).cycles()[0] for text in K4_POSITIONS]) - 1
    canon_of = tuple(_lehmer_ranks(walks).tolist())
    pos_of = [0] * 6
    for pos, canon in enumerate(canon_of):
        pos_of[canon] = pos
    return tuple(pos_of), canon_of


def to_positions(values: Sequence) -> tuple:
    """Reorder a canonical 6-tuple into positional report order."""
    if len(values) != 6:
        raise ValidationError("positional order is defined for 6 components")
    _, canon_of = _k4_maps()
    return tuple(values[canon_of[p]] for p in range(6))


@dataclass(frozen=True)
class K4TupleData:
    """The three involutions and the three base 6-tuples they multiply into."""

    s1: WreathElement
    s2: WreathElement
    s3: WreathElement
    t1: WreathElement
    t2: WreathElement
    t3: WreathElement

    def tuples_in_positions(self) -> tuple[tuple, tuple, tuple]:
        tuples = (self.t1, self.t2, self.t3)
        return tuple(to_positions([t.ctx.entries.elem(e) for e in t.f]) for t in tuples)


def k4_tuple_data(data: CoverGroupData) -> K4TupleData:
    """Explicit base-only generators of the kernel block group at n = 4.

    s1 = g*h2, s2 = h2*h1*g*h1, s3 = h2*h1^-1*g*h1^-1 with h1 = (2,3,4),
    h2 = (3,4); the products t1 = s1*s2*s3, t2 = s1*s3*s2, t3 = s2*s1*s3
    all have trivial top part.
    """
    ctx = data.ctx
    if ctx.n != 4:
        raise ValidationError("tuple generators are specific to n = 4")
    g = data.g
    h1 = ctx.embed_top(parse_cycles("(2,3,4)", 4))
    h1_inv = h1.inverse()
    h2 = ctx.embed_top(parse_cycles("(3,4)", 4))
    s1 = g * h2
    s2 = h2 * h1 * g * h1
    s3 = h2 * h1_inv * g * h1_inv
    t1 = s1 * s2 * s3
    t2 = s1 * s3 * s2
    t3 = s2 * s1 * s3
    for t in (t1, t2, t3):
        if not t.sigma.is_identity():
            raise InternalCheckError("tuple generator has a nontrivial top part")
    return K4TupleData(s1=s1, s2=s2, s3=s3, t1=t1, t2=t2, t3=t3)
