"""Decomposition of subdirect subgroups of T^k into linked diagonal blocks.

A subgroup M <= T^k (T nonabelian simple) that projects onto every component
is a direct product of full diagonal subgroups (Scott's lemma; Dixon and
Mortimer, Permutation Groups, 4.3): the components split into blocks, each
block carries linking automorphisms from a base component, and
M = { z : z_j = link_j(z_base) within each block }. This module computes that
structure exactly from generating rows given in batches, keeping only those
that change it (`RowSifter`), plus the specific automorphism criteria that
predict the block count for the n = 4 construction.

Entries of T are the integer ids `WreathContext` uses (`PermGroup.entries`):
table indices when T has a table (`PermGroup.table`: A5, or a T up to
TABLE_CAP that is not natural alternating), entry-pool ids otherwise.
Whether there is a table picks the algorithms only: generation and links by
propagation through the table, or else by subgroup order and the conjugator
search, which needs T natural alternating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExhausted, InternalCheckError, ValidationError
from .groups import (
    BATCH_ENTRIES,
    AutomorphismMap,
    DistinctRows,
    PermGroup,
    automorphism_lookups,
    conjugating_permutations,
    extend_to_automorphism,
    generating_rows,
    is_natural_alternating,
)
from .perm import Permutation


@dataclass(frozen=True, eq=False)
class SubdirectStructure:
    """Blocks and linking maps of a subdirect subgroup of T^k, as arrays:
    component j's entry is maps[link_id[j]] of the entry at its block's base
    base_of[j], its least component. `maps` holds the distinct links,
    interned by `key()`, the identity at id 0 (the bases' id); at n >= 5,
    where an automorphism φ fixes x and inverts y, it is the identity and φ.
    `refined` forms each new link once per distinct pair of link ids.
    """

    k: int
    base_of: np.ndarray  # component -> base component of its block
    link_id: np.ndarray  # component -> its link in `maps`
    maps: tuple[AutomorphismMap, ...]
    generators: np.ndarray  # a sifter's S
    group: PermGroup

    @property
    def bases(self) -> np.ndarray:
        return np.flatnonzero(self.base_of == np.arange(self.k))

    @property
    def block_count(self) -> int:
        return len(self.bases)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Each block's components in order, the blocks in order of their bases."""
        members = np.argsort(self.base_of, kind="stable")
        ends = np.cumsum(np.bincount(self.base_of)[self.bases])[:-1]
        return tuple(tuple(block.tolist()) for block in np.split(members, ends))

    @property
    def links(self) -> tuple[Optional[AutomorphismMap], ...]:
        """Per component its link, None exactly at the block bases."""
        ids = np.where(self.base_of == np.arange(self.k), -1, self.link_id).tolist()
        return tuple(None if t < 0 else self.maps[t] for t in ids)

    def order(self) -> int:
        return self.group.order() ** self.block_count

    def contains(self, row: np.ndarray) -> bool:
        """Membership of a row of an entry matrix (`WreathElement.f`): within
        each block every entry follows its linking map."""
        return bool(self._holds(row[None])[0])

    def _holds(self, matrix: np.ndarray) -> np.ndarray:
        """Per row of an entry matrix, whether it lies in the subgroup: its
        entries at the bases, gathered through each link id at once, equal
        its entries at the linked components."""
        entries = self.group.entries()
        linked = np.flatnonzero(self.base_of != np.arange(self.k))
        ids = self.link_id[linked]
        ok = np.ones(len(matrix), dtype=bool)
        for t, link in enumerate(self.maps):
            members = linked[ids == t]
            images = matrix.take(self.base_of[members], axis=1)
            if t:  # id 0 is the identity
                images = link.image(images, entries)
            ok &= (images == matrix.take(members, axis=1)).all(axis=1)
        return ok

    def refined(self, row: np.ndarray, generators: np.ndarray) -> "SubdirectStructure":
        """The structure of the subgroup generated by this one and `row`,
        with `generators` (which generate it) as its generators.

        The larger subgroup's blocks split these: components i and j of a
        block can only be linked by the one map that links them here,
        φ_j∘φ_i^-1 (φ the links from the base, the identity at it), and are
        linked iff it also sends row_i to row_j, that is iff
        φ_i^-1(row_i) = φ_j^-1(row_j). So each block splits by the value
        φ_j^-1(row_j), pulled back once per link id; each part's least
        component is its base, and a component whose base moves from b to
        c is linked by φ_j∘φ_c^-1, formed once per distinct pair of ids
        (link_id[j], link_id[c]) and interned. Both maps are unique, so
        they are the links `_decompose` finds. `maps` keeps the links still
        in use, in their order.
        """
        entries, size = self.group.entries(), self.group.order()
        inverses = [link.inverse() for link in self.maps]
        pulled = row.astype(np.int64)  # φ_j^-1(row_j), row_j at id 0
        for t in range(1, len(self.maps)):
            members = np.flatnonzero(self.link_id == t)
            pulled[members] = inverses[t].image(row.take(members), entries)
        _, first, back = np.unique(self.base_of * size + pulled, return_index=True, return_inverse=True)
        base_of = first[back]  # the least component with the same base and value
        moved = np.flatnonzero(base_of != self.base_of)
        linked = moved[base_of[moved] != moved]
        link_id = np.where(base_of == np.arange(self.k), 0, self.link_id)
        count = len(self.maps)  # pair (i, c) of old ids at i·count + c
        pair = self.link_id[linked] * count + self.link_id[base_of[linked]]
        pairs, pair_of = np.unique(pair, return_inverse=True)
        maps = list(self.maps)
        composed = [maps[p // count].after(inverses[p % count]) for p in pairs.tolist()]
        link_id[linked] = _interned(maps, composed)[pair_of]
        used, link_id = np.unique(link_id, return_inverse=True)
        maps = tuple(maps[t] for t in used.tolist())
        return SubdirectStructure(self.k, base_of, link_id, maps, generators, self.group)


def _interned(maps: list[AutomorphismMap], found: Sequence[Optional[AutomorphismMap]]) -> np.ndarray:
    """Per map found, its id in `maps` by `key()` (appended if new), or -1 for None."""
    ids = {link.key(): t for t, link in enumerate(maps)}
    for link in found:
        if link is not None and ids.setdefault(link.key(), len(maps)) == len(maps):
            maps.append(link)
    return np.array([-1 if link is None else ids[link.key()] for link in found], dtype=np.intp)


class RowSifter:
    """The block structure of the subgroup M of T^k generated by the rows
    given in batches (`add`), decomposed from the few rows S that change it.

    Rows join S a whole batch at a time until S's columns all generate T.
    That is tested after a batch that brings |S| to at least 2 (one entry
    generates a cyclic group, never T) and then at least twice its size at
    the last test, by decomposing S, stopped at the first base that does
    not generate (a linked column is the image of its base, so the bases
    decide); the generating prefixes found are kept, as S grows only at its
    end. So a few small batches, as at n = 4, are decomposed once, and the
    failed tests of a larger k stay few: the kernel's normal closure
    (`wreath.normal_closure`) gives one batch per pass, and a test after
    every batch took it 29-68% longer at n = 7 and 8. Once S
    decomposes, <S> is by Scott's lemma the set of rows that satisfy its
    links: a later row that does (`SubdirectStructure._holds`) lies in <S>
    and is dropped, and one that does not joins S, whose structure is then
    refined by it (`SubdirectStructure.refined`), so d only grows. S lies in
    M and every row given lies in <S>, so <S> = M; blocks, bases (the least
    component of each block) and links are fixed by M, and they are those
    of the decomposition of all the rows at once.

    `rows_formed` (rows given), `rows_kept` (|S|) and `decompositions` (S's
    structure found whole, then refined) count the work. A decomposition raises
    BudgetExhausted once `out_of_budget()` holds before one of its rounds.
    """

    def __init__(
        self, group: PermGroup, k: int, out_of_budget: Callable[[], bool] = lambda: False
    ):
        _require_links(group)
        self.group = group
        self._out_of_budget = out_of_budget
        self._kept = DistinctRows(k, group.entries().dtype)  # S
        self._prefixes: dict[int, list[int]] = {}  # column -> its generating prefix in S
        self._generates: dict[frozenset, bool] = {}  # `_prefixes`' memo on a pool
        self._test_at = 2
        self._structure: Optional[SubdirectStructure] = None
        self.rows_formed = 0
        self.decompositions = 0

    @property
    def rows_kept(self) -> int:
        return self._kept.count

    def add(self, rows: np.ndarray) -> None:
        """Sift a batch of rows: an entry matrix of width k in T's entry dtype."""
        self.rows_formed += len(rows)
        if self._structure is None:
            for row in rows:
                self._kept.add(row)
            if self._kept.count >= self._test_at:
                self._test_at = 2 * self._kept.count
                self._decompose(whole=False)
            return
        rest = rows
        while len(rest):
            rest = rest[~self._structure._holds(rest)]
            if len(rest):
                self._kept.add(rest[0])
                self._structure = self._structure.refined(rest[0], self.rows())
                self.decompositions += 1
                rest = rest[1:]

    def structure(self) -> SubdirectStructure:
        """M's structure. If S never decomposed, S holds every row given,
        and its decomposition now names the least column that does not
        generate T (ValidationError), as one of all the rows would."""
        if self._structure is None:
            self._decompose(whole=True)
        return self._structure

    def rows(self, start: int = 0) -> np.ndarray:
        """The rows of S from number `start` on, in the order they joined,
        read-only."""
        rows = self._kept.take(np.arange(start, self._kept.count))
        rows.flags.writeable = False
        return rows

    def _decompose(self, whole: bool) -> None:
        self._structure = _decompose(
            self.rows(), self.group, self._out_of_budget,
            self._prefixes, self._generates, whole,
        )
        self.decompositions += self._structure is not None


def _fingerprints(columns: np.ndarray, group: PermGroup) -> np.ndarray:
    """Per column (a row of `columns`), a hash of its sequence of pairs
    (|e|, |e·e0|) over its entries e, row by row, with e0 its entry in row 0:
    the sum of the pairs' codes times the powers of the odd kinds | 1,
    modulo 2^64 (odd, so no power is 0 there), one weighted sum per block
    (an integer matrix product there cost 0.4 MB of peak RSS).

    A link maps a column entrywise by an automorphism, which keeps element
    orders, so a column and its image have one sequence, and one hash. Two
    sequences that share a hash only share a bucket, which costs link
    attempts and changes no link (`_decompose`). Each entry's pair is one
    gather from a code table over the distinct e0 and the ids up to the
    largest in `columns`, which bounds what a pool grows by, in the smallest
    unsigned dtype; columns are coded in blocks of `BATCH_ENTRIES` entries.
    """
    entries = group.entries()
    size = int(columns.max()) + 1
    firsts, first_of = np.unique(columns[:, 0], return_inverse=True)
    products = entries.product(np.arange(size)[:, None], firsts)
    # after the product: a pool grows while it is formed
    values, order_id = np.unique(entries.order_of, return_inverse=True)
    kinds = len(values) ** 2
    order_id = order_id.astype(np.min_scalar_type(kinds - 1))
    # code of entry e in a column whose e0 is firsts[f], at f·size + e
    table_codes = (order_id[:size] * len(values) + order_id[products.T]).reshape(-1)
    offsets = first_of * size
    k, rows = columns.shape
    width = max(1, BATCH_ENTRIES // rows)  # columns per block
    weights = np.cumprod(np.full(rows, kinds | 1, dtype=np.uint64))  # wrapping at 2^64
    out = np.empty(k, dtype=np.uint64)
    for lo in range(0, k, width):
        block = table_codes.take(columns[lo:lo + width] + offsets[lo:lo + width, None])
        out[lo:lo + width] = (block * weights).sum(axis=1)
    return out


def _require_links(group: PermGroup) -> None:
    if group.table() is None and not is_natural_alternating(group):
        raise ValidationError(
            "T is too large for a multiplication table and not a natural "
            "alternating group, so its links cannot be decided"
        )


def _decompose(
    matrix: np.ndarray,
    group: PermGroup,
    out_of_budget: Callable[[], bool],
    prefixes: dict[int, list[int]],
    generates: dict[frozenset, bool],
    whole: bool,
) -> Optional[SubdirectStructure]:
    """The structure of the distinct rows of an entry matrix. `prefixes`
    holds the generating prefixes (`_prefixes`) of columns known to
    generate T, and gains those found; `generates` is `_prefixes`' memo.

    Components are scanned in order: each is linked to the first earlier
    block base of its fingerprint (`_fingerprints`) whose generating prefix
    of rows extends to an automorphism mapping the base's whole column onto
    it, and otherwise becomes a base itself, which must generate T. A linked
    column needs no check: it is the image of a generating column.

    Columns of one fingerprint form a bucket, and buckets never link to each
    other, so the scan runs in rounds over all buckets at once, on the index
    array `j` of undecided columns by bucket, then column: each bucket's
    first column (`head`) is a base, the later ones are paired with it (`b`)
    and tested, and those that fail stay in `j` for the next round. That is
    the order in which the scan tries bases, so it links the same columns.
    A column that does not generate T never links, so the first such base
    is the least such column; a ValidationError names it, or, unless
    `whole`, the scan ends at the first round with such a base and returns
    None. The columns are read from one column-major copy of the rows.

    Raises BudgetExhausted, with the number of columns decided, once
    `out_of_budget()` holds before a round.
    """
    k = matrix.shape[1]
    # column-major copy, 512 rows at a time: several times faster than one
    # transposing copy of a large byte matrix
    columns = np.empty((k, len(matrix)), dtype=matrix.dtype)
    for lo in range(0, len(matrix), 512):
        columns[:, lo:lo + 512] = matrix[lo:lo + 512].T
    _, least, bucket = np.unique(_fingerprints(columns, group), return_index=True, return_inverse=True)
    j = np.lexsort((np.arange(k), least[bucket]))  # by bucket's least column, then column

    base_of = np.arange(k)
    link_id = np.zeros(k, dtype=np.intp)
    maps = [_identity(group)]
    proper: list[int] = []  # bases whose column generates a proper subgroup
    decided = 0
    while len(j):
        if out_of_budget():
            raise BudgetExhausted("time budget exhausted", columns_scanned=decided)
        head = np.diff(bucket[j], prepend=-1) != 0  # each bucket's first column: a base
        bases = j[head].tolist()
        found = _prefixes(columns, [b for b in bases if b not in prefixes], group, generates, whole)
        prefixes.update((b, rows) for b, rows in found.items() if rows)
        proper += [b for b, rows in found.items() if not rows]
        if proper and not whole:
            return None
        decided += len(bases)
        at = np.cumsum(head) - 1  # per column, its bucket's base in `bases`
        paired = ~head & np.array([c in prefixes for c in bases], dtype=bool)[at]
        b, j = j[head][at][paired], j[paired]  # the pairs (base, column)
        ids = _links(columns, b, j, prefixes, group, maps)
        linked = ids >= 0
        base_of[j[linked]], link_id[j[linked]] = b[linked], ids[linked]
        decided += int(linked.sum())
        j = j[~linked]
    if proper:
        raise ValidationError(f"component {min(proper)} projection generates a proper subgroup")

    generators = matrix.view()
    generators.flags.writeable = False
    return SubdirectStructure(k, base_of, link_id, tuple(maps), generators, group)


def _identity(group: PermGroup) -> AutomorphismMap:
    """The identity link, a lookup or a conjugator as `_links` finds links."""
    if group.table() is None:
        return AutomorphismMap(conjugator=Permutation.identity(group.degree))
    lookup = np.arange(group.order(), dtype=group.entries().dtype)
    lookup.flags.writeable = False
    return AutomorphismMap(lookup=lookup)


def _prefixes(
    columns: np.ndarray,
    bases: list[int],
    group: PermGroup,
    generates: dict[frozenset, bool],
    whole: bool,
) -> dict[int, list[int]]:
    """Each base column's generating prefix: the rows of its first distinct
    entries, up to the first that generate T ([] if none do). The columns
    grow their prefixes together: each round adds every column's next
    distinct entry (`_next_fresh`) and tests all the new prefixes at once,
    by propagation through the table, or else by their subgroup orders.
    A subgroup order is computed once per set of entry ids and kept in
    `generates`, as the subgroup a set generates depends on the set alone.
    Unless `whole`, the rounds stop once some column has run out of
    entries, and the columns still growing are left out."""
    table, elem = group.table(), group.entries().elem
    out: dict[int, list[int]] = {}
    todo = np.array(bases)
    chosen = np.zeros((len(bases), 1), dtype=np.intp)  # per column, its prefix rows
    while len(todo):
        fresh = _next_fresh(columns, todo, chosen)
        more = fresh >= 0  # a column out of new entries generates nothing
        out.update((b, []) for b in todo[~more].tolist())
        if not whole and not more.all():
            break
        todo = todo[more]
        chosen = np.column_stack([chosen[more], fresh[more]])
        sources = columns[todo[:, None], chosen]
        if table is not None:
            done = generating_rows(table, sources)
        else:
            done = np.empty(len(todo), dtype=bool)
            for i, row in enumerate(sources.tolist()):
                if (key := frozenset(row)) not in generates:
                    generates[key] = group.subgroup_order(list(map(elem, row))) == group.order()
                done[i] = generates[key]
        out.update(zip(todo[done].tolist(), chosen[done].tolist()))
        todo, chosen = todo[~done], chosen[~done]
    return out


def _next_fresh(columns: np.ndarray, todo: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Per column todo[i], the first row whose entry is none of the column's
    entries at rows chosen[i], or -1 if there is none. The columns are read
    in windows of rows of about `BATCH_ENTRIES` entries in all, and a
    column leaves at the first window that holds its row."""
    seen = columns[todo[:, None], chosen]
    out = np.full(len(todo), -1, dtype=np.intp)
    left = np.arange(len(todo))  # positions still searching
    lo, rows = 0, columns.shape[1]
    while len(left) and lo < rows:
        hi = min(rows, lo + max(1, BATCH_ENTRIES // len(left)))
        window = columns[todo[left], lo:hi]
        fresh = np.ones(window.shape, dtype=bool)
        for entries in seen[left].T:
            fresh &= window != entries[:, None]
        hit = fresh.any(axis=1)
        out[left[hit]] = lo + fresh[hit].argmax(axis=1)
        left, lo = left[~hit], hi
    return out


def _links(
    columns: np.ndarray,
    b: np.ndarray,
    j: np.ndarray,
    prefixes: dict[int, list[int]],
    group: PermGroup,
    maps: list[AutomorphismMap],
) -> np.ndarray:
    """Per pair (b, j): the id in `maps` (`_interned`, which appends the
    new ones) of the automorphism sending b's generating prefix of rows to
    column j's entries there, if it maps column b onto column j; else -1.

    With a table the pairs propagate in batches (`automorphism_lookups`),
    each base's prefix padded once by repeating its rows, and the consistent
    ones are checked on whole columns, with the lookups narrowed to the
    columns' dtype; both batches hold about `BATCH_ENTRIES` integer entries.
    Without one, each pair runs the conjugator search on its prefix's
    entries. A table interns one lookup per distinct row of the linked
    pairs' lookups.
    """
    table, entries = group.table(), group.entries()
    if table is None:
        found = []
        for base, col in zip(b.tolist(), j.tolist()):
            rows = prefixes[base]
            phi = _conjugation(group.degree, *(list(map(entries.elem, columns[c, rows])) for c in (base, col)))
            if phi is not None and not np.array_equal(phi.image(columns[base], entries), columns[col]):
                phi = None
            found.append(phi)
        return _interned(maps, found)
    ids = np.full(len(b), -1, dtype=np.intp)
    if not len(b):
        return ids
    bases, at = np.unique(b, return_inverse=True)
    width = max(len(prefixes[base]) for base in bases.tolist())
    padded = np.array([(prefixes[base] * width)[:width] for base in bases.tolist()])
    # the lookups in the columns' dtype; a row of -1 (no automorphism)
    # wraps, and is read only as not ok
    lookups = np.empty((len(b), table.size), dtype=columns.dtype)
    ok = np.empty(len(b), dtype=bool)
    # `automorphism_lookups` holds one int32 image per pair and element of T
    per = max(1, BATCH_ENTRIES // table.size)
    for lo in range(0, len(b), per):
        part = slice(lo, lo + per)
        rows = padded[at[part]]
        found = automorphism_lookups(table, columns[b[part, None], rows], columns[j[part, None], rows])
        ok[part] = found[:, 0] >= 0
        lookups[part] = found
    consistent = np.flatnonzero(ok)
    chunk = max(1, BATCH_ENTRIES // columns.shape[1])
    for lo in range(0, len(consistent), chunk):
        part = consistent[lo:lo + chunk]
        images = np.take_along_axis(lookups[part], columns[b[part]], axis=1)
        ok[part] = (images == columns[j[part]]).all(axis=1)
    linked = np.flatnonzero(ok)
    rows = lookups[linked]  # each row as one opaque value: far faster than axis=0
    opaque = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    _, first, back = np.unique(opaque, return_index=True, return_inverse=True)
    distinct = rows[first]  # a copy: no link holds the other pairs' rows
    distinct.flags.writeable = False
    ids[linked] = _interned(maps, [AutomorphismMap(lookup=row) for row in distinct])[back]
    return ids


def _conjugation(
    degree: int, sources: list[Permutation], targets: list[Permutation]
) -> Optional[AutomorphismMap]:
    """The unique automorphism of a natural alternating T with sources[i] ->
    targets[i], for sources generating T: a conjugation by Sym(degree)."""
    found = conjugating_permutations(sources, targets, degree)
    if len(found) > 1:
        raise InternalCheckError("conjugator is not unique")
    return AutomorphismMap(conjugator=found[0]) if found else None


def structures_equal(a: SubdirectStructure, b: SubdirectStructure) -> bool:
    """Same blocks (a base is its block's least component, so the same
    bases) and the same subgroup (mutual generator membership)."""
    if a.k != b.k or not np.array_equal(a.base_of, b.base_of):
        return False
    return bool(b._holds(a.generators).all() and a._holds(b.generators).all())


# ---------------------------------------------------------------------------
# automorphism criteria for the n = 4 block count
# ---------------------------------------------------------------------------


def _phi_route(
    group: PermGroup, sources: list[Permutation], targets: list[Permutation]
) -> Optional[AutomorphismMap]:
    """Existence of an automorphism with the given images, by every route.

    Natural alternating groups go through the conjugator search (exact for
    degree != 6); groups with a table through table propagation; when both
    apply the routes must agree. Any other T is a ValidationError.
    """
    _require_links(group)
    table, natural = group.table(), is_natural_alternating(group)
    shortcut = _conjugation(group.degree, sources, targets) if natural else None
    if table is None:
        return shortcut
    phi = extend_to_automorphism(table, list(map(table.idx, sources)), list(map(table.idx, targets)))
    if natural and (phi is None) != (shortcut is None):
        raise InternalCheckError("automorphism routes disagree")
    return phi


def inverting_automorphism(
    group: PermGroup, x: Permutation, y: Permutation
) -> Optional[AutomorphismMap]:
    """An automorphism of T fixing x and inverting y, if one exists."""
    return _phi_route(group, [x, y], [x, y.inverse()])


def cross_automorphism(
    group: PermGroup, x: Permutation, y: Permutation
) -> Optional[AutomorphismMap]:
    """An automorphism with yxy -> y^2x, y^2x -> yxy, xy^2 -> y^-2x, if any.

    Requires the three sources to generate T (they do for every valid job);
    raises ValidationError otherwise.
    """
    yi = y.inverse()
    sources = [y * x * y, y * y * x, x * y * y]
    targets = [y * y * x, y * x * y, yi * yi * x]
    if group.subgroup_order(sources) != group.order():
        raise ValidationError("criterion sources do not generate T")
    return _phi_route(group, sources, targets)


# ---------------------------------------------------------------------------
# block report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockReport:
    """Arithmetic facts about a computed block count at a given n."""

    n: int
    block_count: int
    component_count: int
    divides: bool
    lower_bound: Optional[int]
    bound_ok: Optional[bool]

    @classmethod
    def build(cls, n: int, block_count: int) -> "BlockReport":
        component_count = math.factorial(n - 1)
        divides = component_count % block_count == 0
        lower_bound = None
        bound_ok = None
        if n >= 7:
            # block_count >= binom(n, floor(n/2)) / 2, compared in integers
            binom = math.comb(n, n // 2)
            lower_bound = (binom + 1) // 2
            bound_ok = 2 * block_count >= binom
        return cls(
            n=n,
            block_count=block_count,
            component_count=component_count,
            divides=divides,
            lower_bound=lower_bound,
            bound_ok=bound_ok,
        )
