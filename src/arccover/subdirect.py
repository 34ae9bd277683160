"""Decomposition of subdirect subgroups of T^k into linked diagonal blocks.

A subgroup M <= T^k (T nonabelian simple) that projects onto every component
is a direct product of full diagonal subgroups: the components split into
blocks, each block carries linking automorphisms from a base component, and
M = { z : z_j = link_j(z_base) within each block }. This module computes that
structure exactly from a generating set, plus the specific automorphism
criteria that predict the block count for the n = 4 construction.

Entries of T are the integer ids `WreathContext` uses (`PermGroup.entries`):
table indices when T has a table (`PermGroup.table`: A5, or a T up to
TABLE_CAP that is not natural alternating), entry-pool ids otherwise.
Whether there is a table picks the algorithms only: generation and links by
propagation through the table, or else by subgroup order and the conjugator
search, which needs T natural alternating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BudgetExhausted, InternalCheckError, ValidationError
from .groups import (
    AutomorphismMap,
    PermGroup,
    automorphism_lookups,
    conjugating_permutations,
    extend_to_automorphism,
    generating_rows,
    is_natural_alternating,
    row_hash,
)
from .perm import Permutation

# entries per batch of an integer temporary: a few hundred kB at most
_BATCH_ENTRIES = 1 << 15


@dataclass(frozen=True, eq=False)
class SubdirectStructure:
    """Blocks and linking maps of a subdirect subgroup of T^k."""

    k: int
    blocks: tuple[tuple[int, ...], ...]
    links: tuple[Optional[AutomorphismMap], ...]  # None exactly at block bases
    base_of: tuple[int, ...]  # component -> base component of its block
    generators: np.ndarray  # the distinct generating rows, in input order (`_entry_rows`)
    group: PermGroup

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def order(self) -> int:
        return self.group.order() ** self.block_count

    def contains(self, row: Sequence) -> bool:
        """Membership of a row of k entry ids, a sequence or a row of an
        entry matrix: within each block every entry follows its linking map."""
        rows = row[None] if isinstance(row, np.ndarray) else [row]
        return self._holds(_entry_rows(rows, self.group, self.k))

    def _holds(self, matrix: np.ndarray) -> bool:
        """Every row of an entry matrix lies in the subgroup."""
        entries = self.group.entries()
        return all(
            link is None or np.array_equal(link.image(matrix[:, base], entries), matrix[:, j])
            for j, (base, link) in enumerate(zip(self.base_of, self.links))
        )


def _entry_rows(gens: Sequence, group: PermGroup, k: Optional[int] = None) -> np.ndarray:
    """The distinct rows of `gens`, in input order, as T's entry matrix.

    `gens` is a 2-D integer matrix of rows, as `schreier_rows` returns, or a
    sequence of rows, all of one length (k, if given). Entries must be int
    entry ids 0..size-1 (`PermGroup.entries`; a bool is not an int here),
    held in the entries' dtype; anything else is a ValidationError. A
    matrix of distinct rows in that dtype comes back as itself.
    """
    matrix = None
    if isinstance(gens, np.ndarray) and gens.ndim == 2 and gens.dtype.kind in "iu":
        matrix = gens  # one width, int entries by its dtype
        widths = {gens.shape[1]} if len(gens) else set()
        found = {int}
    else:
        rows = [tuple(z) for z in gens]
        widths = set(map(len, rows))
        found = set(map(type, itertools.chain.from_iterable(rows)))
    if len(widths) != 1 or 0 in widths or (k is not None and widths != {k}):
        want = "one positive length" if k is None else f"length {k}"
        raise ValidationError(f"rows must have {want}, got lengths {sorted(widths)}")
    entries = group.entries()
    ids = "table indices" if group.table() is not None else "pool ids"
    if found != {int}:
        got = ", ".join(sorted(t.__name__ for t in found - {int}))
        raise ValidationError(f"entries of T must be int {ids}, got {got}")
    if matrix is None:
        matrix = np.array(rows)
    if matrix.min() < 0 or matrix.max() >= entries.size:
        raise ValidationError(f"entries of T must be {ids} 0..{entries.size - 1}")
    matrix = matrix.astype(entries.dtype, copy=False)
    first = _first_rows(matrix)
    return matrix if len(first) == len(matrix) else matrix[first]


def _first_rows(matrix: np.ndarray) -> list[int]:
    """Positions of the first occurrence of each distinct row, in order.
    Rows are filed by `row_hash` and compared only when their hashes meet,
    so no row is copied."""
    seen: dict[int, list[int]] = {}  # hash -> positions of the rows kept with it
    out = []
    for i, row in enumerate(matrix):
        same = seen.get(h := row_hash(row))
        if same is None:
            seen[h] = [i]
        elif any(np.array_equal(matrix[r], row) for r in same):
            continue
        else:
            same.append(i)
        out.append(i)
    return out


def _fingerprints(columns: np.ndarray, group: PermGroup) -> list[bytes]:
    """Per column (a row of `columns`), how often each pair (|e|, |e·e0|)
    occurs over its entries e, with e0 its entry in row 0, as bytes.

    An entrywise automorphism keeps element orders, so a column and its
    image have one fingerprint. The counts determine both sorted profiles
    of orders, of the entries and of their products with e0, so no column
    that those profiles would let link is kept apart. Each entry's pair is
    one gather from a code table over the distinct e0 and the ids up to the
    largest in `columns`, which bounds what a pool grows by, in the smallest
    unsigned dtype; columns are counted in blocks of `_BATCH_ENTRIES` entries.
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
    width = max(1, _BATCH_ENTRIES // rows)  # columns per block
    count_dtype = np.min_scalar_type(rows)
    bins = np.arange(width, dtype=np.intp)[:, None] * kinds  # one bin range per column
    out = []
    for lo in range(0, k, width):
        block = table_codes.take(columns[lo:lo + width] + offsets[lo:lo + width, None])
        block = block + bins[:len(block)]
        hist = np.bincount(block.reshape(-1), minlength=len(block) * kinds)
        del block  # not alive beside the next block's index array
        out += [h.tobytes() for h in hist.astype(count_dtype).reshape(-1, kinds)]
    return out


def subdirect_decompose(
    gens: Sequence, group: PermGroup, out_of_budget: Callable[[], bool] = lambda: False
) -> SubdirectStructure:
    """Block structure of the subgroup of T^k generated by `gens`.

    Rows are an integer matrix (`schreier_rows`' output) or k-tuples of
    entry ids (module docstring).
    Components are scanned in order: each is linked to the first earlier
    block base of its fingerprint (`_fingerprints`) whose generating prefix
    of rows extends to an automorphism mapping the base's whole column onto
    it, and otherwise becomes a base itself, which must generate T. A linked
    column needs no check: it is the image of a generating column.

    Columns of one fingerprint form a bucket, and buckets never link to each
    other, so the scan runs in rounds over all buckets at once: each
    bucket's first undecided column is a base, its later columns are all
    tested against that base, and the ones that fail go on to the next
    round. That is the order in which the scan tries bases, so it links the
    same columns. A column that does not generate T never links, so the
    first such base is the least such column. The columns are read from one
    column-major copy of the rows.

    Raises BudgetExhausted, with the number of columns decided, once
    `out_of_budget()` holds before a round.
    """
    table = group.table()
    if table is None and not is_natural_alternating(group):
        raise ValidationError(
            "T is too large for a multiplication table and not a natural "
            "alternating group, so its links cannot be decided"
        )
    matrix = _entry_rows(gens, group)
    k = matrix.shape[1]
    # column-major copy, 512 rows at a time: several times faster than one
    # transposing copy of a large byte matrix
    columns = np.empty((k, len(matrix)), dtype=matrix.dtype)
    for lo in range(0, len(matrix), 512):
        columns[:, lo:lo + 512] = matrix[lo:lo + 512].T
    buckets: dict[bytes, list[int]] = {}
    for j, key in enumerate(_fingerprints(columns, group)):
        buckets.setdefault(key, []).append(j)

    base_of = list(range(k))
    links: list[Optional[AutomorphismMap]] = [None] * k
    prefixes: dict[int, list[int]] = {}  # block base -> its generating rows
    generates: dict[frozenset, bool] = {}  # pool entry-id set -> whether it generates T
    proper: list[int] = []  # bases whose column generates a proper subgroup
    pending = list(buckets.values())  # per bucket, its undecided columns
    decided = 0
    while pending:
        if out_of_budget():
            raise BudgetExhausted("time budget exhausted", columns_scanned=decided)
        bases = [cols[0] for cols in pending]
        prefixes.update(_prefixes(columns, bases, group, generates))
        proper += [b for b in bases if not prefixes[b]]
        decided += len(bases)
        pending = [cols for cols in pending if prefixes[cols[0]]]
        pairs = [(cols[0], j) for cols in pending for j in cols[1:]]
        for (b, j), phi in zip(pairs, _links(columns, pairs, prefixes, group)):
            if phi is not None:
                base_of[j] = b
                links[j] = phi
                decided += 1
        pending = [rest for cols in pending if (rest := [j for j in cols[1:] if links[j] is None])]
    if proper:
        raise ValidationError(f"component {min(proper)} projection generates a proper subgroup")

    generators = matrix.view()
    generators.flags.writeable = False
    return SubdirectStructure(
        k=k,
        blocks=_blocks_from(base_of, k),
        links=tuple(links),
        base_of=tuple(base_of),
        generators=generators,
        group=group,
    )


def _prefixes(
    columns: np.ndarray, bases: list[int], group: PermGroup, generates: dict[frozenset, bool]
) -> dict[int, list[int]]:
    """Each base column's generating prefix: the rows of its first distinct
    entries, up to the first that generate T ([] if none do). The columns
    grow their prefixes together: each round adds every column's next
    distinct entry (`_next_fresh`) and tests all the new prefixes at once,
    by propagation through the table, or else by their subgroup orders.
    A subgroup order is computed once per set of entry ids and kept in
    `generates`, as the subgroup a set generates depends on the set alone."""
    table, elem = group.table(), group.entries().elem
    out: dict[int, list[int]] = {}
    todo = np.array(bases)
    chosen = np.zeros((len(bases), 1), dtype=np.intp)  # per column, its prefix rows
    while len(todo):
        fresh = _next_fresh(columns, todo, chosen)
        more = fresh >= 0  # a column out of new entries generates nothing
        out.update((b, []) for b in todo[~more].tolist())
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
    in windows of rows of about `_BATCH_ENTRIES` entries in all, and a
    column leaves at the first window that holds its row."""
    seen = columns[todo[:, None], chosen]
    out = np.full(len(todo), -1, dtype=np.intp)
    left = np.arange(len(todo))  # positions still searching
    lo, rows = 0, columns.shape[1]
    while len(left) and lo < rows:
        hi = min(rows, lo + max(1, _BATCH_ENTRIES // len(left)))
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
    pairs: list[tuple[int, int]],
    prefixes: dict[int, list[int]],
    group: PermGroup,
) -> list[Optional[AutomorphismMap]]:
    """Per pair (b, j): the automorphism sending b's generating prefix of
    rows to column j's entries there, if it maps column b onto column j.

    With a table the pairs propagate in batches (`automorphism_lookups`),
    each prefix padded by repeating its rows, and the consistent ones are
    checked on whole columns, with the lookups narrowed to the columns'
    dtype; both batches hold about `_BATCH_ENTRIES` integer entries. Without
    one, each pair runs the conjugator search on its prefix's entries.
    """
    table, entries = group.table(), group.entries()
    if table is None:
        out: list[Optional[AutomorphismMap]] = []
        for b, j in pairs:
            rows = prefixes[b]
            phi = _conjugation(group.degree, *(list(map(entries.elem, columns[c, rows])) for c in (b, j)))
            if phi is not None and not np.array_equal(phi.image(columns[b], entries), columns[j]):
                phi = None
            out.append(phi)
        return out
    if not pairs:
        return []
    width = max(len(prefixes[b]) for b, _ in pairs)
    rows = np.array([(prefixes[b] * width)[:width] for b, _ in pairs])
    b, j = np.array(pairs).T
    # the lookups in the columns' dtype; a row of -1 (no automorphism)
    # wraps, and is read only as not ok
    lookups = np.empty((len(pairs), table.size), dtype=columns.dtype)
    ok = np.empty(len(pairs), dtype=bool)
    # `automorphism_lookups` holds one int32 image per pair and element of T
    per = max(1, _BATCH_ENTRIES // table.size)
    for lo in range(0, len(pairs), per):
        part = slice(lo, lo + per)
        found = automorphism_lookups(
            table, columns[b[part, None], rows[part]], columns[j[part, None], rows[part]]
        )
        ok[part] = found[:, 0] >= 0
        lookups[part] = found
    consistent = np.flatnonzero(ok)
    chunk = max(1, _BATCH_ENTRIES // columns.shape[1])
    for lo in range(0, len(consistent), chunk):
        part = consistent[lo:lo + chunk]
        images = np.take_along_axis(lookups[part], columns[b[part]], axis=1)
        ok[part] = (images == columns[j[part]]).all(axis=1)
    linked = lookups[ok]  # a copy of the linked rows: no link holds the failed pairs
    linked.flags.writeable = False
    kept = iter(linked)
    return [AutomorphismMap(lookup=next(kept)) if good else None for good in ok.tolist()]


def _conjugation(
    degree: int, sources: list[Permutation], targets: list[Permutation]
) -> Optional[AutomorphismMap]:
    """The unique automorphism of a natural alternating T with sources[i] ->
    targets[i], for sources generating T: a conjugation by Sym(degree)."""
    found = conjugating_permutations(sources, targets, degree)
    if len(found) > 1:
        raise InternalCheckError("conjugator is not unique")
    return AutomorphismMap(conjugator=found[0]) if found else None


def _blocks_from(base_of: Sequence[int], k: int) -> tuple[tuple[int, ...], ...]:
    by_base: dict[int, list[int]] = {}
    for j in range(k):
        by_base.setdefault(base_of[j], []).append(j)
    return tuple(tuple(sorted(v)) for _, v in sorted(by_base.items()))


def structures_equal(a: SubdirectStructure, b: SubdirectStructure) -> bool:
    """Same blocks and the same subgroup (mutual generator membership)."""
    if a.k != b.k or a.blocks != b.blocks:
        return False
    return b._holds(a.generators) and a._holds(b.generators)


# ---------------------------------------------------------------------------
# automorphism criteria for the n = 4 block count
# ---------------------------------------------------------------------------


def _phi_route(
    group: PermGroup, sources: list[Permutation], targets: list[Permutation]
) -> Optional[AutomorphismMap]:
    """Existence of an automorphism with the given images, by every route.

    Natural alternating groups go through the conjugator search (exact for
    degree != 6); groups with a table through table propagation; when both
    apply the routes must agree.
    """
    table = group.table()
    natural = is_natural_alternating(group)
    if table is None and not natural:
        raise ValidationError(
            "cannot decide automorphism existence: group is too large to enumerate "
            "and not natural alternating"
        )
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
