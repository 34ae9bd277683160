"""Decomposition of subdirect subgroups of T^k into linked diagonal blocks.

A subgroup M <= T^k (T nonabelian simple) that projects onto every component
is a direct product of full diagonal subgroups: the components split into
blocks, each block carries linking automorphisms from a base component, and
M = { z : z_j = link_j(z_base) within each block }. This module computes that
structure exactly from a generating set, plus the specific automorphism
criteria that predict the block count for the n = 4 construction.

Entries of T come in one format, the one `WreathContext` uses: indices into
`PermGroup.table()` when T has a table (|T| <= TABLE_CAP), Permutations
otherwise. The same fact picks the linking route: propagation through the
table, or else the conjugator search, which needs T natural alternating.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InternalCheckError, ValidationError
from .groups import (
    AutomorphismMap,
    PermGroup,
    TableGroup,
    conjugating_permutations,
    extend_to_automorphism,
    is_natural_alternating,
)
from .perm import Permutation


@dataclass(frozen=True)
class SubdirectStructure:
    """Blocks and linking maps of a subdirect subgroup of T^k."""

    k: int
    blocks: tuple[tuple[int, ...], ...]
    links: tuple[Optional[AutomorphismMap], ...]  # None exactly at block bases
    base_of: tuple[int, ...]  # component -> base component of its block
    generators: tuple[tuple, ...]  # the distinct generating rows, in input order
    group: PermGroup

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def order(self) -> int:
        return self.group.order() ** self.block_count

    def contains(self, row: Sequence) -> bool:
        """Membership of a row of k entries: within each block every entry
        follows its linking map."""
        _, row = _entry_rows([row], self.group, self.k)
        for j, (base, link) in enumerate(zip(self.base_of, self.links)):
            expect = row[:, base] if link is None else _image(link, row[:, base], self.group)
            if not np.array_equal(row[:, j], expect):
                return False
        return True


def _entry_rows(
    gens: Sequence, group: PermGroup, k: Optional[int] = None
) -> tuple[list[tuple], np.ndarray]:
    """The distinct rows of `gens`, in input order, and their entry matrix.

    `gens` is a 2-D integer matrix of rows, as `schreier_rows` returns with
    a table, or a sequence of rows, all of one length (k, if given). Entries
    must be elements of T in its entry format: int indices 0..|T|-1 with a
    table (a bool is not an int here), held as int32; Permutations lying in
    T without one, as an object matrix. Anything else is a ValidationError.
    """
    if isinstance(gens, np.ndarray) and gens.ndim == 2 and gens.dtype.kind in "iu":
        rows = None  # one width, int entries by its dtype
        widths = {gens.shape[1]} if len(gens) else set()
        found = {int}
    else:
        rows = [tuple(z) for z in gens]
        widths = set(map(len, rows))
        found = set(map(type, itertools.chain.from_iterable(rows)))
    if len(widths) != 1 or 0 in widths or (k is not None and widths != {k}):
        want = "one positive length" if k is None else f"length {k}"
        raise ValidationError(f"rows must have {want}, got lengths {sorted(widths)}")
    table = group.table()
    kind = int if table is not None else Permutation
    if found != {kind}:
        want = "int table indices" if table is not None else "Permutations"
        got = ", ".join(sorted(t.__name__ for t in found - {kind}))
        raise ValidationError(f"entries of T must be {want}, got {got}")
    if rows is None:
        _, first = np.unique(gens, axis=0, return_index=True)
        matrix = gens[np.sort(first)]
        rows = list(map(tuple, matrix.tolist()))
    else:
        rows = list(dict.fromkeys(rows))
        matrix = np.array(rows, dtype=object if table is None else None)
    if table is None:
        if not all(map(group.contains, matrix.flat)):
            raise ValidationError("an entry is not an element of T")
        return rows, matrix
    if matrix.min() < 0 or matrix.max() >= table.size:
        raise ValidationError(f"entries of T must be table indices 0..{table.size - 1}")
    return rows, matrix.astype(np.int32)


def _image(phi: AutomorphismMap, column: np.ndarray, group: PermGroup) -> np.ndarray:
    """phi applied to a column of entries, in the column's format."""
    if phi.lookup is not None:
        return phi.lookup_array(group)[column]
    return np.frompyfunc(phi.apply, 1, 1)(column)


def subdirect_decompose(gens: Sequence, group: PermGroup) -> SubdirectStructure:
    """Block structure of the subgroup of T^k generated by `gens`.

    Rows are an integer matrix (`schreier_rows`' output with a table) or
    k-tuples, with entries in T's entry format (module docstring).
    Components are scanned in order: each is linked to the first earlier
    block base whose generating prefix of rows extends to an automorphism
    mapping the base's whole column onto it, and otherwise becomes a base
    itself, which must generate T. A linked column needs no check: it is the
    image of a generating column.
    """
    table = group.table()
    if table is None and not is_natural_alternating(group):
        raise ValidationError(
            "without a multiplication table (|T| > TABLE_CAP) the decomposition "
            "needs T to be a natural alternating group"
        )
    rows, matrix = _entry_rows(gens, group)
    k = matrix.shape[1]

    # invariant under any entrywise automorphism: the sorted order profile of
    # the column, refined by the profile of products with the first row
    if table is not None:
        order_of = np.array(table.order_of, dtype=np.int32)
        orders = order_of[matrix]
        prod_orders = order_of[table.mult[matrix, matrix[0]]]
    else:
        order_of = np.frompyfunc(Permutation.order, 1, 1)
        orders = order_of(matrix).astype(np.int32)
        prod_orders = order_of(matrix * matrix[0]).astype(np.int32)
    fingerprints = [
        a.tobytes() + b.tobytes()
        for a, b in zip(np.sort(orders, axis=0).T, np.sort(prod_orders, axis=0).T)
    ]

    base_of = list(range(k))
    links: list[Optional[AutomorphismMap]] = [None] * k
    prefixes: dict[int, list[int]] = {}  # block base -> its generating rows
    for j in range(k):
        column = matrix[:, j]
        for b, prefix in prefixes.items():
            if fingerprints[b] != fingerprints[j]:
                continue
            phi = _automorphism(
                table, group.degree, matrix[prefix, b].tolist(), column[prefix].tolist()
            )
            if phi is not None and np.array_equal(_image(phi, matrix[:, b], group), column):
                base_of[j] = b
                links[j] = phi
                break
        else:
            prefixes[j] = _generating_prefix(column.tolist(), group)
            if not prefixes[j]:
                raise ValidationError(f"component {j} projection generates a proper subgroup")

    return SubdirectStructure(
        k=k,
        blocks=_blocks_from(base_of, k),
        links=tuple(links),
        base_of=tuple(base_of),
        generators=tuple(rows),
        group=group,
    )


def _generating_prefix(column: list, group: PermGroup) -> list[int]:
    """Rows holding the first distinct entries of a column, up to the first
    that generate T together (one element never does); [] if none do."""
    table = group.table()
    chosen: list[int] = []
    values: list = []
    for r, v in enumerate(column):
        if v in values:
            continue
        chosen.append(r)
        values.append(v)
        if len(values) > 1 and (
            table.generates(values) if table is not None
            else group.subgroup_order(values) == group.order()
        ):
            return chosen
    return []


def _automorphism(
    table: Optional[TableGroup], degree: int, sources: list, targets: list
) -> Optional[AutomorphismMap]:
    """The unique automorphism of T with sources[i] -> targets[i], or None.

    The sources generate T. With a table they are indices and the images
    propagate through it; without one they are Permutations of a natural
    alternating T, whose automorphisms are the conjugations by Sym(degree).
    """
    if table is not None:
        return extend_to_automorphism(table, sources, targets)
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
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


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
    shortcut = _automorphism(None, group.degree, sources, targets) if natural else None
    if table is None:
        return shortcut
    phi = _automorphism(
        table, group.degree, [table.idx(s) for s in sources], [table.idx(t) for t in targets]
    )
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
