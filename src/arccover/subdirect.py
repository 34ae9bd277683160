"""Decomposition of subdirect subgroups of T^k into linked diagonal blocks.

A subgroup M <= T^k (T nonabelian simple) that projects onto every component
is a direct product of full diagonal subgroups: the components split into
blocks, each block carries linking automorphisms from a base component, and
M = { z : z_j = link_j(z_base) within each block }. This module computes that
structure exactly from a generating set, plus the specific automorphism
criteria that predict the block count for the n = 4 construction.
"""

from __future__ import annotations

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
    group_order,
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
    generators: tuple[tuple, ...]  # the generating rows this was computed from
    table: Optional[TableGroup] = None
    group: Optional[PermGroup] = None

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def order(self) -> int:
        t_order = self.table.size if self.table is not None else self.group.order()
        return t_order ** self.block_count

    def contains(self, z) -> bool:
        """Membership: within each block every entry follows its linking map."""
        entries = _entry_tuple(z, self.k)
        if self.table is not None:
            entries = tuple(
                self.table.idx(e) if isinstance(e, Permutation) else e for e in entries
            )
            for j in range(self.k):
                base = self.base_of[j]
                link = self.links[j]
                expect = entries[base] if link is None else link.apply_index(entries[base])
                if entries[j] != expect:
                    return False
            return True
        for j in range(self.k):
            if not isinstance(entries[j], Permutation):
                raise ValidationError("object-mode membership needs Permutation entries")
            base = self.base_of[j]
            link = self.links[j]
            expect = entries[base] if link is None else link.apply(entries[base])
            if entries[j] != expect:
                return False
        return all(self.group.contains(entries[blk[0]]) for blk in self.blocks)


def _entry_tuple(z, k: int) -> tuple:
    from .wreath import WreathElement

    if isinstance(z, WreathElement):
        if not z.sigma.is_identity():
            raise ValidationError("element has a nontrivial top part")
        entries = z.f
    else:
        entries = tuple(z)
    if len(entries) != k:
        raise ValidationError(f"expected {k} components, got {len(entries)}")
    return tuple(entries)


def _generator_rows(gens: Sequence) -> list[tuple]:
    from .wreath import WreathElement

    if not gens:
        raise ValidationError("need at least one generator")
    g0 = gens[0]
    width = len(g0.f) if isinstance(g0, WreathElement) else len(tuple(g0))
    return [_entry_tuple(g, width) for g in gens]


def subdirect_decompose(
    gens: Sequence,
    table: Optional[TableGroup] = None,
    group: Optional[PermGroup] = None,
) -> SubdirectStructure:
    """Block structure of the subgroup of T^k generated by `gens`.

    Rows may be WreathElements with trivial top part or plain k-tuples over T
    (indices when a table is given, Permutations otherwise). Every component
    projection must generate T. Components are linked iff the (unique)
    automorphism matching their generator columns exists; linking is verified
    on every generator row before being accepted.
    """
    if (table is None) == (group is None):
        raise ValidationError("pass exactly one of table=, group=")
    rows = _generator_rows(gens)
    k = len(rows[0])
    if table is not None:
        rows = [
            tuple(table.idx(e) if isinstance(e, Permutation) else int(e) for e in row)
            for row in rows
        ]
        return _decompose_table(rows, k, table)
    return _decompose_object(rows, k, group)


def _decompose_table(rows: list[tuple], k: int, table: TableGroup) -> SubdirectStructure:
    matrix = np.unique(np.array(rows, dtype=np.int32), axis=0)
    n_rows = matrix.shape[0]
    orders = np.array(table.order_of, dtype=np.int32)

    for j in range(k):
        if not table.generates(set(matrix[:, j].tolist())):
            raise ValidationError(f"component {j} projection generates a proper subgroup")

    # invariant under any entrywise automorphism: the sorted order profile of
    # the column, refined by the profile of products with the first row
    sorted_orders = np.sort(orders[matrix], axis=0)
    prod = table.mult[matrix, matrix[0]]
    sorted_prod_orders = np.sort(orders[prod], axis=0)
    fingerprints = [
        sorted_orders[:, j].tobytes() + sorted_prod_orders[:, j].tobytes()
        for j in range(k)
    ]

    base_rows: dict[int, list[int]] = {}

    def rows_generating(j: int) -> list[int]:
        chosen: list[int] = []
        vals: list[int] = []
        for r in range(n_rows):
            v = int(matrix[r, j])
            if v in vals:
                continue
            chosen.append(r)
            vals.append(v)
            if table.generates(vals):
                return chosen
        raise InternalCheckError("column stopped generating between two checks")

    base_of = list(range(k))
    links: list[Optional[AutomorphismMap]] = [None] * k
    bases: list[int] = []
    for j in range(k):
        linked = False
        for b in bases:
            if fingerprints[b] != fingerprints[j]:
                continue
            rows_b = base_rows[b]
            phi = extend_to_automorphism(
                table,
                [int(matrix[r, b]) for r in rows_b],
                [int(matrix[r, j]) for r in rows_b],
            )
            if phi is None:
                continue
            if np.array_equal(phi.lookup_array()[matrix[:, b]], matrix[:, j]):
                base_of[j] = b
                links[j] = phi
                linked = True
                break
        if not linked:
            bases.append(j)
            base_rows[j] = rows_generating(j)

    blocks = _blocks_from(base_of, k)
    return SubdirectStructure(
        k=k,
        blocks=blocks,
        links=tuple(links),
        base_of=tuple(base_of),
        generators=tuple(map(tuple, matrix.tolist())),
        table=table,
    )


def _decompose_object(rows: list[tuple], k: int, group: PermGroup) -> SubdirectStructure:
    rows = list(dict.fromkeys(rows))
    degree = group.degree
    t_order = group.order()
    if not is_natural_alternating(group):
        raise ValidationError(
            "object-mode decomposition requires a natural alternating group; "
            "enumerate T and pass a table instead"
        )
    # the shortest generating prefix of each column's rows: one element
    # generates a cyclic group, never T, so prefixes start at two rows; the
    # whole column generates T iff such a prefix exists and the rest lies in T
    prefix: list[int] = []
    for j in range(k):
        column = [row[j] for row in rows]
        length = next(
            (m for m in range(2, len(rows) + 1)
             if group_order(column[:m], degree) == t_order),
            None,
        )
        if length is None or not all(map(group.contains, column[length:])):
            raise ValidationError(f"component {j} projection generates a proper subgroup")
        prefix.append(length)

    fingerprints = [
        tuple(sorted(row[j].order() for row in rows)) for j in range(k)
    ]

    base_of = list(range(k))
    links: list[Optional[AutomorphismMap]] = [None] * k
    bases: list[int] = []
    for j in range(k):
        linked = False
        for b in bases:
            if fingerprints[b] != fingerprints[j]:
                continue
            base_rows = rows[: prefix[b]]
            candidates = conjugating_permutations(
                [row[b] for row in base_rows], [row[j] for row in base_rows], degree
            )
            survivors = [
                c
                for c in candidates
                if all(row[b].conjugate(c) == row[j] for row in rows)
            ]
            if len(survivors) > 1:
                raise InternalCheckError("linking map is not unique")
            if survivors:
                base_of[j] = b
                links[j] = AutomorphismMap(conjugator=survivors[0])
                linked = True
                break
        if not linked:
            bases.append(j)

    blocks = _blocks_from(base_of, k)
    return SubdirectStructure(
        k=k,
        blocks=blocks,
        links=tuple(links),
        base_of=tuple(base_of),
        generators=tuple(rows),
        group=group,
    )


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
    """Existence of an automorphism with the given images, by the best route.

    Natural alternating groups go through the conjugator search (exact for
    degree != 6); enumerable groups through table propagation; when both
    apply the routes must agree.
    """
    shortcut = None
    have_shortcut = is_natural_alternating(group)
    if have_shortcut:
        found = conjugating_permutations(sources, targets, group.degree)
        if len(found) > 1:
            raise InternalCheckError("conjugator is not unique")
        shortcut = AutomorphismMap(conjugator=found[0]) if found else None
    table = group.table()
    if table is not None:
        phi = extend_to_automorphism(
            table, [table.idx(s) for s in sources], [table.idx(t) for t in targets]
        )
        if have_shortcut and (phi is None) != (shortcut is None):
            raise InternalCheckError("automorphism routes disagree")
        return phi
    if have_shortcut:
        return shortcut
    raise ValidationError(
        "cannot decide automorphism existence: group is too large to enumerate "
        "and not natural alternating"
    )


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
    if group_order(sources, group.degree) != group.order():
        raise ValidationError("criterion sources do not generate T")
    return _phi_route(group, sources, targets)


def k4_block_count(group: PermGroup, x: Permutation, y: Permutation) -> int:
    """Predicted block count at n = 4: 1, 3, or 6 by the automorphism criteria."""
    if inverting_automorphism(group, x, y) is None:
        return 6
    if cross_automorphism(group, x, y) is None:
        return 3
    return 1


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
