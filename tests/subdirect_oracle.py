"""Test oracles for `arccover.subdirect`: the decomposition of all the rows
at once through a `RowSifter` (`decompose_rows`), an order-keeping row
dedup (`distinct_rows`), and the column scan of `_decompose` one column at
a time, with a table (`decompose`).

The column scan is the one the batched decomposition replaced. Each column
compares its sorted order profiles (of its entries and of their products
with its entry in row 0) against every block base's, and a base with equal
profiles is tried by scalar propagation along the Cayley graph, after a BFS
proves that the base's prefix generates T.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from table_oracle import int32_table
from arccover.errors import ValidationError
from arccover.groups import PermGroup, TableGroup
from arccover.subdirect import RowSifter, SubdirectStructure


def distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer matrix, the first of each, in order."""
    matrix = np.ascontiguousarray(matrix)
    opaque = matrix.view(np.dtype((np.void, matrix.dtype.itemsize * matrix.shape[1]))).ravel()
    _, first = np.unique(opaque, return_index=True)
    return matrix[np.sort(first)]


def decompose_rows(
    rows, group: PermGroup, out_of_budget: Callable[[], bool] = lambda: False
) -> SubdirectStructure:
    """The block structure of the subgroup of T^k generated by `rows` (an
    integer matrix or k-tuples of entry ids), all sifted as one batch: S is
    then their distinct rows in input order, decomposed at once."""
    matrix = np.asarray(rows).astype(group.entries().dtype, copy=False)
    sifter = RowSifter(group, matrix.shape[1], out_of_budget)
    sifter.add(matrix)
    return sifter.structure()


def generates(table: TableGroup, sources: Sequence[int]) -> bool:
    """Whether the sources generate T, by BFS from the identity."""
    seen = {0}
    frontier = [0]
    while frontier:
        new_frontier = []
        for a in frontier:
            for s in sources:
                b = table.multiply(a, s)
                if b not in seen:
                    seen.add(b)
                    new_frontier.append(b)
        frontier = new_frontier
    return len(seen) == table.size


def extend_to_automorphism(
    table: TableGroup, sources: Sequence[int], targets: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """The lookup of the automorphism with sources[j] -> targets[j], or None;
    ValidationError unless the sources generate T."""
    if not generates(table, sources):
        raise ValidationError("sources do not generate the group")
    size = table.size
    lookup = [-1] * size
    lookup[0] = 0
    frontier = [0]
    while frontier:
        new_frontier = []
        for a in frontier:
            for s, t in zip(sources, targets):
                b = table.multiply(a, s)
                fb = table.multiply(lookup[a], t)
                if lookup[b] == -1:
                    lookup[b] = fb
                    new_frontier.append(b)
                elif lookup[b] != fb:
                    return None
        frontier = new_frontier
    if -1 in lookup or len(set(lookup)) != size:
        return None
    return tuple(lookup)


def generating_prefix(column: list, table: TableGroup) -> list[int]:
    """Rows of the first distinct entries, up to the first that generate T."""
    chosen: list[int] = []
    values: list = []
    for r, v in enumerate(column):
        if v in values:
            continue
        chosen.append(r)
        values.append(v)
        if len(values) > 1 and generates(table, values):
            return chosen
    return []


def decompose(matrix: np.ndarray, table: TableGroup):
    """(base_of, lookups) of the scan: per column its block base, and its
    link's lookup tuple (None at a base). The rows must be distinct."""
    matrix = matrix.astype(np.int64)
    k = matrix.shape[1]
    order_of = np.array(table.order_of, dtype=np.int64)
    orders = np.sort(order_of[matrix], axis=0)
    products = np.sort(order_of[int32_table(table.group)[0][matrix, matrix[0]]], axis=0)
    fingerprints = [a.tobytes() + b.tobytes() for a, b in zip(orders.T, products.T)]
    base_of = list(range(k))
    lookups: list[Optional[tuple[int, ...]]] = [None] * k
    prefixes: dict[int, list[int]] = {}
    for j in range(k):
        column = matrix[:, j]
        for b, prefix in prefixes.items():
            if fingerprints[b] != fingerprints[j]:
                continue
            lookup = extend_to_automorphism(
                table, matrix[prefix, b].tolist(), column[prefix].tolist()
            )
            if lookup is not None and np.array_equal(np.array(lookup)[matrix[:, b]], column):
                base_of[j] = b
                lookups[j] = lookup
                break
        else:
            prefixes[j] = generating_prefix(column.tolist(), table)
            if not prefixes[j]:
                raise ValidationError(f"component {j} projection generates a proper subgroup")
    return base_of, lookups
