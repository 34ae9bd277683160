"""Test oracle: the multiplication table of `arccover.groups.TableGroup` as
it was built before the compact table.

The same BFS of row gathers fills an int32 table; the inverses are the
positions of the identity in a full-size `mult == 0`, and each element's
order comes from `Permutation.order`, one element at a time.
"""

from __future__ import annotations

import numpy as np

from arccover.groups import PermGroup, closure


def int32_table(group: PermGroup) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """(mult, inv, order_of) of the group's elements in `closure` order."""
    elems = closure(group.generators, group.identity)
    index = {p.key(): i for i, p in enumerate(elems)}
    size = len(elems)

    def lookup(images: np.ndarray) -> np.ndarray:
        keys = (images + 1).astype(np.uint8)
        return np.array([index[r.tobytes()] for r in keys], dtype=np.intp)

    mat = np.array([p.images for p in elems], dtype=np.intp) - 1
    gens = [index[g.key()] for g in group.generators]
    maps = [(lookup(mat[s][mat]).tolist(), lookup(mat[:, mat[s]])) for s in gens]
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
    assert len(rows) == size
    inv_rows, inv = np.nonzero(mult == 0)
    assert np.array_equal(inv_rows, np.arange(size))
    return mult, tuple(inv.tolist()), tuple(p.order() for p in elems)
