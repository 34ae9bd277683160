"""Test oracle: the full-cycle domain, one Permutation at a time.

`arccover.wreath.WreathContext` holds the (n-1)! full cycles (1, i2, ..., in)
as a walk array and its inverse. This oracle rebuilds the domain from
cycle notation: the cycles in the lex order of their tails, a cycle's class
by walking it from 1 to 2, and conjugates numbered by their
`Permutation.key()`.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from arccover.perm import Permutation, parse_cycles


@lru_cache(maxsize=None)
def full_cycles(n: int) -> tuple[Permutation, ...]:
    """All cycles (1, i2, ..., in) of degree n, in lex order of the tail."""
    return tuple(
        parse_cycles("(" + ",".join(map(str, (1,) + tail)) + ")", n)
        for tail in itertools.permutations(range(2, n + 1))
    )


@lru_cache(maxsize=None)
def cycle_index(n: int) -> dict[bytes, int]:
    """`Permutation.key()` of each full cycle -> its index."""
    return {c.key(): i for i, c in enumerate(full_cycles(n))}


def cycle_class(alpha: Permutation) -> int:
    """The number of steps from 1 to 2 along the full cycle alpha."""
    point = 1
    for steps in range(1, alpha.degree):
        point = alpha.apply(point)
        if point == 2:
            return steps
    raise AssertionError(f"2 is not on the cycle of 1 in {alpha.cycle_string()}")


def class_positions(n: int) -> dict[int, list[int]]:
    """Class k -> the indices of the cycles of class k."""
    out: dict[int, list[int]] = {k: [] for k in range(1, n)}
    for i, alpha in enumerate(full_cycles(n)):
        out[cycle_class(alpha)].append(i)
    return out


def conjugation_map(n: int, sigma: Permutation) -> list[int]:
    """Per index i, the index of the conjugate sigma^-1 · cycle i · sigma."""
    index = cycle_index(n)
    return [index[c.conjugate(sigma).key()] for c in full_cycles(n)]
