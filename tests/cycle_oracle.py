"""Test oracle: the full-cycle domain, one Permutation at a time.

`arccover.wreath.WreathContext` holds the (n-1)! full cycles (1, i2, ..., in)
as a walk array and its inverse. This oracle rebuilds the domain from
cycle notation: the cycles in the lex order of their tails, a cycle's class
by walking it from 1 to 2, and conjugates numbered by their
`Permutation.key()`. `twist_intersection` is the enumeration of L that
`wreath.twist_tops` replaced by a test of L's generators: L closed with
each element's conjugation map, and K = H ∩ H^g read off by one gather of
g's base per element. `class_partition` is the `class-partition` stage as a
loop over the cycle positions, one position at a time, that
`report._class_partition` replaced by a sort and the orbit labels of L's
comp maps (`groups.orbit_labels`); its orbit walk is a loop of its own.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from arccover.groups import closure, group_order
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


class _TopWithComps:
    """A top with its conjugation map, for `closure`:
    comp(u·s) = comp(s)[comp(u)]."""

    __slots__ = ("sigma", "comps")

    def __init__(self, sigma: Permutation, comps: np.ndarray):
        self.sigma = sigma
        self.comps = comps

    def __mul__(self, other: "_TopWithComps") -> "_TopWithComps":
        return _TopWithComps(self.sigma * other.sigma, other.comps[self.comps])

    def key(self) -> bytes:
        return self.sigma.key()


def twist_intersection(data) -> tuple[list[Permutation], list[Permutation]]:
    """L = Sym{3..n} in `closure` order, and K = H ∩ H^g: the elements τ of
    L with f = f[comp(τ)] for g = (f, (1,2)), every element of L tested."""
    n, f = data.ctx.n, data.g.f
    gens = [_TopWithComps(s, np.array(conjugation_map(n, s))) for s in data.l_top_gens]
    count = len(full_cycles(n))
    l_elems = closure(gens, _TopWithComps(Permutation.identity(n), np.arange(count)))
    return [z.sigma for z in l_elems], [z.sigma for z in l_elems if np.array_equal(f[z.comps], f)]


def class_partition(data) -> tuple[dict, bool]:
    """The `class-partition` stage's computed record and verdict for cover
    data, from class lists built position by position and each class's
    orbit walked one position at a time."""
    n, comp_map = data.ctx.n, data.ctx.comp_map
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(data.ctx.place[:, 1].tolist()):
        classes.setdefault(c, []).append(i)
    size = math.factorial(n - 2)
    sizes_ok = sorted(classes) == list(range(1, n)) and all(
        len(v) == size for v in classes.values()
    )
    partition_ok = sum(len(v) for v in classes.values()) == math.factorial(n - 1)
    regular = group_order(data.l_top_gens, n) == size
    l_maps = [comp_map(s) for s in data.l_top_gens]
    for positions in classes.values():
        walked, todo = {positions[0]}, [positions[0]]
        while todo:
            p = todo.pop()
            for m in l_maps:
                if int(m[p]) not in walked:
                    walked.add(int(m[p]))
                    todo.append(int(m[p]))
        if walked != set(positions):
            regular = False
    reflect = comp_map(data.delta)
    reflected = all(
        sorted(reflect[p] for p in classes[k]) == list(classes[n - k]) for k in classes
    )
    computed = {
        "classes": n - 1,
        "class_size": size,
        "partition": partition_ok,
        "regular": regular,
        "reflected": reflected,
    }
    return computed, sizes_ok and partition_ok and regular and reflected
