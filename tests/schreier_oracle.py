"""Test oracle: Schreier generators of a kernel, one group element at a time.

This is the generic routine that `arccover.wreath.schreier_rows` replaced. It
works for any elements with `*`, `.inverse()` and `.key()` and any projection
onto Permutations, so it also checks kernels that have nothing to do with the
cover construction. `all_rows` collects every row `schreier_rows` forms, for
the routes that read them all.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from arccover.errors import CapacityExceeded, InternalCheckError
from arccover.groups import ENUM_CAP_DEFAULT
from arccover.subdirect import _entry_rows
from arccover.wreath import schreier_rows


def all_rows(data, image_cap: int = ENUM_CAP_DEFAULT, out_of_budget: Callable = lambda: False):
    """The distinct rows of every batch `schreier_rows` forms, in order (the
    kernel's Schreier generators without the identity, as an entry matrix),
    and the number of tops it reached."""
    batches = []
    tops = schreier_rows(data, batches.append, image_cap, out_of_budget)
    return _entry_rows(np.concatenate(batches), data.job.group), tops


def schreier_kernel_generators(
    generators: Sequence, project: Callable, identity, image_cap: int = 100_000
) -> list:
    """Generators of the kernel of a homomorphism, by the Schreier method.

    `project(w)` maps a group element to its image (a Permutation); the
    image group is enumerated by BFS (capacity-limited), one coset
    representative per image element, and the kernel is generated by the
    elements u_c * s * u_{project(u_c * s)}^-1 over all representatives u_c
    and generators s. Output is deduplicated by key, identity dropped, and
    every element is checked to project trivially.
    """
    id_image = project(identity)
    transversal = {id_image.key(): identity}
    rep_inverses: dict[bytes, object] = {}
    identity_key = identity.key()
    out = []
    seen: set[bytes] = set()
    frontier = [identity]
    while frontier:
        new_frontier = []
        for u in frontier:
            for s in generators:
                w = u * s
                c = project(w).key()
                rep = transversal.get(c)
                if rep is None:
                    # w is the representative of its coset: this pair's
                    # Schreier generator is w * w^-1, skipped as the identity
                    transversal[c] = w
                    new_frontier.append(w)
                    if len(transversal) > image_cap:
                        raise CapacityExceeded(
                            f"quotient enumeration exceeded cap {image_cap}",
                            discovered=len(transversal),
                        )
                    continue
                rep_inv = rep_inverses.get(c)
                if rep_inv is None:
                    rep_inv = rep.inverse()
                    rep_inverses[c] = rep_inv
                z = w * rep_inv
                k = z.key()
                if k in seen or k == identity_key:
                    continue
                seen.add(k)
                if not project(z).is_identity():
                    raise InternalCheckError("Schreier output does not project trivially")
                out.append(z)
        frontier = new_frontier
    return out
