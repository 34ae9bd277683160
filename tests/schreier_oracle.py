"""Test oracles: Schreier generators of a kernel, by a BFS over its image.

`schreier_rows` is the route that the pipeline's kernel-generators stage
took before it computed M as the normal closure of the kernel witness
(`arccover.wreath.normal_closure`): a BFS over all n! tops of Y that forms
the kernel's Schreier generators as rows. It reaches M by a different
argument (Schreier's lemma, with no presentation of Sym(n)), so the tests
compare the two routes' block structures. `all_rows` collects every row it
forms, for the routes that read them all.

`schreier_kernel_generators` is the generic routine that `schreier_rows`
replaced. It works for any elements with `*`, `.inverse()` and `.key()` and
any projection onto Permutations, so it also checks kernels that have
nothing to do with the cover construction.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from subdirect_oracle import distinct_rows
from arccover.errors import BudgetExhausted, CapacityExceeded, InternalCheckError
from arccover.groups import BATCH_ENTRIES, ENUM_CAP_DEFAULT, DistinctRows
from arccover.wreath import CoverGroupData, WreathContext, _lehmer_ranks


def all_rows(data, image_cap: int = ENUM_CAP_DEFAULT, out_of_budget: Callable = lambda: False):
    """The distinct rows of every batch `schreier_rows` forms, in order (the
    kernel's Schreier generators without the identity, as an entry matrix),
    and the number of tops it reached."""
    batches = []
    tops = schreier_rows(data, batches.append, image_cap, out_of_budget)
    return distinct_rows(np.concatenate(batches)), tops


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


def _pair_classes(ctx: WreathContext) -> np.ndarray:
    """The class of every cycle after conjugation by a top σ, as a function
    of the pair (p, q) = (σ^-1(1), σ^-1(2)) of 0-based points, in row p·n + q.

    The class of β = α^σ is the k with 1^(β^k) = 2, i.e. with p^(α^k) = q:
    the number of steps from p to q along α, (place[α, q] - place[α, p]) mod n.
    """
    n = ctx.n
    place = np.ascontiguousarray(ctx.place.T)  # so that the rows come out contiguous
    # in uint8 throughout: n + place[q] - place[p] lies in 1..2n-1
    steps = (place + n)[None, :, :] - place[:, None, :]
    steps %= n
    return steps.reshape(n * n, ctx.k)


def schreier_rows(
    data: CoverGroupData,
    sift: Callable[[np.ndarray], None],
    image_cap: int = ENUM_CAP_DEFAULT,
    out_of_budget: Callable[[], bool] = lambda: False,
) -> int:
    """Schreier generators of the kernel of the top projection Y -> Sym(n),
    handed to `sift` in batches as the rows of entry matrices; returns the
    number of tops reached.

    A BFS over the tops of Y, frontier by frontier, tries each representative
    u against each generator s of `data.y_gens` in turn. A top met for the
    first time makes u*s its representative; every other pair gives the
    kernel element u*s*rep(u*s)^-1. Its two factors share a top, so its row
    is entrywise: f_us(a) * f_rep(a)^-1. Rows come in discovery order, in
    T's entry dtype, and their products are T's entry arithmetic
    (`WreathContext.entries`). No row is kept here: the caller sifts them
    (`subdirect.RowSifter`), and the distinct rows of all the batches, in
    order, are the kernel's Schreier generators without the identity.

    The row of u*s is u's row times s's base read through u's comp map.
    Every generator's base is constant on each class of cycles (only g's is
    not trivial: `class_assignment`), and the class of a cycle conjugated by
    u's top σ depends only on σ^-1(1) and σ^-1(2) (`_pair_classes`), so that
    read is one of n^2 rows per generator, picked by two points of σ. Tops
    are numbered by their ranks in Sym(n).

    Few of the n! tops have distinct rows, so base rows are held once each
    (`DistinctRows`) and a top holds the number of its row. A moved row is
    then a function of u's row number, s and, when s's base is not trivial,
    u's two points, computed once per frontier; a kernel row is a function
    of the pair of row numbers, formed once, in the frontier that first
    meets the pair and in pair order. Rows are computed in batches of about
    `BATCH_ENTRIES` entries; one batch is one call of `sift`.

    Raises CapacityExceeded once more than `image_cap` tops are reached, and
    BudgetExhausted, with the tops reached, when `out_of_budget()` holds
    between two frontiers.
    """
    ctx = data.ctx
    n, k = ctx.n, ctx.k
    # per generator: its top's 0-based images, and its base read through
    # each pair's classes when that base is not trivial
    classes = _pair_classes(ctx)
    gens = []
    for s in data.y_gens:
        read = None
        if not np.array_equal(s.f, ctx.identity_row):
            by_class = np.zeros(n, dtype=ctx.dtype)
            by_class[classes[1]] = s.f  # (p, q) = (0, 1) at the identity top
            if not np.array_equal(by_class[classes[1]], s.f):
                raise InternalCheckError("a generator's base is not constant on cycle classes")
            read = by_class[classes]
        gens.append((np.array(s.sigma.images, dtype=np.uint8) - 1, read))

    base_rows = DistinctRows(k, ctx.dtype)  # every distinct row of a representative or u*s
    base_rows.add(ctx.identity_row)
    row_of = np.full(math.factorial(n), -1, dtype=np.int32)  # top rank -> its row number
    row_of[0] = 0
    count = 1
    tops = np.arange(n, dtype=np.uint8)[None]
    ids = np.zeros(1, dtype=np.int32)  # the frontier's row numbers
    # sorted codes of the row-number pairs formed so far, then a sentinel
    # above every code, so that a search always lands on an entry
    formed = np.full(1, np.iinfo(np.int64).max)
    chunk = max(1, BATCH_ENTRIES // k)  # rows per batch: its int index array fits in cache

    def products(left: np.ndarray, right: Callable):
        """The rows base_rows[left] · right(slice), batch by batch."""
        for lo in range(0, len(left), chunk):
            part = slice(lo, lo + chunk)
            yield part, ctx.entries.product(base_rows.take(left[part]), right(part))

    while len(tops):
        # pair p = u * len(gens) + j is frontier position u times generator j
        moved_tops = np.stack([t[tops] for t, _ in gens], axis=1).reshape(-1, n)
        ranks = _lehmer_ranks(moved_tops)
        unknown = np.flatnonzero(row_of[ranks] < 0)
        _, first = np.unique(ranks[unknown], return_index=True)
        fresh = unknown[np.sort(first)]
        if count + len(fresh) > image_cap:
            raise CapacityExceeded(
                f"quotient enumeration exceeded cap {image_cap}",
                discovered=max(count, image_cap) + 1,
            )
        # the row number of u*s_j: u's own under a trivial base of s_j, else
        # one product per distinct pair of u's row number and u's read row
        # σ^-1(1)·n + σ^-1(2)
        moved = np.repeat(ids[:, None], len(gens), axis=1)
        pq = np.argmax(tops == 0, axis=1) * n + np.argmax(tops == 1, axis=1)
        for j, (_, read) in enumerate(gens):
            if read is not None:
                codes, back = np.unique(ids.astype(np.intp) * n * n + pq, return_inverse=True)
                numbers, points = np.divmod(codes, n * n)
                found = np.empty(len(numbers), dtype=np.int32)
                for part, rows in products(numbers, lambda part: read[points[part]]):
                    found[part] = [base_rows.add(row) for row in rows]
                moved[:, j] = found[back]
        moved = moved.reshape(-1)
        row_of[ranks[fresh]] = moved[fresh]
        is_pair = np.ones(len(moved), dtype=bool)
        is_pair[fresh] = False
        # equal row numbers give the identity row, which is never formed
        left, right = moved[is_pair], row_of[ranks[is_pair]]
        differ = left != right
        left, right = left[differ], right[differ]
        codes, first = np.unique(left.astype(np.int64) << 32 | right, return_index=True)
        new = formed[np.searchsorted(formed, codes)] != codes  # else an earlier frontier formed it
        formed = np.sort(np.concatenate([formed, codes[new]]))
        first = np.sort(first[new])
        left, right = left[first], right[first]
        for _, rows in products(left, lambda part: ctx.entries.inverse(base_rows.take(right[part]))):
            sift(rows)
        count += len(fresh)
        tops, ids = moved_tops[fresh], moved[fresh]
        if len(tops) and out_of_budget():
            raise BudgetExhausted("time budget exhausted", tops_reached=count)
    return count
