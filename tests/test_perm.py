"""Permutation arithmetic, cycle notation, and the full-cycle domain
(`WreathContext.walk` and `place`) against its oracle."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from cycle_oracle import cycle_class, full_cycles
from arccover.catalog import resolve_group
from arccover.errors import ParseError, ValidationError
from arccover.perm import Permutation, parse_cycles
from arccover.wreath import WreathContext

A5 = resolve_group("A5")


def P(text, degree):
    return parse_cycles(text, degree)


def test_parse_basic():
    assert P("(1,2,3,4)", 4).images == (2, 3, 4, 1)
    assert P("", 4) == Permutation.identity(4)
    assert P("()", 4) == Permutation.identity(4)
    assert P("(1,2)(3,6)", 11).images == (2, 1, 6, 4, 5, 3, 7, 8, 9, 10, 11)


def test_parse_roundtrip():
    rng = random.Random(2024)
    for _ in range(200):
        degree = rng.randrange(2, 12)
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        p = Permutation(images)
        assert parse_cycles(p.cycle_string(), degree) == p


def test_parse_errors_name_offender():
    with pytest.raises(ParseError, match="repeated point 2"):
        parse_cycles("(1,2)(2,3)", 4)
    with pytest.raises(ParseError, match="out of range"):
        parse_cycles("(1,12)", 11)
    with pytest.raises(ParseError):
        parse_cycles("(1,2", 4)
    with pytest.raises(ParseError):
        parse_cycles("1,2)", 4)
    with pytest.raises(ParseError, match="'x'"):
        parse_cycles("(1,2)x(3,4)", 4)
    with pytest.raises(ParseError):
        parse_cycles("(1,,2)", 4)


def test_compose_right_action():
    # hand oracle: i^(p*q) = (i^p)^q, so (1,2,3,4)*(3,4) maps 1->2, 2->4, 4->1
    p = P("(1,2,3,4)", 4)
    q = P("(3,4)", 4)
    assert (p * q).cycle_string() == "(1,2,4)"
    assert (q * p).cycle_string() == "(1,2,3)"


def test_inverse_and_power():
    p = P("(1,2,3,4,5)", 5)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p**5 == Permutation.identity(5)
    assert p**-1 == p.inverse()
    assert p**2 == p * p


def test_orders():
    assert P("(1,2)(3,4)", 5).order() == 2
    assert P("(1,2,3,4,5)", 5).order() == 5
    assert Permutation.identity(5).order() == 1
    assert P("(1,2)(3,4,5)", 5).order() == 6


def test_conjugation_relabels():
    # (1,2,3,4)^(3,4) relabels 3<->4 inside the cycle
    p = P("(1,2,3,4)", 4)
    assert p.conjugate(P("(3,4)", 4)) == P("(1,2,4,3)", 4)
    assert p.conjugate(P("(2,3,4)", 4)) == P("(1,3,4,2)", 4)
    assert p.conjugate(Permutation.identity(4)) == p


def test_associativity_random_triples():
    rng = random.Random(777)
    perms = []
    for _ in range(60):
        images = list(range(1, 8))
        rng.shuffle(images)
        perms.append(Permutation(images))
    for _ in range(10_000):
        a, b, c = rng.choice(perms), rng.choice(perms), rng.choice(perms)
        assert (a * b) * c == a * (b * c)


def test_n_cycles_canonical_order():
    """The context's walks list the full cycles in the oracle's order, lex
    on the tail, and `position` numbers them in it."""
    assert [c.cycle_string() for c in full_cycles(4)] == [
        "(1,2,3,4)",
        "(1,2,4,3)",
        "(1,3,2,4)",
        "(1,3,4,2)",
        "(1,4,2,3)",
        "(1,4,3,2)",
    ]
    for n in range(3, 9):
        ctx = WreathContext(n, A5)
        cycles = full_cycles(n)
        assert ctx.k == len(cycles) == math.factorial(n - 1)
        assert (ctx.walk + 1).tolist() == [list(c.cycles()[0]) for c in cycles]
        assert [ctx.position(c) for c in cycles] == list(range(ctx.k))
        # place is the inverse of walk
        rows = np.arange(ctx.k)[:, None]
        assert (ctx.place[rows, ctx.walk] == np.arange(n)).all()
    with pytest.raises(ValidationError):
        WreathContext(2, A5)


def test_cycle_class_values():
    """A cycle's class, place[:, 1], is the oracle's walk from 1 to 2, and
    `position` rejects every permutation that is not a full cycle of
    degree n."""
    ctx = WreathContext(4, A5)
    classes = ctx.place[:, 1]
    assert classes[ctx.position(P("(1,2,3,4)", 4))] == 1
    assert classes[ctx.position(P("(1,3,2,4)", 4))] == 2
    assert classes[ctx.position(P("(1,4,3,2)", 4))] == 3
    for n in range(3, 9):
        ctx = WreathContext(n, A5)
        assert ctx.place[:, 1].tolist() == [cycle_class(c) for c in full_cycles(n)]
    ctx = WreathContext(4, A5)
    # two 2-cycles, a cycle through 1 and 2 that misses a point, one that
    # misses 2, the identity, and full cycles of the wrong degree
    for text in ("(1,2)(3,4)", "(1,3)(2,4)", "(1,2,3)", "(1,3,4)", "()"):
        with pytest.raises(ValidationError, match="not a full cycle"):
            ctx.position(P(text, 4))
    for alpha in (P("(1,2,3,4,5)", 5), P("(1,2,3)", 3)):
        with pytest.raises(ValidationError, match="not a full cycle"):
            ctx.position(alpha)


def test_class_partition_sizes():
    for n in range(4, 9):
        classes = Counter(WreathContext(n, A5).place[:, 1].tolist())
        assert sorted(classes) == list(range(1, n))
        for k in range(1, n):
            assert classes[k] == math.factorial(n - 2)


def test_class_reflection_under_swap():
    """Conjugating by (1,2) sends class k to class n-k: in the oracle, and
    through the context's comp map."""
    for n in range(4, 8):
        delta = parse_cycles("(1,2)", n)
        ctx = WreathContext(n, A5)
        classes, reflect = ctx.place[:, 1], ctx.comp_map(delta)
        for i, alpha in enumerate(full_cycles(n)):
            assert cycle_class(alpha.conjugate(delta)) == n - cycle_class(alpha)
            assert classes[reflect[i]] == n - classes[i]
