"""Exact permutation arithmetic on {1..k}, and cycle notation.

Composition is the right action throughout: i^(p*q) = (i^p)^q, i.e. p acts
first. Conjugation p^s = s^-1 * p * s relabels points by s.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import ParseError, ValidationError

_TOKEN = re.compile(r"\d+|[(),]|[^\d(),]+")


class Permutation:
    """Immutable permutation of {1..degree}, stored as a tuple of images.

    images[i-1] is the image of point i.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValidationError(f"not a bijection on 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", None)

    # -- construction ------------------------------------------------------

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """A Permutation from an images tuple already known to be a bijection
        (a product or inverse of validated permutations), unchecked."""
        p = object.__new__(cls)
        p.images = images
        p._hash = None
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.images)
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"

    def key(self) -> bytes:
        """Serialization used for dict keys and canonical comparisons."""
        return bytes(self.images)

    # -- arithmetic ----------------------------------------------------------

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        oth = other.images
        if len(oth) != len(self.images):
            raise ValidationError("degree mismatch in product")
        return Permutation._trusted(tuple([oth[i - 1] for i in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._trusted(tuple(inv))

    def __pow__(self, exponent: int) -> "Permutation":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Permutation.identity(self.degree)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self, by: "Permutation") -> "Permutation":
        """self^by = by^-1 * self * by (relabels points through `by`)."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    # -- structure -----------------------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self.apply(start)
            while j != start:
                seen[j - 1] = True
                cyc.append(j)
                j = self.apply(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def order(self) -> int:
        result = 1
        for c in self.cycles():
            result = result * len(c) // gcd(result, len(c))
        return result


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-free cycle notation like "(1,2)(3,4)" into a Permutation.

    The empty string and "()" both denote the identity. Raises ParseError
    naming the offending token on malformed input, repeated points, or points
    outside 1..degree.
    """
    if degree < 1:
        raise ValidationError(f"degree must be >= 1, got {degree}")
    text = text.strip()
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    tokens = _TOKEN.findall(text)
    pos = 0

    def fail(tok: str):
        raise ParseError(f"bad cycle notation at token {tok!r} in {text!r}")

    while pos < len(tokens):
        if tokens[pos] != "(":
            fail(tokens[pos])
        pos += 1
        cyc: list[int] = []
        if pos < len(tokens) and tokens[pos] == ")":
            pos += 1  # "()" is the identity factor
            continue
        while True:
            if pos >= len(tokens) or not tokens[pos].isdigit():
                fail(tokens[pos] if pos < len(tokens) else "(")
            point = int(tokens[pos])
            if not 1 <= point <= degree:
                raise ParseError(f"point {point} out of range 1..{degree} in {text!r}")
            if point in seen:
                raise ParseError(f"repeated point {point} in {text!r}")
            seen.add(point)
            cyc.append(point)
            pos += 1
            if pos >= len(tokens):
                fail("(")
            if tokens[pos] == ",":
                pos += 1
                continue
            if tokens[pos] == ")":
                pos += 1
                break
            fail(tokens[pos])
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(images)
