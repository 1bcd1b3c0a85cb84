"""Permutations of {1..n}: cycle-notation parsing, composition, orders."""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter
from typing import Iterable

from .errors import ParseError

__all__ = [
    "Permutation",
    "parse_cycles",
    "format_cycles",
    "commutator",
    "p_part",
]


class Permutation:
    """An immutable bijection of {1..n}.

    Points are 1-based in text form and 0-based in the internal image tuple.
    Composition acts left-to-right (points act on the right), so
    ``(p * q)(i) == q(p(i))``, conjugation is ``g.conjugate(h) == h^-1 g h``
    and the commutator ``[g, h]`` is ``g^-1 h^-1 g h``.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images!r} are not a bijection of 0..{len(images) - 1}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return _raw(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def act(self, point: int) -> int:
        """Image of a 1-based point."""
        return self.images[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
        if len(a) == 1:
            # itemgetter with one index returns a scalar, not a tuple
            return _raw(b)
        return _raw(itemgetter(*a)(b))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _raw(tuple(inv))

    def conjugate(self, h: "Permutation") -> "Permutation":
        """h^-1 * self * h, computed in one pass."""
        a, hi = self.images, h.images
        if len(a) != len(hi):
            raise ValueError(f"degree mismatch: {len(a)} vs {len(hi)}")
        res = [0] * len(a)
        for i in range(len(a)):
            res[hi[i]] = hi[a[i]]
        return _raw(tuple(res))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = _raw(tuple(range(len(self.images))))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def order(self) -> int:
        n = len(self.images)
        seen = [False] * n
        result = 1
        for i in range(n):
            if seen[i]:
                continue
            length = 1
            j = self.images[i]
            while j != i:
                seen[j] = True
                length += 1
                j = self.images[j]
            result = lcm(result, length)
        return result

    def moved_points(self) -> tuple[int, ...]:
        """0-based points not fixed by the permutation."""
        return tuple(i for i, j in enumerate(self.images) if i != j)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        return self.images <= other.images

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"<perm {format_cycles(self)} deg={self.degree}>"


# One object per image tuple built by _raw, so equal-set tests and dict
# lookups between interned permutations stop at CPython's identity check
# before calling __eq__.  `group.clear_derived` resets it to the corpus
# entry's elements at the start of each entry.  Equality never depends on
# it: permutations from the validated constructor, from unpickling or from
# before a clear are not interned and still compare and hash equal by
# their images.
_INTERNED: dict[tuple[int, ...], Permutation] = {}


def _raw(images: tuple[int, ...]) -> Permutation:
    """Trusted, interned constructor skipping bijection validation (hot path)."""
    p = _INTERNED.get(images)
    if p is None:
        p = object.__new__(Permutation)
        p.images = images
        p._hash = hash(images)
        _INTERNED[images] = p
    return p


def clear_interned(keep: Iterable[Permutation] = ()) -> None:
    """Forget every interned permutation except those of `keep`, which
    become the interned objects for their images."""
    _INTERNED.clear()
    _INTERNED.update((p.images, p) for p in keep)


_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-separated disjoint cycles like ``(1 2 3)(4 5)``.

    ``()`` denotes the identity.  Points are 1-based and must not repeat
    across cycles or exceed the degree.
    """
    if degree < 1:
        raise ParseError("degree must be positive")
    s = text.strip()
    if not s:
        raise ParseError("empty permutation text")
    images = list(range(degree))
    seen: set[int] = set()
    pos = 0
    while pos < len(s):
        if s[pos].isspace():
            pos += 1
            continue
        m = _CYCLE.match(s, pos)
        if m is None:
            raise ParseError(f"unexpected token {s[pos:pos + 10]!r} in permutation {text!r}")
        points: list[int] = []
        for tok in m.group(1).replace(",", " ").split():
            if not tok.isdigit():
                raise ParseError(f"bad point {tok!r} in permutation {text!r}")
            p = int(tok)
            if p < 1 or p > degree:
                raise ParseError(f"point {p} out of range for degree {degree}")
            if p in seen:
                raise ParseError(f"repeated point {p}")
            seen.add(p)
            points.append(p - 1)
        for i, p in enumerate(points):
            images[p] = points[(i + 1) % len(points)]
        pos = m.end()
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    """Canonical cycle notation: fixed points omitted, identity is ``()``.

    Cycles are ordered by least point and each starts at its least point,
    so ``parse_cycles(format_cycles(p), p.degree) == p``.
    """
    n = p.degree
    seen = [False] * n
    parts: list[str] = []
    for i in range(n):
        if seen[i] or p.images[i] == i:
            continue
        cycle = [i]
        j = p.images[i]
        while j != i:
            seen[j] = True
            cycle.append(j)
            j = p.images[j]
        parts.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(parts) or "()"


def commutator(g: Permutation, h: Permutation) -> Permutation:
    """[g, h] = g^-1 h^-1 g h."""
    return g.inverse() * g.conjugate(h)


def p_part(g: Permutation, p: int) -> int:
    """Largest power of the prime p dividing the order of g."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    m = g.order()
    part = 1
    while m % p == 0:
        m //= p
        part *= p
    return part
