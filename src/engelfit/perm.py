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
    "right_multiply",
    "conjugate_all",
]


# Largest degree held as bytes: bytes.translate takes a 256-entry table.
BYTES_DEGREE_CAP = 256
# _RANGE[n] is the identity of degree n; _PAD[n] completes the images of a
# permutation of degree n to a translate table, fixing n..255.
_RANGE = tuple(bytes(range(n)) for n in range(BYTES_DEGREE_CAP + 1))
_PAD = tuple(bytes(range(n, 256)) for n in range(BYTES_DEGREE_CAP + 1))


def _identity_key(degree: int):
    return _RANGE[degree] if degree <= BYTES_DEGREE_CAP else tuple(range(degree))


def _mismatch(a, b) -> ValueError:
    return ValueError(f"degree mismatch: {len(a)} vs {len(b)}")


class Permutation:
    """An immutable bijection of {1..n}.

    Points are 1-based in text form and 0-based in ``images``.
    Composition acts left-to-right (points act on the right), so
    ``(p * q)(i) == q(p(i))``, conjugation is ``g.conjugate(h) == h^-1 g h``
    and the commutator ``[g, h]`` is ``g^-1 h^-1 g h``.

    The images are stored as ``bytes`` up to degree ``BYTES_DEGREE_CAP``,
    so that products, inverses and conjugates are each one or two
    ``bytes.translate`` calls, and as a tuple of ints above it.  Bytes
    compare like tuples of the ints they hold, so sorted order, least
    class members and every digest are those of the image tuples;
    ``images`` always reads the tuple.
    """

    __slots__ = ("_key", "_hash")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images!r} are not a bijection of 0..{len(images) - 1}")
        self._key = bytes(images) if len(images) <= BYTES_DEGREE_CAP else images
        self._hash = hash(self._key)

    def __reduce__(self):
        # bytes hashes are salted per process, so the receiving process
        # hashes again; the copy is not interned there
        return _new, (self._key,)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return _raw(_identity_key(degree))

    @property
    def images(self) -> tuple[int, ...]:
        return tuple(self._key)

    @property
    def degree(self) -> int:
        return len(self._key)

    def is_identity(self) -> bool:
        return self._key == _identity_key(len(self._key))

    def act(self, point: int) -> int:
        """Image of a 1-based point."""
        return self._key[point - 1] + 1

    def __mul__(self, other: "Permutation") -> "Permutation":
        a, b = self._key, other._key
        if len(a) != len(b):
            raise _mismatch(a, b)
        if len(a) <= BYTES_DEGREE_CAP:
            return _raw(a.translate(b + _PAD[len(b)]))
        return _raw(itemgetter(*a)(b))

    def inverse(self) -> "Permutation":
        a = self._key
        if len(a) <= BYTES_DEGREE_CAP:
            r = _RANGE[len(a)]
            return _raw(r.translate(bytes.maketrans(a, r)))
        inv = [0] * len(a)
        for i, j in enumerate(a):
            inv[j] = i
        return _raw(tuple(inv))

    def conjugate(self, h: "Permutation") -> "Permutation":
        """h^-1 * self * h, computed in one pass: h(i) goes to h(self(i))."""
        a, hi = self._key, h._key
        if len(a) != len(hi):
            raise _mismatch(a, hi)
        if len(a) <= BYTES_DEGREE_CAP:
            return _raw(_RANGE[len(a)].translate(
                bytes.maketrans(hi, a.translate(hi + _PAD[len(hi)]))))
        res = [0] * len(a)
        for i in range(len(a)):
            res[hi[i]] = hi[a[i]]
        return _raw(tuple(res))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = _raw(_identity_key(len(self._key)))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of length at least 2, in 0-based points, each from
        its least point, ordered by least point."""
        a = self._key
        seen = bytearray(len(a))
        out: list[tuple[int, ...]] = []
        for i, j in enumerate(a):
            if seen[i] or j == i:
                continue
            cycle = [i]
            while j != i:
                seen[j] = 1
                cycle.append(j)
                j = a[j]
            out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return lcm(1, *map(len, self.cycles()))

    def moved_points(self) -> tuple[int, ...]:
        """0-based points not fixed by the permutation."""
        return tuple(i for i, j in enumerate(self._key) if i != j)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # Across BYTES_DEGREE_CAP one key is bytes and the other a tuple, which
    # do not compare; the image tuples order them as they order the rest.
    def __lt__(self, other: "Permutation") -> bool:
        try:
            return self._key < other._key
        except TypeError:
            return self.images < other.images

    def __le__(self, other: "Permutation") -> bool:
        try:
            return self._key <= other._key
        except TypeError:
            return self.images <= other.images

    def __str__(self) -> str:
        return format_cycles(self)

    def __repr__(self) -> str:
        return f"<perm {format_cycles(self)} deg={self.degree}>"


# One object per stored image key built by _raw, so equal-set tests and
# dict lookups between interned permutations stop at CPython's identity
# check before calling __eq__.  `group.clear_derived` resets it to the
# corpus entry's elements at the start of each entry.  Equality never
# depends on it: permutations from the validated constructor, from
# unpickling or from before a clear are not interned and still compare and
# hash equal by their images.
_INTERNED: dict[bytes | tuple[int, ...], Permutation] = {}


def _new(key) -> Permutation:
    p = object.__new__(Permutation)
    p._key = key
    p._hash = hash(key)
    return p


def _intern(key) -> Permutation:
    p = _INTERNED[key] = _new(key)
    return p


def _raw(key) -> Permutation:
    """Trusted, interned constructor skipping bijection validation (hot path)."""
    return _INTERNED.get(key) or _intern(key)


def clear_interned(keep: Iterable[Permutation] = ()) -> None:
    """Forget every interned permutation except those of `keep`, which
    become the interned objects for their images."""
    _INTERNED.clear()
    _INTERNED.update((p._key, p) for p in keep)


def right_multiply(perms: Iterable[Permutation], r: Permutation) -> list[Permutation]:
    """``[p * r for p in perms]``, with r's translate table built once."""
    b = r._key
    if len(b) > BYTES_DEGREE_CAP:
        return [p * r for p in perms]
    table = b + _PAD[len(b)]
    get = _INTERNED.get
    out = []
    # one pass, so each product that is already interned is freed before
    # the next is formed
    for p in perms:
        a = p._key
        if len(a) != len(b):
            raise _mismatch(a, b)
        key = a.translate(table)
        out.append(get(key) or _intern(key))
    return out


def conjugate_all(perms: Iterable[Permutation], h: Permutation) -> list[Permutation]:
    """``[p.conjugate(h) for p in perms]``, with h's tables built once:
    h^-1 p h reads p at h^-1, then h."""
    b = h._key
    if len(b) > BYTES_DEGREE_CAP:
        return [p.conjugate(h) for p in perms]
    pad = _PAD[len(b)]
    table = b + pad
    inverse = h.inverse()._key
    get = _INTERNED.get
    out = []
    for p in perms:
        a = p._key
        if len(a) != len(b):
            raise _mismatch(a, b)
        key = inverse.translate(a + pad).translate(table)
        out.append(get(key) or _intern(key))
    return out


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
    return "".join("(" + " ".join(str(k + 1) for k in cycle) + ")"
                   for cycle in p.cycles()) or "()"


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
