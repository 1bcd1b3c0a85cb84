"""Finite permutation groups: closure, stabilizer chains, conjugacy classes."""

from __future__ import annotations

import functools
import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ConsistencyError, ResourceLimitError
from .perm import Permutation, clear_interned

__all__ = [
    "ELEMENT_CAP",
    "GroupHandle",
    "StabilizerChain",
    "ConjugacyClassTable",
    "clear_derived",
    "close_group",
    "derived",
    "generated_by",
]

ELEMENT_CAP = 200_000

# Values of @derived functions, keyed by (function, element set of each
# GroupHandle argument, the other arguments).  The suite runner clears it,
# with the permutation intern table, at the start of each corpus entry, so
# every entry starts from the same state in any worker and an entry's
# values are freed when the next starts.
_DERIVED: dict[tuple, object] = {}


def derived(fn):
    """Cache ``fn(*args)`` by the element sets of its GroupHandle arguments.

    Handles with equal elements share one value whatever their generators,
    so `fn` must depend on its handles only through their element sets,
    up to the generators of the subgroups it returns.
    """
    @functools.wraps(fn)
    def cached(*args, **kwargs):
        key = (fn, *(a.elements() if isinstance(a, GroupHandle) else a for a in args),
               *kwargs.items())
        try:
            return _DERIVED[key]
        except KeyError:
            pass
        value = _DERIVED[key] = fn(*args, **kwargs)
        return value
    return cached


def clear_derived() -> None:
    """Drop every value cached by @derived functions and every interned
    permutation."""
    _DERIVED.clear()
    clear_interned()


class _Level:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point: int, identity: Permutation):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: identity}


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    One level is pre-created per support point in ascending order, so every
    generator or residue lands at the level of its smallest moved point and
    the base comes out as the smallest moved points, ascending.  Redundant
    levels are trimmed once construction finishes.  Seed generators are
    processed in sorted order and orbits grown breadth-first, making the
    chain a pure function of the generating set.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int):
        self.degree = degree
        self._identity = Permutation.identity(degree)
        gens = sorted({g for g in generators if not g.is_identity()})
        support = sorted({p for g in gens for p in g.moved_points()})
        self.levels: list[_Level] = [_Level(p, self._identity) for p in support]
        for g in gens:
            self._add(g)
        self.levels = [lvl for lvl in self.levels if len(lvl.transversal) > 1]

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self.levels)

    @property
    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        residue, _ = self._sift(g, 0)
        return residue.is_identity()

    def _sift(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        """Reduce g by transversal elements; returns (residue, stuck level)."""
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            point = g.images[level.point]
            u = level.transversal.get(point)
            if u is None:
                return g, i
            g = g * u.inverse()
        return g, len(self.levels)

    def _add(self, g: Permutation) -> None:
        residue, j = self._sift(g, 0)
        if residue.is_identity():
            return
        # a nontrivial residue moves some support point, so it sticks at a
        # real level and never needs the chain extended
        self.levels[j].gens.append(residue)
        self._complete(j)

    def _strong_gens(self, i: int) -> list[Permutation]:
        """Strong generators fixing the first i base points."""
        out: list[Permutation] = []
        for level in self.levels[i:]:
            out.extend(level.gens)
        return out

    def _recompute_orbit(self, i: int) -> None:
        level = self.levels[i]
        gens = self._strong_gens(i)
        transversal = {level.point: self._identity}
        queue = [level.point]
        while queue:
            point = queue.pop(0)
            u = transversal[point]
            for g in gens:
                q = g.images[point]
                if q not in transversal:
                    transversal[q] = u * g
                    queue.append(q)
        level.transversal = transversal

    def _find_missing(self, i: int) -> Optional[tuple[Permutation, int]]:
        """First Schreier generator at level i not generated below it."""
        level = self.levels[i]
        gens = self._strong_gens(i)
        for point in sorted(level.transversal):
            u = level.transversal[point]
            for g in gens:
                v = level.transversal[g.images[point]]
                schreier = u * g * v.inverse()
                residue, j = self._sift(schreier, i + 1)
                if not residue.is_identity():
                    return residue, j
        return None

    def _complete(self, start: int) -> None:
        # Walk levels from `start` upward; any missing Schreier residue is
        # placed deeper and processing resumes there, so on exit every
        # level's Schreier generators sift to the identity.
        i = start
        while i >= 0:
            self._recompute_orbit(i)
            missing = self._find_missing(i)
            if missing is None:
                i -= 1
                continue
            residue, j = missing
            self.levels[j].gens.append(residue)
            i = j


@dataclass(frozen=True)
class ConjugacyClassTable:
    """Class representatives (lexicographically least members) and sizes,
    and the representative of every element's class."""

    representatives: tuple[Permutation, ...]
    class_sizes: tuple[int, ...]
    representative_of: dict[Permutation, Permutation] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.representatives)


class GroupHandle:
    """A finite permutation group, immutable after construction.

    ``elements``, when given, must be the group the generators generate;
    otherwise it is closed lazily, bounded by ``ELEMENT_CAP``.  The
    stabilizer chain is the independent oracle ``tests/test_group.py``
    compares the closure against; a run never builds it.
    """

    __slots__ = ("degree", "generators",
                 "_elements", "_sorted", "_chain", "_fingerprint")

    def __init__(self, generators: Iterable[Permutation],
                 elements: Optional[Iterable[Permutation]] = None):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        self.degree = degree
        self.generators = gens
        self._elements: Optional[frozenset[Permutation]] = (
            None if elements is None else frozenset(elements))
        self._sorted: Optional[tuple[Permutation, ...]] = None
        self._chain: Optional[StabilizerChain] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def trivial(cls, degree: int) -> "GroupHandle":
        identity = Permutation.identity(degree)
        return cls((identity,), elements=(identity,))

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> frozenset[Permutation]:
        if self._elements is None:
            self._elements = frozenset(
                _bfs_closure(self.generators, self.degree, ELEMENT_CAP))
            self._check_order_agreement()
        return self._elements

    def sorted_elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.elements()))
        return self._sorted

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.generators, self.degree)
            self._check_order_agreement()
        return self._chain

    def _check_order_agreement(self) -> None:
        if self._chain is not None and self._elements is not None:
            if self._chain.order != len(self._elements):
                raise ConsistencyError(
                    f"stabilizer chain order {self._chain.order} != closure "
                    f"size {len(self._elements)}")

    @property
    def order(self) -> int:
        if self._elements is not None:
            return len(self._elements)
        return self.chain.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        if self._elements is not None:
            return g in self._elements
        return self.chain.contains(g)

    @property
    def fingerprint(self) -> str:
        """Digest of the sorted element list; equal iff same element set."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(self.degree.to_bytes(4, "big"))
            for e in self.sorted_elements():
                h.update(array("I", e.images).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def same_elements(self, other: "GroupHandle") -> bool:
        return self.degree == other.degree and self.elements() == other.elements()

    def is_subset_of(self, other: "GroupHandle") -> bool:
        return self.degree == other.degree and self.elements() <= other.elements()

    @derived
    def conjugacy_classes(self) -> ConjugacyClassTable:
        rep_of: dict[Permutation, Permutation] = {}
        reps: list[Permutation] = []
        sizes: list[int] = []
        for e in self.sorted_elements():
            if e in rep_of:
                continue
            orbit = {e}
            queue = [e]
            while queue:
                x = queue.pop()
                for g in self.generators:
                    y = x.conjugate(g)
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            reps.append(e)
            sizes.append(len(orbit))
            rep_of.update(dict.fromkeys(orbit, e))
        return ConjugacyClassTable(tuple(reps), tuple(sizes), rep_of)

    def __repr__(self) -> str:
        known = len(self._elements) if self._elements is not None else "?"
        return f"<group deg={self.degree} gens={len(self.generators)} order={known}>"


def _bfs_closure(generators: Iterable[Permutation], degree: int, cap: int) -> set[Permutation]:
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[Permutation] = []
        for e in frontier:
            for g in generators:
                f = e * g
                if f not in elements:
                    if len(elements) >= cap:
                        raise ResourceLimitError(
                            f"element cap {cap} exceeded during closure",
                            partial_count=len(elements))
                    elements.add(f)
                    new.append(f)
        frontier = new
    return elements


def close_group(generators: Iterable[Permutation], cap: int = ELEMENT_CAP) -> GroupHandle:
    """Materialize the group generated by `generators` (fails loudly at cap)."""
    handle = GroupHandle(generators)  # validates the generators before closing
    return GroupHandle(handle.generators,
                       elements=_bfs_closure(handle.generators, handle.degree, cap))


def generated_by(perms: Iterable[Permutation], degree: Optional[int] = None,
                 cap: int = ELEMENT_CAP) -> GroupHandle:
    """Subgroup generated by the given permutations, with a reduced generator list.

    Permutations already generated by earlier ones are dropped, so the
    stored generator count stays logarithmic in the group order.  An empty
    input yields the trivial group (degree required).

    Each kept generator grows the group by Dimino's coset extension
    (Butler, *Fundamental Algorithms for Permutation Groups*, 1991): with
    H the group so far, the new group is a union of right cosets H·r,
    found by multiplying each coset representative by every kept
    generator.
    """
    items = sorted(set(perms))
    if not items:
        if degree is None:
            raise ValueError("degree required for an empty generating set")
        return GroupHandle.trivial(degree)
    degree = items[0].degree
    gens: list[Permutation] = []
    current = {Permutation.identity(degree)}
    for x in items:
        if x not in current:
            gens.append(x)
            _extend_by_cosets(current, gens, cap)
    return GroupHandle(tuple(gens) or (Permutation.identity(degree),), elements=current)


def _extend_by_cosets(elements: set[Permutation], gens: list[Permutation], cap: int) -> None:
    """Grow the group `elements` in place to ⟨elements, gens[-1]⟩.

    `elements` must be the group generated by ``gens[:-1]``.  Every coset
    is added whole, so the cap is checked before a coset is added and a
    failure leaves no partial group behind for the caller to return.
    """
    sub = list(elements)
    reps = [gens[-1]]
    i = 0
    while i < len(reps):
        r = reps[i]
        i += 1
        if r in elements:
            continue
        if len(elements) + len(sub) > cap:
            raise ResourceLimitError(
                f"element cap {cap} exceeded during closure",
                partial_count=len(elements))
        elements.update(h * r for h in sub)
        reps.extend(r * s for s in gens)
