"""Finite permutation groups held as element sets: closure, Dimino's
coset extension, the @derived cache, conjugacy classes."""

from __future__ import annotations

import functools
import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ResourceLimitError
from .perm import Permutation, clear_interned, right_multiply

__all__ = [
    "ELEMENT_CAP",
    "MAX_DEGREE",
    "GroupHandle",
    "ConjugacyClassTable",
    "clear_derived",
    "close_group",
    "derived",
    "generated_by",
]

ELEMENT_CAP = 200_000
# Largest permutation degree a .grp file or built group may declare;
# checked before any permutation of that degree is allocated.
MAX_DEGREE = 1024

# Values of @derived functions, keyed by (function, element set of each
# GroupHandle argument, the other arguments).  The suite runner clears it,
# and resets the permutation intern table to the entry's elements, at the
# start of each corpus entry, so every entry starts from the same state in
# any worker and an entry's values are freed when the next starts.
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


def clear_derived(keep: Iterable[Permutation] = ()) -> None:
    """Drop every value cached by @derived functions and every interned
    permutation but those of `keep`, which stay interned."""
    _DERIVED.clear()
    clear_interned(keep)


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
    """A finite permutation group held as its full element set, immutable
    after construction.

    ``elements`` must be the group the generators generate.  `close_group`
    and `generated_by` build it, bounded by ``ELEMENT_CAP``; order and
    membership are read from it.
    """

    __slots__ = ("degree", "generators", "_elements", "_sorted", "_fingerprint")

    def __init__(self, generators: Iterable[Permutation],
                 elements: Iterable[Permutation]):
        gens = tuple(generators)
        self.degree = _common_degree(gens)
        self.generators = gens
        self._elements = frozenset(elements)
        self._sorted: Optional[tuple[Permutation, ...]] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def trivial(cls, degree: int) -> "GroupHandle":
        identity = Permutation.identity(degree)
        return cls((identity,), elements=(identity,))

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self) -> frozenset[Permutation]:
        return self._elements

    def sorted_elements(self) -> tuple[Permutation, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self._elements))
        return self._sorted

    @property
    def order(self) -> int:
        return len(self._elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        return g in self._elements

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
        return f"<group deg={self.degree} gens={len(self.generators)} order={self.order}>"


def _common_degree(generators: tuple[Permutation, ...]) -> int:
    """The one degree of a nonempty generator tuple (ValueError otherwise)."""
    if not generators:
        raise ValueError("generator list must be nonempty")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share a degree")
    return degree


def _check_size(family: str, degree: int, order: int) -> None:
    """Reject a group whose degree or closed-form order is over a cap,
    before its closure is built."""
    if degree > MAX_DEGREE or order > ELEMENT_CAP:
        raise ResourceLimitError(
            f"{family} has degree {degree} and order {order}; the caps are "
            f"degree {MAX_DEGREE} and order {ELEMENT_CAP}", partial_count=0)


def _bfs_closure(generators: tuple[Permutation, ...]) -> set[Permutation]:
    identity = Permutation.identity(generators[0].degree)
    elements = {identity}
    frontier = [identity]
    while frontier:
        new: list[Permutation] = []
        for e in frontier:
            for g in generators:
                f = e * g
                if f not in elements:
                    if len(elements) >= ELEMENT_CAP:
                        raise ResourceLimitError(
                            f"element cap {ELEMENT_CAP} exceeded during closure",
                            partial_count=len(elements))
                    elements.add(f)
                    new.append(f)
        frontier = new
    return elements


def close_group(generators: Iterable[Permutation]) -> GroupHandle:
    """Materialize the group generated by `generators` (fails loudly at
    ``ELEMENT_CAP``)."""
    gens = tuple(generators)
    _common_degree(gens)  # nonempty, one degree: checked before closing
    return GroupHandle(gens, elements=_bfs_closure(gens))


def generated_by(perms: Iterable[Permutation], degree: Optional[int] = None, *,
                 base: Optional[GroupHandle] = None) -> GroupHandle:
    """⟨base, perms⟩, grown from the element set of `base` (the trivial
    group when None), with a reduced generator list.

    The generators are `base`'s followed by each permutation, in sorted
    order, not generated by those before it, so the stored generator count
    stays logarithmic in the group order; `base` itself comes back when
    every permutation lies in it.  Without `base`, an empty input yields
    the trivial group (degree required).

    Each kept generator grows the group by Dimino's coset extension
    (Butler, *Fundamental Algorithms for Permutation Groups*, 1991): with
    H the group so far, the new group is a union of right cosets H·r,
    found by multiplying each coset representative by every generator.
    """
    items = sorted(set(perms))
    if base is None:
        if not items:
            if degree is None:
                raise ValueError("degree required for an empty generating set")
            return GroupHandle.trivial(degree)
        base = GroupHandle.trivial(items[0].degree)
    current = set(base.elements())
    # the trivial group's one generator, the identity, only fills the tuple
    gens = [] if base.is_trivial() else list(base.generators)
    kept = len(gens)
    for x in items:
        if x not in current:
            gens.append(x)
            _extend_by_cosets(current, gens)
    if len(gens) == kept:
        return base
    return GroupHandle(gens, elements=current)


def _extend_by_cosets(elements: set[Permutation], gens: list[Permutation]) -> None:
    """Grow the group `elements` in place to ⟨elements, gens[-1]⟩.

    `elements` must be the group generated by ``gens[:-1]``.  Every coset
    is added whole, so ``ELEMENT_CAP`` is checked before a coset is added
    and a failure leaves no partial group behind for the caller to return.
    """
    sub = list(elements)
    reps = [gens[-1]]
    i = 0
    while i < len(reps):
        r = reps[i]
        i += 1
        if r in elements:
            continue
        if len(elements) + len(sub) > ELEMENT_CAP:
            raise ResourceLimitError(
                f"element cap {ELEMENT_CAP} exceeded during closure",
                partial_count=len(elements))
        elements.update(right_multiply(sub, r))
        reps.extend(r * s for s in gens)
