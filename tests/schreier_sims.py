"""Deterministic Schreier-Sims stabilizer chain: the test suite's oracle.

The engine holds every group as its full element set; this chain computes
order and membership from generators alone, an independent route that
``tests/test_group.py`` checks closure, ``generated_by`` and order against.
"""

from __future__ import annotations

from typing import Iterable, Optional

from engelfit.perm import Permutation


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
