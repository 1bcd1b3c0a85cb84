"""Full subgroup lattices, normal-closure descent lemmas, and the generation dichotomy."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import PreconditionError, ResourceLimitError
from .group import GroupHandle, derived, generated_by
from .perm import Permutation, conjugate_all, right_multiply
from .subgrp import (is_normal_in, is_subnormal, join, maximal_members,
                     normal_closure, normal_closure_descent)

__all__ = [
    "SubgroupLattice",
    "ZipperCase",
    "all_subgroups",
    "descent_lemma_failures",
    "zipper_case",
    "LATTICE_ORDER_CAP",
]

LATTICE_ORDER_CAP = 360
LATTICE_MEMBER_CAP = 20_000


@dataclass(frozen=True)
class SubgroupLattice:
    """Every subgroup of a group, sorted by (order, fingerprint), the
    maximal proper subgroups among them in the same order, and the
    representative of every member's conjugacy class (its first member
    in lattice order), keyed by the member's element set."""

    members: tuple[GroupHandle, ...]
    maximal: tuple[GroupHandle, ...]
    representative_of: dict[frozenset[Permutation], GroupHandle] = field(
        repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)


def _conjugate_orbit(group: GroupHandle, handle: GroupHandle) -> list[GroupHandle]:
    """All conjugates of a subgroup under the parent group."""
    seen = {handle.elements(): handle}
    queue = [handle]
    while queue:
        current = queue.pop()
        for g in group.generators:
            image = GroupHandle(conjugate_all(current.generators, g),
                                elements=conjugate_all(current.elements(), g))
            if image.elements() not in seen:
                seen[image.elements()] = image
                queue.append(image)
    return sorted(seen.values(), key=lambda h: h.fingerprint)


def _double_coset_reps(group: GroupHandle, sub: GroupHandle) -> list[Permutation]:
    """Least representatives of the double cosets sub\\group/sub.

    ⟨M, g⟩ only depends on the double coset MgM, so extensions need just
    one candidate per class.
    """
    sub_elems = sorted(sub.elements())
    assigned: set[Permutation] = set()
    reps: list[Permutation] = []
    for e in group.sorted_elements():
        if e in assigned:
            continue
        reps.append(e)
        left = right_multiply(sub_elems, e)
        for b in sub_elems:
            assigned.update(right_multiply(left, b))
    return reps


def all_subgroups(group: GroupHandle, max_order: int = LATTICE_ORDER_CAP) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic seeding and one-element extensions.

    Subgroup conjugacy classes are grown breadth-first: each class
    representative is extended by one generator per double coset, and each
    new class is expanded to its full conjugation orbit.  Every subgroup
    is reachable this way because any subgroup is a one-element extension
    of any of its maximal subgroups.  Each extension ⟨H, g⟩ grows from H's
    elements.  The trivial group is not extended: its extensions are the
    cyclic subgroups ⟨g⟩, and each is ⟨r⟩^x for the representative r of
    g's class and some x, registered with the orbit of the seed ⟨r⟩.  The
    order cap is checked outside the cached lattice, so calls with
    different caps share one lattice.
    """
    if group.order > max_order:
        raise ResourceLimitError(
            f"lattice order cap {max_order} exceeded by group of order {group.order}",
            partial_count=0)
    return _subgroup_lattice(group)


@derived
def _subgroup_lattice(group: GroupHandle) -> SubgroupLattice:
    representative_of: dict[frozenset[Permutation], GroupHandle] = {}
    class_reps: list[GroupHandle] = []
    members: list[GroupHandle] = []

    def register(handle: GroupHandle) -> None:
        if handle.elements() in representative_of:
            return
        # an orbit shares one order and is sorted by fingerprint, so its
        # first member comes first in lattice order too
        orbit = _conjugate_orbit(group, handle)
        for h in orbit:
            representative_of[h.elements()] = orbit[0]
            members.append(h)
        if len(members) > LATTICE_MEMBER_CAP:
            raise ResourceLimitError(
                f"lattice member cap {LATTICE_MEMBER_CAP} exceeded",
                partial_count=len(members))
        class_reps.append(handle)

    register(GroupHandle.trivial(group.degree))
    for rep in group.conjugacy_classes().representatives:
        register(generated_by([rep], degree=group.degree))

    i = 1  # class_reps[0] is the trivial group, whose extensions are seeded
    while i < len(class_reps):
        base = class_reps[i]
        i += 1
        if base.order == group.order:
            continue
        for g in _double_coset_reps(group, base):
            if base.contains(g):
                continue
            register(generated_by((g,), base=base))

    members.sort(key=lambda h: (h.order, h.fingerprint))
    # the group itself is the one member of top order
    return SubgroupLattice(tuple(members), tuple(maximal_members(members[:-1])),
                           representative_of)


def descent_lemma_failures(sub: GroupHandle,
                           series: tuple[GroupHandle, ...]) -> list[str]:
    """Check the descent series facts: step normality, subnormality of every
    term in the top, and self-closure of the stable term.  Returns failure
    descriptions (empty when all hold)."""
    failures: list[str] = []
    top = series[0]
    for i in range(len(series) - 1):
        if not is_normal_in(series[i + 1], series[i]):
            failures.append(f"term {i + 1} is not normal in term {i}")
    for i, term in enumerate(series):
        if not is_subnormal(term, top):
            failures.append(f"term {i} is not subnormal in the top group")
    stable = series[-1]
    if not normal_closure(sub, stable).same_elements(stable):
        failures.append("stable term is not its own closure of the subgroup")
    return failures


@dataclass(frozen=True)
class ZipperCase:
    """Dichotomy data for one subgroup A with ⟨A^G⟩ = G.

    ``branch`` is ``"join_is_whole"`` when the self-closing proper
    overgroups generate G, ``"unique_maximal"`` when A lies in exactly one
    maximal subgroup, and ``"dichotomy_failed"`` otherwise (an engine bug,
    never expected).
    """

    maximal_over: tuple[GroupHandle, ...]
    branch: str
    lemma_failures: tuple[str, ...]


def zipper_case(group: GroupHandle, sub: GroupHandle,
                lattice: SubgroupLattice) -> ZipperCase:
    """Scan the lattice for the generation dichotomy around one subgroup."""
    if not normal_closure(sub, group).same_elements(group):
        raise PreconditionError("requires the subgroup's normal closure to be the whole group")
    sub_elems = sub.elements()
    omega: list[GroupHandle] = []
    for h in lattice.members:
        if h.order >= group.order or not sub_elems <= h.elements():
            continue
        if normal_closure(sub, h).same_elements(h):
            omega.append(h)
    maximal_over = [m for m in lattice.maximal if sub_elems <= m.elements()]
    if join(sub, *omega).same_elements(group):
        branch = "join_is_whole"
    elif len(maximal_over) == 1:
        branch = "unique_maximal"
    else:
        branch = "dichotomy_failed"

    failures: list[str] = []
    stable_terms: list[GroupHandle] = []
    for m in maximal_over:
        series = normal_closure_descent(sub, m)
        failures.extend(f"maximal {m.order}: {msg}"
                        for msg in descent_lemma_failures(sub, series))
        stable_terms.append(series[-1])
        stable = series[-1].elements()
        for l in omega:
            if l.elements() <= m.elements() and not l.elements() <= stable:
                failures.append(
                    f"self-closing subgroup of order {l.order} escapes the "
                    f"descent value in a maximal of order {m.order}")
    unique_val = _unique_maximal(stable_terms)
    if unique_val != (len(maximal_over) == 1):
        failures.append(f"{len(maximal_over)} maximal overgroups, but a unique "
                        f"maximal descent value is {unique_val}")
    return ZipperCase(maximal_over=tuple(maximal_over), branch=branch,
                      lemma_failures=tuple(failures))


def _unique_maximal(terms: Iterable[GroupHandle]) -> bool:
    """Whether the subgroups `terms` have exactly one maximal element under
    inclusion (False for none)."""
    distinct = {t.elements(): t for t in terms}
    return len(maximal_members(distinct.values())) == 1
