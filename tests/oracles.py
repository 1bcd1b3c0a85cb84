"""Test-only oracles: constructions and checks that no suite, CLI path or
corpus builder runs.  Each is written from its definition on top of the
engine's basic operations, so tests can hold the engine's results
against it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from engelfit.engel import Actor, AutomorphismMap
from engelfit.errors import PreconditionError
from engelfit.group import GroupHandle, generated_by
from engelfit.perm import Permutation
from engelfit.subgrp import join, normal_closure_descent, normal_subgroups
from engelfit.zipper import SubgroupLattice


def subgroup_of(parent: GroupHandle, generators: Iterable[Permutation]) -> GroupHandle:
    """Build a subgroup of `parent`, checking every generator's membership."""
    gens = list(generators)
    for g in gens:
        if not parent.contains(g):
            raise ValueError(f"generator {g} is not a member of the parent group")
    return generated_by(gens, degree=parent.degree)


def non_multiplicative_pair(alpha: AutomorphismMap) -> Optional[tuple[Permutation, Permutation]]:
    """The first pair (a, b) in sorted order with f(ab) ≠ f(a)f(b) for the
    table f of `alpha`, or None when f is multiplicative on all |G|² pairs.

    `make_automorphism` checks only the (element, generator) edges, which
    imply this by induction on word length; this is the direct check.
    """
    f = alpha.mapping
    elements = alpha.group.sorted_elements()
    for a in elements:
        for b in elements:
            if f[a * b] != f[a] * f[b]:
                return a, b
    return None


def normal_core(group: GroupHandle, sub: GroupHandle) -> GroupHandle:
    """∩_{g∈G} sub^g: the largest normal subgroup of `group` inside `sub`."""
    if not sub.is_subset_of(group):
        raise ValueError("core target is not a subgroup of the group")
    current = set(sub.elements())
    while True:
        survivors = {h for h in current
                     if all(h.conjugate(g) in current for g in group.generators)}
        if survivors == current:
            break
        current = survivors
    return generated_by(current, degree=group.degree)


def _is_prime_power(n: int, p: int) -> bool:
    if n == 1:
        return True
    while n % p == 0:
        n //= p
    return n == 1


def o_p_core(group: GroupHandle, p: int) -> GroupHandle:
    """Largest normal p-subgroup: the join of the normal p-subgroups."""
    if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    return join(*[m for m in normal_subgroups(group) if _is_prime_power(m.order, p)],
                degree=group.degree)


def commutator_with_actor(group: GroupHandle, g: Permutation, actor: Actor) -> Permutation:
    """[g, actor]: g^-1 x^-1 g x for an inner actor x, g^-1 α(g) for α."""
    if not group.contains(g):
        raise ValueError(f"{g} is not a member of the group")
    if isinstance(actor, AutomorphismMap):
        if not actor.group.same_elements(group):
            raise ValueError("automorphism acts on a different group")
        return g.inverse() * actor.apply(g)
    if not group.contains(actor):
        raise ValueError(f"inner actor {actor} is not a member of the group")
    return g.inverse() * actor.inverse() * g * actor


def commutator_descent_by_elements(group: GroupHandle,
                                   actor: Actor) -> tuple[GroupHandle, ...]:
    """G ≥ [G,a] ≥ [[G,a],a] ≥ …, each term T ↦ ⟨[t,a] : t ∈ T⟩ generated
    by the commutators of all its elements, down to the first repeat."""
    terms = [group]
    while True:
        nxt = generated_by([commutator_with_actor(group, t, actor)
                            for t in terms[-1].elements()], degree=group.degree)
        if nxt.same_elements(terms[-1]):
            return tuple(terms)
        terms.append(nxt)


def unique_max_element_check(group: GroupHandle, sub: GroupHandle,
                             lattice: SubgroupLattice) -> bool:
    """Whether {F(A, H) : H maximal over A} has a unique maximal element."""
    sub_elems = sub.elements()
    maximal_over = [m for m in lattice.maximal if sub_elems <= m.elements()]
    if not maximal_over:
        raise PreconditionError("the subgroup lies in no maximal subgroup")
    values = {normal_closure_descent(sub, m)[-1].elements() for m in maximal_over}
    return sum(not any(v < w for w in values) for v in values) == 1


def self_closing_join(group: GroupHandle, sub: GroupHandle,
                      lattice: SubgroupLattice) -> GroupHandle:
    """The join of A with every proper overgroup H of A with ⟨A^H⟩ = H,
    each normal closure generated by all the conjugates a^h."""
    sub_elems = sub.elements()
    joined = set(sub_elems)
    for h in lattice.members:
        if h.order == group.order or not sub_elems <= h.elements():
            continue
        conjugates = {a.conjugate(x) for a in sub_elems for x in h.elements()}
        if generated_by(sorted(conjugates), degree=group.degree).same_elements(h):
            joined |= h.elements()
    return generated_by(sorted(joined), degree=group.degree)
