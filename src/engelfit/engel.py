"""Engel sets, automorphism handling, inverted-element sets, Baer's criterion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .errors import (AutomorphismError, ConsistencyError, PreconditionError,
                     ResourceLimitError)
from .group import GroupHandle, _check_size, close_group, derived, generated_by
from .perm import Permutation, p_part
from .subgrp import center, descend, normal_closure

__all__ = [
    "AutomorphismMap",
    "EngelChain",
    "InvolutionReport",
    "CentralizerCheck",
    "make_automorphism",
    "inner",
    "fixed_subgroup",
    "engel_chain",
    "commutator_descent",
    "baer_membership",
    "j_set",
    "centralizer_intersection_check",
    "holomorph_extension",
]

Actor = Union[Permutation, "AutomorphismMap"]


class AutomorphismMap:
    """An automorphism stored as its full element table, as `make_automorphism`
    extends it from generator images."""

    __slots__ = ("group", "mapping", "order")

    def __init__(self, group: GroupHandle, mapping: dict[Permutation, Permutation],
                 order: int):
        self.group = group
        self.mapping = mapping
        self.order = order

    def apply(self, g: Permutation) -> Permutation:
        image = self.mapping.get(g)
        if image is None:
            raise ValueError(f"{g} is not a member of the automorphism's group")
        return image

    def is_involution(self) -> bool:
        return self.order == 2

    def is_identity(self) -> bool:
        return self.order == 1

    def __repr__(self) -> str:
        return f"<automorphism of order {self.order} on group of order {self.group.order}>"


def make_automorphism(group: GroupHandle, images) -> AutomorphismMap:
    """Extend generator images to a validated element-level automorphism.

    The table f is grown along the Cayley graph from f(1) = 1, checking
    every (element, generator) edge: f(xs) = f(x)f(s) for each element x
    and generator s.  That alone makes f a homomorphism.  By induction on
    the length of y as a word in the generators (in a finite group every
    element is such a word), f(xy) = f(x)f(y) for all x: the empty word
    gives f(x·1) = f(x)f(1), and for y = ws the edges at xw and at w give
    f(xws) = f(xw)f(s) = f(x)f(w)f(s) = f(x)f(ws).  With the images in G,
    injectivity is all that is left, and it is checked on the table.
    """
    images = tuple(images)
    if len(images) != len(group.generators):
        raise AutomorphismError(
            f"expected {len(group.generators)} images, got {len(images)}")
    for im in images:
        if not group.contains(im):
            raise AutomorphismError(f"image {im} is not a member of the group",
                                    pair=(im, None))
    identity = group.identity
    mapping = {identity: identity}
    frontier = [identity]
    pairs = list(zip(group.generators, images))
    while frontier:
        new: list[Permutation] = []
        for e in frontier:
            fe = mapping[e]
            for s, fs in pairs:
                t = e * s
                ft = fe * fs
                known = mapping.get(t)
                if known is None:
                    mapping[t] = ft
                    new.append(t)
                elif known != ft:
                    raise AutomorphismError(
                        "images do not define a homomorphism", pair=(e, s))
        frontier = new
    if len(set(mapping.values())) != len(mapping):
        seen: dict[Permutation, Permutation] = {}
        for g, fg in sorted(mapping.items()):
            if fg in seen:
                raise AutomorphismError("images do not define a bijection",
                                        pair=(seen[fg], g))
            seen[fg] = g
    # an automorphism is determined by its generator images, so its order
    # is the least n >= 1 whose n-th power fixes every generator
    order, power = 1, images
    while power != group.generators:
        power = tuple(mapping[x] for x in power)
        order += 1
    return AutomorphismMap(group, mapping, order)


def inner(group: GroupHandle, t: Permutation) -> AutomorphismMap:
    """Conjugation by t; t need not lie in the group, only normalize it."""
    return make_automorphism(group, [g.conjugate(t) for g in group.generators])


def fixed_subgroup(alpha: AutomorphismMap) -> GroupHandle:
    """Elements fixed by the automorphism (its centralizer in the group)."""
    fixed = [g for g in alpha.group.sorted_elements() if alpha.mapping[g] == g]
    return generated_by(fixed, degree=alpha.group.degree)


def _commutator_fn(group: GroupHandle, actor: Actor) -> Callable[[Permutation], Permutation]:
    """g ↦ [g, actor]: g⁻¹·α(g) for an automorphism α, and (x⁻¹)^g·x for
    an inner actor x, with x⁻¹ formed once."""
    if isinstance(actor, AutomorphismMap):
        if not actor.group.same_elements(group):
            raise ValueError("automorphism acts on a different group")
        table = actor.mapping
        return lambda g: g.inverse() * table[g]
    if not group.contains(actor):
        raise ValueError(f"inner actor {actor} is not a member of the group")
    actor_inverse = actor.inverse()
    return lambda g: actor_inverse.conjugate(g) * actor


def _actor_conjugation(actor: Actor) -> Callable[[Permutation], Permutation]:
    if isinstance(actor, AutomorphismMap):
        return lambda g: actor.mapping[g]
    return lambda g: g.conjugate(actor)


@dataclass(frozen=True)
class EngelChain:
    """Iterated commutator data for one (group, actor) pair.

    ``sets`` is the Engel walk of ``_engel_sets``: ``sets[0]`` is all of
    G, the sets strictly descend, and ``sets[-1]`` is the stable set.
    ``generated[k-1]`` is the subgroup generated by ``sets[k]``; the
    descending generated chain stabilizes at ``stable_k``.
    """

    sets: tuple[frozenset, ...]
    generated: tuple[GroupHandle, ...]
    stable_k: GroupHandle

    def reaches_identity(self) -> bool:
        """True when the stable commutator set is {1}."""
        return len(self.sets[-1]) == 1

    def indices_attained_beyond(self, k: int) -> tuple[int, ...]:
        """Set indices j >= 1 whose value occurs for some iteration > k.

        Indices before the stable set qualify only if themselves > k; the
        stable set recurs for every larger iteration count, so it qualifies.
        """
        last = len(self.sets) - 1
        return tuple(j for j in range(1, len(self.sets)) if j > k or j == last)


@derived
def _engel_sets(group: GroupHandle, actor: Actor,
                k_cap: Optional[int]) -> tuple[frozenset, ...]:
    """The Engel walk E_0 = G, E_1, … with E_{k+1} = {[e, actor] : e ∈ E_k},
    up to the first set that the next step fixes.

    E_1 ⊆ E_0, so by induction E_{k+1} = f(E_k) ⊆ f(E_{k-1}) = E_k for
    f(e) = [e, actor]: the sets descend until they are stable and never
    cycle.  A set that leaves its predecessor is an engine bug.  Every set
    holds 1 and [1, actor] = 1, so the walk ends at {1} without a further
    step; otherwise it ends before the first repeat.  More than ``k_cap``
    steps raise ``ResourceLimitError``.  Callers pass ``k_cap``
    positionally, so the Baer test and the Engel chain share one walk.

    f is tabled once over E_0 = G; every later set lies in G, so each step
    is a table lookup and each commutator is formed once.
    """
    if k_cap is None:
        k_cap = max(group.order, 4)
    if k_cap < 1:
        raise ValueError("k_cap must be at least 1")
    com = _commutator_fn(group, actor)
    table = {e: com(e) for e in group.elements()}
    walk = [group.elements()]
    while len(walk[-1]) > 1:
        if len(walk) > k_cap:
            raise ResourceLimitError(
                f"no stable commutator set within k_cap={k_cap} iterations",
                partial_count=k_cap)
        nxt = frozenset(map(table.__getitem__, walk[-1]))
        if not nxt <= walk[-1]:
            raise ConsistencyError("commutator set left the previous set")
        if len(nxt) == len(walk[-1]):
            break
        walk.append(nxt)
    return tuple(walk)


def engel_chain(group: GroupHandle, actor: Actor,
                k_cap: Optional[int] = None) -> EngelChain:
    """The Engel walk of (group, actor) with the subgroups its sets generate.

    The subgroups are grown from the stable set upwards, ⟨E_k⟩ from
    ⟨E_{k+1}⟩, so a stretch of equal subgroups costs only membership
    tests.  The walk checks E_{k+1} ⊆ E_k, so the generated chain
    descends by construction.
    """
    conj = _actor_conjugation(actor)
    sets = _engel_sets(group, actor, k_cap)
    generated: list[GroupHandle] = []
    for nxt in reversed(sets[1:]):
        if frozenset(map(conj, nxt)) != nxt:
            raise ConsistencyError("commutator set is not actor-invariant")
        generated.append(generated_by(nxt, degree=group.degree,
                                      base=generated[-1] if generated else None))
    generated.reverse()
    stable_k = generated[-1] if generated else group
    return EngelChain(sets, tuple(generated), stable_k)


@derived
def commutator_descent(group: GroupHandle, actor: Actor) -> tuple[GroupHandle, ...]:
    """G ≥ [G,actor] ≥ [[G,actor],actor] ≥ … down to its stable term.

    Each term T is actor-invariant, and [T,a] = ⟨[t,a] : t ∈ T⟩ is the
    normal closure in T of the [s,a] for the generators s of T.  Since
    [st,a] = [s,a]^t·[t,a] and every t is a product of generators, each
    [t,a] is a product of T-conjugates of those [s,a]; and
    [t,a]^u = [tu,a]·[u,a]⁻¹ makes ⟨[t,a] : t ∈ T⟩ normal in T.
    """
    com = _commutator_fn(group, actor)
    return descend(group, lambda term: normal_closure(
        generated_by([com(s) for s in term.generators], degree=group.degree), term))


def baer_membership(group: GroupHandle, x: Permutation,
                    k_cap: Optional[int] = None) -> bool:
    """True iff some iterated commutator set [G,_k x] collapses to {1}.

    This reads the Engel walk without building the generated subgroups,
    so it stays cheap inside exhaustive element scans.
    """
    if not group.contains(x):
        raise ValueError(f"{x} is not a member of the group")
    return len(_engel_sets(group, x, k_cap)[-1]) == 1


@dataclass(frozen=True)
class InvolutionReport:
    """Odd-order inverted elements of an involutory automorphism."""

    j_elements: frozenset
    two_part: int
    generated_j: GroupHandle
    fixed_points: GroupHandle

    @property
    def two_exponent(self) -> int:
        return self.two_part.bit_length() - 1


@derived
def j_set(group: GroupHandle, alpha: AutomorphismMap) -> InvolutionReport:
    """Collect {g of odd order : α(g) = g^-1} along with the 2-part bound.

    ``two_part`` maximizes over all inverted elements, even-order ones
    included.
    """
    if not (alpha.is_involution() or (group.is_trivial() and alpha.is_identity())):
        raise PreconditionError("requires an involutory automorphism")
    inverted = [g for g in group.sorted_elements()
                if alpha.mapping[g] == g.inverse()]
    odd = [g for g in inverted if g.order() % 2 == 1]
    two_part = max(p_part(g, 2) for g in inverted)
    return InvolutionReport(
        j_elements=frozenset(odd),
        two_part=two_part,
        generated_j=generated_by(odd, degree=group.degree),
        fixed_points=fixed_subgroup(alpha),
    )


@dataclass(frozen=True)
class CentralizerCheck:
    """Outcome of comparing ∩_{j∈J} C(α)^j with Z(G) ∩ C(α)."""

    ok: bool
    intersection: GroupHandle
    expected: GroupHandle


def centralizer_intersection_check(group: GroupHandle,
                                   alpha: AutomorphismMap) -> CentralizerCheck:
    """Check ∩_{j∈J} C_G(α)^j = Z(G) ∩ C_G(α), given [G, α] = G."""
    if not commutator_descent(group, alpha)[-1].same_elements(group):
        raise PreconditionError("requires [G, alpha] = G")
    report = j_set(group, alpha)
    centralizer_elems = report.fixed_points.elements()
    intersection = set(centralizer_elems)
    for j in sorted(report.j_elements):
        intersection &= {c.conjugate(j) for c in centralizer_elems}
    expected = center(group).elements() & centralizer_elems
    return CentralizerCheck(intersection == expected,
                            generated_by(intersection, degree=group.degree),
                            generated_by(expected, degree=group.degree))


def holomorph_extension(group: GroupHandle, alpha: AutomorphismMap) -> GroupHandle:
    """⟨right translations of G, permutation of α⟩ acting on the element set.

    This realizes ⟨G, α⟩ inside the holomorph as a permutation group of
    degree |G| and order |G|·ord(α): α conjugates the translation by g to
    the translation by α(g), and ⟨α⟩ meets the translations trivially,
    since α fixes the identity element and no non-trivial translation
    does.  Both sizes are checked against the caps before any translation
    is built.
    """
    _check_size("the holomorph extension", group.order, group.order * alpha.order)
    elems = group.sorted_elements()
    index = {e: i for i, e in enumerate(elems)}
    translations = [Permutation(tuple(index[e * g] for e in elems))
                    for g in group.generators]
    alpha_perm = Permutation(tuple(index[alpha.mapping[e]] for e in elems))
    return close_group(translations + [alpha_perm])
