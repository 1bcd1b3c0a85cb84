"""Subgroup algebra: closures, centralizers, series, quotients, normal lattices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import ConsistencyError, PreconditionError, ResourceLimitError
from .group import GroupHandle, derived, generated_by
from .perm import Permutation, commutator

__all__ = [
    "QuotientMap",
    "join",
    "maximal_members",
    "normal_closure",
    "centralizer",
    "center",
    "commutator_subgroup",
    "derived_subgroup",
    "derived_series",
    "lower_central_series",
    "descend",
    "is_soluble",
    "is_nilpotent",
    "is_perfect",
    "is_normal_in",
    "is_subnormal",
    "normal_closure_descent",
    "quotient",
    "pull_back",
    "normal_subgroups",
    "minimal_normals",
    "socle",
    "is_simple",
    "is_quasisimple",
]

LATTICE_COUNT_CAP = 50_000


def join(*handles: GroupHandle, degree: Optional[int] = None) -> GroupHandle:
    """⟨A ∪ B ∪ …⟩, grown from the largest handle (the first of the
    largest order); with no handles, the trivial group of `degree`."""
    if not handles:
        return generated_by((), degree=degree)
    if len({h.degree for h in handles}) > 1:
        raise ValueError("degree mismatch in join")
    base = max(handles, key=lambda h: h.order)
    return generated_by([g for h in handles if h is not base for g in h.generators],
                        base=base)


def maximal_members(handles: Iterable[GroupHandle]) -> list[GroupHandle]:
    """The handles not properly contained in another one, in input order
    (tried from the end, so an order-sorted list finds overgroups early)."""
    members = list(handles)
    return [m for m in members
            if not any(m.order < other.order and m.is_subset_of(other)
                       for other in reversed(members))]


@derived
def normal_closure(sub: GroupHandle, ambient: GroupHandle) -> GroupHandle:
    """⟨sub^ambient⟩: the smallest normal subgroup of `ambient` containing
    `sub`, grown from the elements of `sub`, which must lie in `ambient`."""
    if sub.degree != ambient.degree:
        raise ValueError("degree mismatch in normal closure")
    current = sub
    pending = list(sub.generators)
    while pending:
        s = pending.pop()
        for g in ambient.generators:
            conj = s.conjugate(g)
            if conj not in current.elements():
                current = generated_by((conj,), base=current)
                pending.append(conj)
    if not is_normal_in(current, ambient):  # normal by construction
        raise ConsistencyError("normal closure is not ambient-invariant")
    return current


def centralizer(group: GroupHandle, perms: Iterable[Permutation]) -> GroupHandle:
    """Elements of `group` commuting with every permutation in `perms`."""
    targets = list(perms)
    for s in targets:
        if s.degree != group.degree:
            raise ValueError("degree mismatch in centralizer")
    fixed = [g for g in group.sorted_elements()
             if all(g * s == s * g for s in targets)]
    return generated_by(fixed, degree=group.degree)


@derived
def center(group: GroupHandle) -> GroupHandle:
    return centralizer(group, group.generators)


def commutator_subgroup(h: GroupHandle, k: GroupHandle,
                        within: GroupHandle) -> GroupHandle:
    """[H, K], generated by generator commutators and closed under
    conjugation by `within`, which contains H and K and normalizes [H, K]."""
    if h.degree != k.degree:
        raise ValueError("degree mismatch in commutator subgroup")
    base = [commutator(x, y) for x in h.generators for y in k.generators]
    seed = generated_by(base, degree=h.degree)
    return normal_closure(seed, within)


@derived
def derived_subgroup(group: GroupHandle) -> GroupHandle:
    return commutator_subgroup(group, group, within=group)


def descend(top: GroupHandle,
            step: Callable[[GroupHandle], GroupHandle]) -> tuple[GroupHandle, ...]:
    """top, step(top), … up to the first term that `step` fixes; a term
    that leaves its predecessor is an engine bug."""
    terms = [top]
    while True:
        nxt = step(terms[-1])
        if nxt.same_elements(terms[-1]):
            return tuple(terms)
        if not nxt.is_subset_of(terms[-1]):
            raise ConsistencyError(
                f"descending series left the previous term at step {len(terms)}")
        terms.append(nxt)


def derived_series(group: GroupHandle) -> tuple[GroupHandle, ...]:
    """G > G' > G'' > … down to its stable term."""
    return descend(group, derived_subgroup)


def lower_central_series(group: GroupHandle) -> tuple[GroupHandle, ...]:
    """G > [G,G] > [G,G,G] > … down to its stable term."""
    return descend(group, lambda term: commutator_subgroup(term, group, within=group))


@derived
def is_soluble(group: GroupHandle) -> bool:
    return derived_series(group)[-1].is_trivial()


@derived
def is_nilpotent(group: GroupHandle) -> bool:
    return lower_central_series(group)[-1].is_trivial()


def is_perfect(group: GroupHandle) -> bool:
    return derived_subgroup(group).same_elements(group)


def is_normal_in(sub: GroupHandle, ambient: GroupHandle) -> bool:
    if not sub.is_subset_of(ambient):
        return False
    elems = sub.elements()
    return all(s.conjugate(g) in elems
               for s in sub.generators for g in ambient.generators)


def normal_closure_descent(sub: GroupHandle,
                           ambient: GroupHandle) -> tuple[GroupHandle, ...]:
    """H_0 = H, H_{i+1} = ⟨sub^{H_i}⟩ down to the stable term F(sub, H)."""
    if not sub.is_subset_of(ambient):
        raise ValueError("descent requires the subgroup to lie in the ambient group")
    return descend(ambient, lambda term: normal_closure(sub, term))


def is_subnormal(sub: GroupHandle, group: GroupHandle) -> bool:
    """Decide subnormality by iterated normal closure.

    The descent G ⊵ ⟨A^G⟩ ⊵ ⟨A^⟨A^G⟩⟩ ⊵ … reaches A exactly when A is
    subnormal; `normal_closure_descent` returns its terms as a witness
    chain.
    """
    return normal_closure_descent(sub, group)[-1].same_elements(sub)


@dataclass
class QuotientMap:
    """Action of a group on the right cosets of a normal subgroup.

    Coset representatives are the least elements of their cosets, indexed
    in sorted order; index 0 is always the kernel itself.
    """

    source: GroupHandle
    kernel: GroupHandle
    image: GroupHandle
    coset_reps: tuple[Permutation, ...]
    _index: dict = field(repr=False)

    def image_of(self, g: Permutation) -> Permutation:
        if not self.source.contains(g):
            raise ValueError(f"{g} is not a member of the source group")
        return Permutation(tuple(self._index[rep * g] for rep in self.coset_reps))

    def lift(self, q: Permutation) -> Permutation:
        """A source element mapping onto the image element q."""
        if not self.image.contains(q):
            raise ValueError(f"{q} is not a member of the image group")
        return self.coset_reps[q.act(1) - 1]

    def preimage_of(self, sub: GroupHandle) -> GroupHandle:
        """⟨kernel ∪ lifts of sub's generators⟩, the full preimage of sub."""
        return generated_by([self.lift(q) for q in sub.generators], base=self.kernel)


def quotient(group: GroupHandle, kernel: GroupHandle) -> QuotientMap:
    """Faithful action of group/kernel on right cosets of the kernel."""
    if not is_normal_in(kernel, group):
        raise PreconditionError("quotient kernel must be a normal subgroup")
    kernel_elems = kernel.elements()
    index: dict[Permutation, int] = {}
    reps: list[Permutation] = []
    for e in group.sorted_elements():
        if e in index:
            continue
        i = len(reps)
        reps.append(e)
        for n in kernel_elems:
            index[n * e] = i
    n_cosets = len(reps)
    image_gens = []
    for g in group.generators:
        image_gens.append(Permutation(tuple(index[reps[i] * g] for i in range(n_cosets))))
    image = generated_by(image_gens, degree=max(n_cosets, 1))
    if image.order * kernel.order != group.order:
        raise ConsistencyError(
            f"coset action order {image.order} x kernel {kernel.order} != "
            f"group order {group.order}")
    return QuotientMap(group, kernel, image, tuple(reps), index)


def pull_back(group: GroupHandle, kernel: GroupHandle,
              fn: Callable[[GroupHandle], GroupHandle]) -> GroupHandle:
    """The preimage in `group` of fn(group/kernel), for a normal `kernel`.

    A trivial kernel gives fn(group) and the whole group gives the group;
    neither builds a coset action.
    """
    if kernel.is_trivial():
        return fn(group)
    if kernel.same_elements(group):
        return group
    q = quotient(group, kernel)
    return q.preimage_of(fn(q.image))


@derived
def normal_subgroups(group: GroupHandle) -> tuple[GroupHandle, ...]:
    """Every normal subgroup, sorted by (order, fingerprint).

    A normal subgroup is a union of conjugacy classes C, hence the join of
    the subgroups ⟨C⟩ it contains.  Each new ⟨C_i⟩ is joined with every
    member found so far, so after C_1, …, C_i the found set is exactly the
    joins of the subsets of {⟨C_1⟩, …, ⟨C_i⟩}; a ⟨C_i⟩ already found is
    skipped, since that set is closed under joins.
    """
    trivial = GroupHandle.trivial(group.degree)
    found: dict[frozenset[Permutation], GroupHandle] = {trivial.elements(): trivial}
    for cls in group.conjugacy_classes().classes.values():
        sub = generated_by(cls)
        if sub.elements() in found:
            continue
        for member in list(found.values()):
            j = join(sub, member)
            if j.elements() not in found:
                if len(found) >= LATTICE_COUNT_CAP:
                    raise ResourceLimitError(
                        f"normal lattice count cap {LATTICE_COUNT_CAP} exceeded",
                        partial_count=len(found))
                found[j.elements()] = j
    members = tuple(sorted(found.values(), key=lambda h: (h.order, h.fingerprint)))
    for m in members:
        if not is_normal_in(m, group):
            raise ConsistencyError("lattice member fails the normality check")
    return members


def minimal_normals(group: GroupHandle) -> list[GroupHandle]:
    """Minimal nontrivial normal subgroups."""
    members = [m for m in normal_subgroups(group) if not m.is_trivial()]
    out = []
    for m in members:
        if not any(other.order < m.order and other.is_subset_of(m)
                   for other in members):
            out.append(m)
    return out


@derived
def socle(group: GroupHandle) -> GroupHandle:
    return join(*minimal_normals(group), degree=group.degree)


def is_simple(group: GroupHandle) -> bool:
    return group.order > 1 and len(normal_subgroups(group)) == 2


def is_quasisimple(group: GroupHandle) -> bool:
    """Perfect with simple central quotient."""
    if not is_perfect(group):
        return False
    z = center(group)
    if z.is_trivial():
        return is_simple(group)
    return is_simple(quotient(group, z).image)
