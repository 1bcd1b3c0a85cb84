"""Subgroup algebra: closures, centralizers, series, quotients, normal lattices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ConsistencyError, PreconditionError, ResourceLimitError
from .group import ELEMENT_CAP, GroupHandle, derived, generated_by
from .perm import Permutation, commutator

__all__ = [
    "Subgroup",
    "SeriesRecord",
    "QuotientMap",
    "NormalLattice",
    "subgroup_of",
    "join",
    "normal_closure",
    "centralizer",
    "center",
    "normal_core",
    "commutator_subgroup",
    "derived_subgroup",
    "derived_series",
    "lower_central_series",
    "is_soluble",
    "is_nilpotent",
    "is_perfect",
    "is_normal_in",
    "is_subnormal",
    "normal_closure_descent",
    "quotient",
    "normal_subgroups",
    "minimal_normals",
    "socle",
    "is_simple",
    "is_quasisimple",
]

LATTICE_COUNT_CAP = 50_000


@dataclass(frozen=True)
class Subgroup:
    """A subgroup together with the group it lives in."""

    parent: GroupHandle
    group: GroupHandle

    def __post_init__(self):
        if self.parent.degree != self.group.degree:
            raise ValueError("subgroup degree differs from parent degree")

    @property
    def order(self) -> int:
        return self.group.order


@dataclass(frozen=True)
class SeriesRecord:
    """A named chain of subgroups with its characteristic length.

    ``length`` is the count the series measures (height, insoluble length,
    number of strict descent steps), fixed by the constructing operation.
    """

    kind: str
    terms: tuple[Subgroup, ...]
    length: int

    KINDS = ("fitting", "generalized_fitting", "insoluble_upper", "derived",
             "lower_central", "engel_chain", "normal_closure_descent")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown series kind {self.kind!r}")


def subgroup_of(parent: GroupHandle, generators: Iterable[Permutation]) -> Subgroup:
    """Build a subgroup of `parent`, checking every generator's membership."""
    gens = list(generators)
    for g in gens:
        if not parent.contains(g):
            raise ValueError(f"generator {g} is not a member of the parent group")
    return Subgroup(parent, generated_by(gens, degree=parent.degree, cap=parent.element_cap))


def join(*handles: GroupHandle, degree: Optional[int] = None,
         cap: Optional[int] = None) -> GroupHandle:
    """⟨A ∪ B ∪ …⟩; with no handles, the trivial group of `degree`."""
    if len({h.degree for h in handles}) > 1:
        raise ValueError("degree mismatch in join")
    if cap is None:
        cap = handles[0].element_cap if handles else ELEMENT_CAP
    return generated_by([g for h in handles for g in h.generators],
                        degree=degree, cap=cap)


@derived
def normal_closure(sub: GroupHandle, ambient: GroupHandle) -> GroupHandle:
    """⟨sub^ambient⟩: the smallest normal subgroup of `ambient` containing `sub`."""
    if sub.degree != ambient.degree:
        raise ValueError("degree mismatch in normal closure")
    gens = [g for g in sub.generators if not g.is_identity()]
    current = generated_by(gens, degree=ambient.degree, cap=ambient.element_cap)
    pending = list(current.generators)
    while pending:
        s = pending.pop()
        for g in ambient.generators:
            conj = s.conjugate(g)
            if conj not in current.elements():
                current = generated_by(current.generators + (conj,),
                                       cap=ambient.element_cap)
                pending.append(conj)
    for s in current.generators:  # closure is ambient-invariant by construction
        for g in ambient.generators:
            if s.conjugate(g) not in current.elements():
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
    return generated_by(fixed, degree=group.degree, cap=group.element_cap)


@derived
def center(group: GroupHandle) -> GroupHandle:
    return centralizer(group, group.generators)


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
    return generated_by(current, degree=group.degree, cap=group.element_cap)


def commutator_subgroup(h: GroupHandle, k: GroupHandle,
                        within: Optional[GroupHandle] = None) -> GroupHandle:
    """[H, K], generated by generator commutators and closed under ⟨H, K⟩-conjugation."""
    if h.degree != k.degree:
        raise ValueError("degree mismatch in commutator subgroup")
    ambient = within if within is not None else join(h, k)
    base = [commutator(x, y) for x in h.generators for y in k.generators]
    seed = generated_by(base, degree=h.degree, cap=ambient.element_cap)
    return normal_closure(seed, ambient)


@derived
def derived_subgroup(group: GroupHandle) -> GroupHandle:
    return commutator_subgroup(group, group, within=group)


def derived_series(group: GroupHandle) -> SeriesRecord:
    terms = [group]
    while True:
        nxt = derived_subgroup(terms[-1])
        if nxt.same_elements(terms[-1]):
            break
        terms.append(nxt)
    return SeriesRecord("derived",
                        tuple(Subgroup(group, t) for t in terms),
                        length=len(terms) - 1)


def lower_central_series(group: GroupHandle) -> SeriesRecord:
    terms = [group]
    while True:
        nxt = commutator_subgroup(terms[-1], group, within=group)
        if nxt.same_elements(terms[-1]):
            break
        terms.append(nxt)
    return SeriesRecord("lower_central",
                        tuple(Subgroup(group, t) for t in terms),
                        length=len(terms) - 1)


@derived
def is_soluble(group: GroupHandle) -> bool:
    return derived_series(group).terms[-1].group.is_trivial()


@derived
def is_nilpotent(group: GroupHandle) -> bool:
    return lower_central_series(group).terms[-1].group.is_trivial()


def is_perfect(group: GroupHandle) -> bool:
    return derived_subgroup(group).same_elements(group)


def is_normal_in(sub: GroupHandle, ambient: GroupHandle) -> bool:
    if not sub.is_subset_of(ambient):
        return False
    elems = sub.elements()
    return all(s.conjugate(g) in elems
               for s in sub.generators for g in ambient.generators)


def normal_closure_descent(sub: GroupHandle, ambient: GroupHandle) -> SeriesRecord:
    """H_0 = H, H_{i+1} = ⟨sub^{H_i}⟩ down to the stable term F(sub, H)."""
    if not sub.is_subset_of(ambient):
        raise ValueError("descent requires the subgroup to lie in the ambient group")
    terms = [ambient]
    while True:
        nxt = normal_closure(sub, terms[-1])
        if nxt.same_elements(terms[-1]):
            break
        terms.append(nxt)
    return SeriesRecord("normal_closure_descent",
                        tuple(Subgroup(ambient, t) for t in terms),
                        length=len(terms) - 1)


def is_subnormal(sub: GroupHandle, group: GroupHandle) -> tuple[bool, list[GroupHandle]]:
    """Decide subnormality by iterated normal closure.

    The descent G ⊵ ⟨A^G⟩ ⊵ ⟨A^⟨A^G⟩⟩ ⊵ … reaches A exactly when A is
    subnormal, and the visited terms form a witness chain.
    """
    chain = [t.group for t in normal_closure_descent(sub, group).terms]
    return chain[-1].same_elements(sub), chain


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
        return self.coset_reps[q.images[0]]

    def preimage_of(self, sub: GroupHandle) -> GroupHandle:
        """⟨kernel ∪ lifts of sub's generators⟩, the full preimage of sub."""
        lifts = tuple(self.lift(q) for q in sub.generators)
        return generated_by(self.kernel.generators + lifts,
                            cap=self.source.element_cap)


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


@dataclass(frozen=True)
class NormalLattice:
    """All normal subgroups of a group, sorted by (order, fingerprint)."""

    parent: GroupHandle
    members: tuple[Subgroup, ...]

    def __len__(self) -> int:
        return len(self.members)


@derived
def normal_subgroups(group: GroupHandle, count_cap: int = LATTICE_COUNT_CAP) -> NormalLattice:
    """Join-closure of the normal closures of class representatives.

    Every normal subgroup is a union of conjugacy classes and hence the
    join of the closures of its class representatives, so this enumerates
    the full normal lattice.
    """
    found: dict[frozenset[Permutation], GroupHandle] = {}
    trivial = GroupHandle.trivial(group.degree)
    found[trivial.elements()] = trivial
    for rep in group.conjugacy_classes().representatives:
        closure = normal_closure(generated_by([rep], degree=group.degree,
                                              cap=group.element_cap), group)
        found.setdefault(closure.elements(), closure)
    while True:
        snapshot = sorted(found.values(), key=lambda h: (h.order, h.fingerprint))
        added = False
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1:]:
                j = join(a, b, cap=group.element_cap)
                if j.elements() not in found:
                    if len(found) >= count_cap:
                        raise ResourceLimitError(
                            f"normal lattice count cap {count_cap} exceeded",
                            partial_count=len(found))
                    found[j.elements()] = j
                    added = True
        if not added:
            break
    members = sorted(found.values(), key=lambda h: (h.order, h.fingerprint))
    for m in members:
        if not is_normal_in(m, group):
            raise ConsistencyError("lattice member fails the normality check")
    return NormalLattice(group, tuple(Subgroup(group, m) for m in members))


def minimal_normals(group: GroupHandle) -> list[GroupHandle]:
    """Minimal nontrivial normal subgroups."""
    members = [m.group for m in normal_subgroups(group).members
               if not m.group.is_trivial()]
    out = []
    for m in members:
        if not any(other.order < m.order and other.is_subset_of(m)
                   for other in members):
            out.append(m)
    return out


@derived
def socle(group: GroupHandle) -> GroupHandle:
    return join(*minimal_normals(group), degree=group.degree, cap=group.element_cap)


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
