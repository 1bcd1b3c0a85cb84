"""Characteristic subgroups and series: F(G), E(G), F*(G), heights, insoluble length."""

from __future__ import annotations

from typing import Optional

from .errors import ConsistencyError, PreconditionError
from .group import GroupHandle, derived, generated_by
from .subgrp import (centralizer, is_nilpotent, is_quasisimple, is_soluble,
                     join, maximal_members, normal_subgroups, pull_back,
                     quotient, socle)

__all__ = [
    "fitting_subgroup",
    "odd_core",
    "soluble_radical",
    "layer",
    "generalized_fitting",
    "gen_fitting_series",
    "gen_fitting_height",
    "fitting_series",
    "fitting_height",
    "insoluble_length",
    "upper_insoluble_series",
]


def _join_members(group: GroupHandle, keep) -> GroupHandle:
    picked = [m for m in normal_subgroups(group) if keep(m)]
    return join(*picked, degree=group.degree)


@derived
def fitting_subgroup(group: GroupHandle) -> GroupHandle:
    """Join of the nilpotent normal subgroups (nilpotent by Fitting's theorem)."""
    fitting = _join_members(group, is_nilpotent)
    if not is_nilpotent(fitting):
        raise ConsistencyError("join of nilpotent normal subgroups is not nilpotent")
    return fitting


def odd_core(group: GroupHandle) -> GroupHandle:
    """Largest odd-order normal subgroup."""
    return _join_members(group, lambda h: h.order % 2 == 1)


@derived
def soluble_radical(group: GroupHandle) -> GroupHandle:
    """Largest soluble normal subgroup."""
    return _join_members(group, is_soluble)


@derived
def layer(group: GroupHandle) -> GroupHandle:
    """Subgroup generated by the quasisimple subnormal subgroups.

    Every component of a non-quasisimple group lies inside a maximal
    proper normal subgroup and is a component there, so the layer is the
    join of the layers of those subgroups; the recursion is cached by
    element set since members recur across the lattice walk.
    """
    if is_soluble(group):
        return GroupHandle.trivial(group.degree)
    if is_quasisimple(group):
        return group
    maximal = maximal_members(m for m in normal_subgroups(group)
                              if m.order < group.order)
    return join(*(layer(m) for m in maximal), degree=group.degree)


@derived
def _gen_fitting_by_socle(group: GroupHandle) -> GroupHandle:
    """Independent route to F*(G): pull back the socle of C(F)F/F.

    When F(G) is trivial there are no abelian minimal normal subgroups, so
    the formula collapses to the socle of the group itself.
    """
    f = fitting_subgroup(group)
    if f.same_elements(group):
        return group
    if f.is_trivial():
        return socle(group)
    q = quotient(group, f)
    cf = centralizer(group, f.generators)
    cff = join(cf, f)
    image_sub = generated_by([q.image_of(g) for g in cff.generators],
                             degree=q.image.degree)
    return q.preimage_of(socle(image_sub))


@derived
def generalized_fitting(group: GroupHandle) -> GroupHandle:
    """F*(G) = F(G) E(G); the engine crosschecks compare it with the socle route."""
    return join(fitting_subgroup(group), layer(group))


def _ascending_series(group: GroupHandle, fn, kind: str) -> tuple[GroupHandle, ...]:
    """T_1 < T_2 < … = G with T_{i+1}/T_i = fn(G/T_i), from T_0 = 1."""
    terms: list[GroupHandle] = []
    current = GroupHandle.trivial(group.degree)
    while current.order < group.order:
        nxt = pull_back(group, current, fn)
        if nxt.order <= current.order:
            raise ConsistencyError(f"{kind} series stalled at order {current.order}")
        terms.append(nxt)
        current = nxt
    return tuple(terms)


@derived
def gen_fitting_series(group: GroupHandle) -> tuple[GroupHandle, ...]:
    """F*_1 < F*_2 < … = G; the length is the generalized Fitting height."""
    return _ascending_series(group, generalized_fitting, "generalized_fitting")


def gen_fitting_height(group: GroupHandle) -> int:
    return len(gen_fitting_series(group))


@derived
def fitting_series(group: GroupHandle) -> tuple[GroupHandle, ...]:
    """F_1 < F_2 < … = G for a soluble group."""
    if not is_soluble(group):
        raise PreconditionError("Fitting series requires a soluble group")
    return _ascending_series(group, fitting_subgroup, "fitting")


def fitting_height(group: GroupHandle) -> int:
    return len(fitting_series(group))


@derived
def insoluble_length(group: GroupHandle) -> int:
    """Minimum number of insoluble factors in a normal series.

    Computed by peeling the soluble radical and the socle above it: that
    quotient step removes exactly one insoluble factor.
    """
    if is_soluble(group):
        return 0
    top = pull_back(group, soluble_radical(group), socle)
    if top.same_elements(group):
        return 1
    return 1 + insoluble_length(quotient(group, top).image)


def upper_insoluble_series(group: GroupHandle,
                           h_max: Optional[int] = None) -> tuple[GroupHandle, ...]:
    """R_0 ≤ R_1 ≤ … where R_i is the largest normal subgroup of insoluble length ≤ i."""
    if h_max is None:
        h_max = insoluble_length(group)
    terms: list[GroupHandle] = []
    for h in range(h_max + 1):
        r_h = _join_members(group, lambda m: insoluble_length(m) <= h)
        if terms and not terms[-1].is_subset_of(r_h):
            raise ConsistencyError("upper insoluble series is not ascending")
        terms.append(r_h)
    if not terms[0].same_elements(soluble_radical(group)):
        raise ConsistencyError("R_0 differs from the soluble radical")
    return tuple(terms)
