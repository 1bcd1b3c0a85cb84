"""Subgroup algebra: closures, centralizers, series, quotients, normal lattices."""

import pytest

from engelfit.errors import ConsistencyError, PreconditionError
from engelfit.group import GroupHandle, clear_derived, close_group, generated_by
from engelfit.perm import Permutation, commutator, parse_cycles
from engelfit.subgrp import (center, centralizer, commutator_subgroup,
                             derived_series, derived_subgroup, descend,
                             is_nilpotent, is_normal_in, is_perfect,
                             is_quasisimple, is_simple, is_soluble,
                             is_subnormal, join, minimal_normals,
                             normal_closure, normal_closure_descent,
                             normal_subgroups, pull_back, quotient, socle)
from tests.oracles import normal_core, subgroup_of
from tests.test_group import alt, sym


def closure_oracle(perms, degree):
    """Independent closure: saturate products until stable."""
    elems = {Permutation.identity(degree)} | set(perms)
    while True:
        new = {a * b for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def test_normal_closure_of_transposition_is_s3():
    s3 = sym(3)
    sub = generated_by([parse_cycles("(1 2)", 3)])
    expected = closure_oracle(
        {a.conjugate(g) for a in sub.elements() for g in s3.elements()}, 3)
    got = normal_closure(sub, s3)
    assert got.elements() == frozenset(expected)
    assert got.same_elements(s3)


def test_normal_closure_of_three_cycle_is_a3():
    s3 = sym(3)
    sub = generated_by([parse_cycles("(1 2 3)", 3)])
    expected = closure_oracle(
        {a.conjugate(g) for a in sub.elements() for g in s3.elements()}, 3)
    got = normal_closure(sub, s3)
    assert got.elements() == frozenset(expected)
    assert got.order == 3


def test_normal_closure_properties():
    s4 = sym(4)
    for gen_text in ["(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)"]:
        sub = generated_by([parse_cycles(gen_text, 4)])
        nc = normal_closure(sub, s4)
        assert sub.is_subset_of(nc)
        assert is_normal_in(nc, s4)
        assert nc.same_elements(sub) == is_normal_in(sub, s4)


def test_join_idempotent():
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    assert join(v4, v4).same_elements(v4)


def test_join_of_many_and_of_none():
    a, b, c = (generated_by([parse_cycles(t, 4)]) for t in ("(1 2)", "(2 3)", "(3 4)"))
    assert join(a, b, c).same_elements(sym(4))
    empty = join(degree=5)
    assert empty.degree == 5 and empty.is_trivial()
    # a trivial group has no minimal normal subgroups, so its socle is an empty join
    assert socle(GroupHandle.trivial(3)).same_elements(GroupHandle.trivial(3))


def test_center_of_d4_by_element_scan():
    d4 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    scan = [z for z in d4.sorted_elements()
            if all(z * g == g * z for g in d4.elements())]
    z = center(d4)
    assert z.elements() == frozenset(scan)
    assert z.order == 2


def test_center_of_s4_trivial():
    assert center(sym(4)).is_trivial()


def test_normal_core_of_d4_in_s4():
    s4 = sym(4)
    d4 = generated_by([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    # oracle: intersect the three subgroup conjugates directly
    conjugates = []
    for g in s4.sorted_elements():
        conjugates.append(frozenset(e.conjugate(g) for e in d4.elements()))
    expected = frozenset.intersection(*conjugates)
    core = normal_core(s4, d4)
    assert core.elements() == expected
    assert core.order == 4


def test_centralizer_membership_guard():
    with pytest.raises(ValueError):
        centralizer(sym(3), [parse_cycles("(1 2)", 4)])


def brute_derived(group):
    return closure_oracle({commutator(a, b) for a in group.elements()
                           for b in group.elements()}, group.degree)


def test_derived_series_of_s4():
    s4 = sym(4)
    series = derived_series(s4)
    assert [t.order for t in series] == [24, 12, 4, 1]
    assert is_soluble(s4)
    # oracle for first two steps
    d1 = brute_derived(s4)
    assert series[1].elements() == frozenset(d1)
    d2 = brute_derived(series[1])
    assert series[2].elements() == frozenset(d2)


def test_a5_perfect_by_brute_force():
    a5 = alt(5)
    assert frozenset(brute_derived(a5)) == a5.elements()
    assert is_perfect(a5)
    assert not is_soluble(a5)


def test_nilpotency():
    assert not is_nilpotent(sym(3))
    c12 = close_group([parse_cycles("(1 2 3 4 5 6 7 8 9 10 11 12)", 12)])
    assert is_nilpotent(c12)
    d4 = close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    assert is_nilpotent(d4)


def test_commutator_subgroup_of_pair():
    s4 = sym(4)
    a4 = alt(4)
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    assert commutator_subgroup(a4, a4, within=s4).same_elements(v4)


def test_subnormal_with_witness_chain():
    s4 = sym(4)
    sub = generated_by([parse_cycles("(1 2)(3 4)", 4)])
    assert is_subnormal(sub, s4)
    chain = normal_closure_descent(sub, s4)
    assert [c.order for c in chain] == [24, 4, 2]


def test_transposition_not_subnormal_in_s4():
    sub = generated_by([parse_cycles("(1 2)", 4)])
    assert not is_subnormal(sub, sym(4))
    chain = normal_closure_descent(sub, sym(4))
    assert chain[-1].order == 24


def test_group_subnormal_in_itself():
    s4 = sym(4)
    assert is_subnormal(s4, s4) and len(normal_closure_descent(s4, s4)) == 1


def test_descend_rejects_a_term_leaving_its_predecessor(monkeypatch):
    import engelfit.subgrp
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    outside = generated_by([parse_cycles("(1 2)", 4)])
    monkeypatch.setattr(engelfit.subgrp, "derived_subgroup", lambda group: outside)
    with pytest.raises(ConsistencyError, match="left the previous term"):
        derived_series(v4)
    with pytest.raises(ConsistencyError, match="left the previous term at step 2"):
        descend(sym(4), lambda term: v4 if term.order == 24 else outside)


def test_pull_back_fitting_subgroup_of_s4(monkeypatch):
    import engelfit.subgrp
    from engelfit.series import fitting_subgroup
    s4 = sym(4)
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    assert pull_back(s4, v4, fitting_subgroup).same_elements(alt(4))

    def no_quotient(group, kernel):
        raise AssertionError("coset action built")

    # the trivial kernel and the whole group build no coset action
    monkeypatch.setattr(engelfit.subgrp, "quotient", no_quotient)
    assert pull_back(s4, GroupHandle.trivial(4), fitting_subgroup).same_elements(v4)
    assert pull_back(s4, s4, fitting_subgroup).same_elements(s4)


def test_quotient_s4_by_v4():
    s4 = sym(4)
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    q = quotient(s4, v4)
    assert q.image.order == 6
    assert q.image.degree == 6
    assert not all(a * b == b * a for a in q.image.generators for b in q.image.generators)


def test_quotient_by_trivial_is_regular():
    s3 = sym(3)
    from engelfit.group import GroupHandle
    q = quotient(s3, GroupHandle.trivial(3))
    assert q.image.degree == 6
    assert q.image.order == 6


def test_quotient_forward_is_homomorphism():
    s4 = sym(4)
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    q = quotient(s4, v4)
    for a in s4.generators:
        for b in s4.generators:
            assert q.image_of(a * b) == q.image_of(a) * q.image_of(b)


def test_quotient_preimage_round_trip():
    s4 = sym(4)
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    q = quotient(s4, v4)
    assert q.preimage_of(q.image).same_elements(s4)
    for member in normal_subgroups(q.image):
        pulled = q.preimage_of(member)
        back = generated_by([q.image_of(g) for g in pulled.generators],
                            degree=q.image.degree)
        assert back.same_elements(member)
        assert pulled.order == member.order * v4.order


def test_quotient_requires_normal_kernel():
    with pytest.raises(PreconditionError):
        quotient(sym(4), generated_by([parse_cycles("(1 2)", 4)]))


def test_quotient_order_product_invariant():
    s4 = sym(4)
    for member in normal_subgroups(s4):
        q = quotient(s4, member)
        assert q.image.order * member.order == s4.order


def test_normal_lattice_of_s4():
    lattice = normal_subgroups(sym(4))
    assert [m.order for m in lattice] == [1, 4, 12, 24]


def test_normal_lattice_count_cap(monkeypatch):
    from engelfit import subgrp as subgrp_module
    from engelfit.errors import ResourceLimitError
    # elementary abelian 2-group: every one of its 16 subgroups is normal
    e8 = close_group([parse_cycles("(1 2)", 6), parse_cycles("(3 4)", 6),
                      parse_cycles("(5 6)", 6)])
    clear_derived()
    monkeypatch.setattr(subgrp_module, "LATTICE_COUNT_CAP", 5)
    with pytest.raises(ResourceLimitError):
        normal_subgroups(e8)


def test_normal_lattice_against_full_subgroup_scan():
    # oracle: filter the complete subgroup lattice for normality
    from engelfit.zipper import all_subgroups
    s4 = sym(4)
    full = all_subgroups(s4)
    expected = sorted(m.fingerprint for m in full.members if is_normal_in(m, s4))
    got = sorted(m.fingerprint for m in normal_subgroups(s4))
    assert got == expected


def test_lattice_join_closed_and_conjugation_stable():
    s4 = sym(4)
    lattice = normal_subgroups(s4)
    fps = {m.fingerprint for m in lattice}
    for a in lattice:
        for b in lattice:
            assert join(a, b).fingerprint in fps
        for g in s4.generators:
            conj = generated_by([x.conjugate(g) for x in a.generators], degree=4)
            assert conj.fingerprint == a.fingerprint


def test_minimal_normals_and_socle_s4():
    s4 = sym(4)
    mins = minimal_normals(s4)
    assert [m.order for m in mins] == [4]
    assert socle(s4).order == 4


def test_simplicity():
    assert is_simple(alt(5))
    assert not is_simple(sym(5))
    assert not is_simple(close_group([parse_cycles("(1 2 3 4)", 4)]))
    c5 = close_group([parse_cycles("(1 2 3 4 5)", 5)])
    assert is_simple(c5)


def test_sl25_quasisimple():
    from engelfit.corpus import builtin
    sl25 = builtin("sl2(5)").group
    assert sl25.order == 120
    assert is_perfect(sl25)
    assert center(sl25).order == 2
    assert is_quasisimple(sl25)
    assert not is_quasisimple(alt(4))
    assert is_quasisimple(alt(5))


def test_subgroup_of_validates_membership():
    with pytest.raises(ValueError):
        subgroup_of(alt(4), [parse_cycles("(1 2)", 4)])
    sub = subgroup_of(sym(4), [parse_cycles("(1 2)", 4)])
    assert sub.order == 2


def test_derived_subgroup_cached_consistently():
    s4 = sym(4)
    assert derived_subgroup(s4) is derived_subgroup(s4)


@pytest.fixture(scope="module")
def lattice_groups():
    from engelfit.corpus import small_std
    groups = {e.name: e.group for e in small_std()}
    # all 67 of its subgroups are normal; 51 are joins of two or more of
    # the 15 subgroups its nontrivial classes generate
    groups["c2^4"] = close_group([parse_cycles(c, 8)
                                  for c in ("(1 2)", "(3 4)", "(5 6)", "(7 8)")])
    return groups


@pytest.mark.parametrize("name", ["s4", "d6", "c12", "s4xs3", "c2^4"])
def test_normal_lattice_is_the_normal_part_of_the_full_lattice(lattice_groups, name):
    from engelfit.zipper import all_subgroups
    group = lattice_groups[name]
    expected = {m.elements() for m in all_subgroups(group).members
                if is_normal_in(m, group)}
    members = normal_subgroups(group)
    assert {m.elements() for m in members} == expected
