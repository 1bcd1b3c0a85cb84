"""Subgroup lattices, normal-closure descent, and the dichotomy scan."""

from math import gcd

import pytest

from engelfit import zipper as zipper_module
from engelfit.errors import PreconditionError, ResourceLimitError
from engelfit.group import clear_derived, close_group, generated_by
from engelfit.perm import parse_cycles
from engelfit.subgrp import is_subnormal, join, normal_closure
from engelfit.zipper import (all_subgroups, descent_lemma_failures,
                             normal_closure_descent, zipper_case)
from tests.oracles import (double_coset_reps_by_products, self_closing_join,
                           unique_max_element_check)
from tests.test_group import alt, sym
from tests.test_subgroups import closure_oracle


def brute_force_subgroups(group):
    """Oracle: grow subgroups by adjoining single elements until stable."""
    elems = sorted(group.elements())
    found = {frozenset([group.identity])}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for g in elems:
            if g in base:
                continue
            new = frozenset(closure_oracle(base | {g}, group.degree))
            if new not in found:
                found.add(new)
                frontier.append(new)
    return found


def test_s3_subgroups():
    s3 = sym(3)
    lattice = all_subgroups(s3)
    assert len(lattice.members) == 6
    maximal_orders = sorted(m.order for m in lattice.maximal)
    assert maximal_orders == [2, 2, 2, 3]


def test_s4_subgroups_against_brute_force():
    s4 = sym(4)
    lattice = all_subgroups(s4)
    oracle = brute_force_subgroups(s4)
    assert len(lattice.members) == len(oracle) == 30
    assert {m.elements() for m in lattice.members} == oracle


def test_prime_cyclic_has_two_subgroups():
    for p in (2, 3, 5, 7):
        cp = close_group([parse_cycles("(" + " ".join(map(str, range(1, p + 1))) + ")", p)])
        assert len(all_subgroups(cp).members) == 2


def test_a4_subgroups_against_brute_force():
    a4 = alt(4)
    lattice = all_subgroups(a4)
    oracle = brute_force_subgroups(a4)
    assert len(lattice.members) == len(oracle) == 10
    assert {m.elements() for m in lattice.members} == oracle


def test_lattice_closed_under_join_and_intersection():
    d6 = close_group([parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(2 6)(3 5)", 6)])
    lattice = all_subgroups(d6)
    sets = {m.elements() for m in lattice.members}
    for a in lattice.members:
        for b in lattice.members:
            assert a.elements() & b.elements() in sets
            assert join(a, b).elements() in sets


def _classes(lattice):
    """Member element sets grouped by their recorded class representative."""
    classes = {}
    for m in lattice.members:
        rep = lattice.representative_of[m.elements()]
        classes.setdefault(rep.elements(), set()).add(m.elements())
    return classes


@pytest.mark.parametrize("group, members, classes", [
    (sym(3), 6, 4), (alt(4), 10, 5), (sym(4), 30, 11), (alt(5), 59, 9),
    (sym(5), 156, 19)], ids=["s3", "a4", "s4", "a5", "s5"])
def test_lattice_classes_are_the_conjugacy_classes_of_subgroups(group, members, classes):
    lattice = all_subgroups(group)
    found = _classes(lattice)
    assert (len(lattice.members), len(found)) == (members, classes)
    for rep, members_of_class in found.items():
        conjugates = {frozenset(e.conjugate(g) for e in rep) for g in group.elements()}
        assert members_of_class == conjugates


def test_s6_lattice_has_the_published_counts():
    # 1,455 subgroups in 56 conjugacy classes (OEIS A005432, A000638)
    lattice = all_subgroups(sym(6), max_order=720)
    assert (len(lattice.members), len(_classes(lattice))) == (1455, 56)


def test_each_class_representative_is_its_first_member_in_lattice_order():
    lattice = all_subgroups(sym(4))
    met = set()
    for m in lattice.members:
        rep = lattice.representative_of[m.elements()]
        if rep.elements() not in met:
            met.add(rep.elements())
            assert rep is m
    assert len(met) == 11


@pytest.mark.parametrize("group", [sym(4), alt(5)], ids=["s4", "a5"])
def test_double_coset_reps_skip_only_coprime_powers(group):
    # against the least member of every double coset, each formed from all
    # |H|^2 products: the candidates come in the same order, and every
    # double coset left out is H x^k H for a candidate x, k prime to o(x)
    skipped = 0
    for sub in all_subgroups(group).members:
        reps = zipper_module._double_coset_reps(group, sub)
        oracle = double_coset_reps_by_products(group, sub)
        kept = set(reps)
        assert reps == [r for r in oracle if r in kept]
        skipped += len(oracle) - len(reps)
        covered = set()
        for x in reps:
            n = x.order()
            for k in range(1, n + 1):
                if gcd(k, n) == 1:
                    covered |= {a * x ** k * b for a in sub.elements() for b in sub.elements()}
        assert all(r in covered for r in oracle if r not in kept)
    assert skipped > 0


def test_lattice_order_cap():
    with pytest.raises(ResourceLimitError):
        all_subgroups(sym(5), max_order=100)


def test_lattice_member_cap(monkeypatch):
    clear_derived()
    monkeypatch.setattr(zipper_module, "LATTICE_MEMBER_CAP", 10)
    with pytest.raises(ResourceLimitError):
        all_subgroups(sym(4))


def test_descent_transposition_in_s4():
    s4 = sym(4)
    sub = generated_by([parse_cycles("(1 2)", 4)])
    series = normal_closure_descent(sub, s4)
    assert [t.order for t in series] == [24]  # closure is everything
    assert len(series) == 1


def test_descent_double_transposition_in_s4():
    s4 = sym(4)
    sub = generated_by([parse_cycles("(1 2)(3 4)", 4)])
    series = normal_closure_descent(sub, s4)
    assert [t.order for t in series] == [24, 4, 2]
    assert series[-1].same_elements(sub)
    assert descent_lemma_failures(sub, series) == []


def test_descent_from_itself_has_length_zero():
    s4 = sym(4)
    sub = generated_by([parse_cycles("(1 2 3)", 4)])
    series = normal_closure_descent(sub, sub)
    assert len(series) == 1
    assert series[0].same_elements(sub)


def test_descent_containment_guard():
    with pytest.raises(ValueError):
        normal_closure_descent(generated_by([parse_cycles("(1 2)", 4)]), alt(4))


def test_descent_lemma_on_many_pairs():
    s4 = sym(4)
    lattice = all_subgroups(s4)
    for sub in lattice.members:
        series = normal_closure_descent(sub, s4)
        assert descent_lemma_failures(sub, series) == []
        stable = series[-1]
        # stable term self-closes, and equals sub exactly when sub is subnormal
        assert normal_closure(sub, stable).same_elements(stable)
        assert stable.same_elements(sub) == is_subnormal(sub, s4)


def test_zipper_four_cycle_in_s4():
    s4 = sym(4)
    lattice = all_subgroups(s4)
    sub = generated_by([parse_cycles("(1 2 3 4)", 4)])
    case = zipper_case(s4, sub, lattice)
    assert case.branch == "unique_maximal"
    assert self_closing_join(s4, sub, lattice).order == 4
    assert [m.order for m in lattice.maximal if sub.is_subset_of(m)] == [8]
    assert unique_max_element_check(s4, sub, lattice) is True
    assert case.lemma_failures == ()


def test_zipper_transposition_in_s3():
    s3 = sym(3)
    sub = generated_by([parse_cycles("(1 2)", 3)])
    lattice = all_subgroups(s3)
    case = zipper_case(s3, sub, lattice)
    assert case.branch == "unique_maximal"
    assert self_closing_join(s3, sub, lattice).same_elements(sub)


def test_zipper_transposition_in_s4_joins_whole():
    s4 = sym(4)
    sub = generated_by([parse_cycles("(1 2)", 4)])
    lattice = all_subgroups(s4)
    case = zipper_case(s4, sub, lattice)
    assert case.branch == "join_is_whole"
    assert self_closing_join(s4, sub, lattice).same_elements(s4)
    assert len([m for m in lattice.maximal if sub.is_subset_of(m)]) > 1
    assert not unique_max_element_check(s4, sub, lattice)


def test_zipper_reports_a_wrong_unique_maximal_characterization(monkeypatch):
    # the descent values have a unique maximal element exactly when one
    # maximal subgroup contains A; a disagreement is a lemma failure
    import engelfit.zipper as zipper_mod
    s4 = sym(4)
    lattice = all_subgroups(s4)
    monkeypatch.setattr(zipper_mod, "_unique_maximal", lambda terms: False)
    sub = generated_by([parse_cycles("(1 2 3 4)", 4)])
    case = zipper_case(s4, sub, lattice)
    assert case.lemma_failures == (
        "1 maximal overgroups, but a unique maximal descent value is False",)


def test_zipper_precondition():
    s4 = sym(4)
    v4_gen = generated_by([parse_cycles("(1 2)(3 4)", 4)])
    with pytest.raises(PreconditionError):
        zipper_case(s4, v4_gen, all_subgroups(s4))  # closure is V4, not S4


def test_zipper_dichotomy_exhaustive_on_small_groups():
    for group in [sym(3), sym(4), alt(4), alt(5)]:
        lattice = all_subgroups(group)
        for sub in lattice.members:
            if sub.order >= group.order:
                continue
            if not normal_closure(sub, group).same_elements(group):
                continue
            case = zipper_case(group, sub, lattice)
            assert case.branch in ("join_is_whole", "unique_maximal")
            assert case.lemma_failures == ()


def test_unique_max_element_check_cases():
    s4 = sym(4)
    lattice = all_subgroups(s4)
    sub = generated_by([parse_cycles("(1 2)(3 4)", 4)])
    # ⟨(1 2)(3 4)⟩ lies in 4 maximal subgroups (three D4 and A4); the
    # characterization does not apply, since ⟨A^G⟩ = V4 ≠ G
    assert unique_max_element_check(s4, sub, lattice) is True
    # a subgroup inside exactly one maximal is trivially unique
    sub8 = generated_by([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])
    assert unique_max_element_check(s4, sub8, lattice)
    # normal subgroup: descent stabilizes at the subgroup in every maximal
    v4 = generated_by([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    assert unique_max_element_check(s4, v4, lattice)
    with pytest.raises(PreconditionError):
        unique_max_element_check(s4, s4, lattice)


@pytest.mark.parametrize("group, checked", [
    (sym(3), 3), (sym(4), 19), (alt(4), 4), (alt(5), 57)], ids=["s3", "s4", "a4", "a5"])
def test_unique_maximal_descent_value_iff_one_maximal_overgroup(group, checked):
    # for a proper A with ⟨A^G⟩ = G, the descent values F(A, M) over the
    # maximal overgroups M have a unique maximal element exactly when A
    # lies in one maximal subgroup
    lattice = all_subgroups(group)
    subs = [sub for sub in lattice.members if sub.order < group.order
            and normal_closure(sub, group).same_elements(group)]
    assert len(subs) == checked
    for sub in subs:
        one_maximal = sum(sub.is_subset_of(m) for m in lattice.maximal) == 1
        assert unique_max_element_check(group, sub, lattice) == one_maximal


def test_flavell_remark_on_subnormal_overgroups():
    # when A is subnormal in every maximal overgroup except at most one,
    # the descent value is A itself in those overgroups
    s4 = sym(4)
    lattice = all_subgroups(s4)
    for sub in lattice.members:
        if sub.order >= s4.order:
            continue
        maximal_over = [m for m in lattice.maximal if sub.elements() <= m.elements()]
        not_subnormal = [m for m in maximal_over if not is_subnormal(sub, m)]
        if len(not_subnormal) <= 1 and maximal_over:
            for m in maximal_over:
                if m in not_subnormal:
                    continue
                stable = normal_closure_descent(sub, m)[-1]
                assert stable.same_elements(sub)
