"""Characteristic subgroups, generalized Fitting series, insoluble length."""

import pytest

from engelfit.corpus import builtin, small_std
from engelfit.errors import PreconditionError
from engelfit.group import GroupHandle
from engelfit.perm import parse_cycles
from engelfit.series import (_gen_fitting_by_socle, characteristic_profile,
                             fitting_height, fitting_series, fitting_subgroup,
                             gen_fitting_height, gen_fitting_series,
                             generalized_fitting, insoluble_length, layer,
                             odd_core, soluble_radical, upper_insoluble_series)
from engelfit.subgrp import (centralizer, commutator_subgroup, is_nilpotent,
                             is_perfect, is_soluble, join, normal_subgroups,
                             quotient)
from tests.oracles import o_p_core
from tests.test_group import sym

V4_TEXTS = ["()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]


def test_fitting_of_s4_is_v4():
    f = fitting_subgroup(sym(4))
    assert f.elements() == frozenset(parse_cycles(t, 4) for t in V4_TEXTS)


def test_fitting_contains_every_nilpotent_normal_member():
    s4 = sym(4)
    f = fitting_subgroup(s4)
    for m in normal_subgroups(s4):
        if is_nilpotent(m):
            assert m.is_subset_of(f)
    assert is_nilpotent(f)


def test_p_cores_of_s4():
    s4 = sym(4)
    assert o_p_core(s4, 2).order == 4
    assert o_p_core(s4, 3).order == 1


@pytest.mark.parametrize("entry", [e for e in small_std() if e.group.order <= 720],
                         ids=lambda e: e.name)
def test_fitting_is_the_product_of_the_p_cores(entry):
    # F(G) = ∏_p O_p(G): a second route to the F(G) the baer suite reads
    group = entry.group
    primes = [p for p in range(2, group.order + 1)
              if group.order % p == 0 and all(p % d for d in range(2, p))]
    cores = join(*(o_p_core(group, p) for p in primes), degree=group.degree)
    assert cores.same_elements(fitting_subgroup(group))


def test_odd_core_and_radical():
    assert odd_core(sym(3)).order == 3
    assert soluble_radical(sym(5)).is_trivial()
    assert soluble_radical(sym(4)).order == 24


def test_layer_values():
    assert layer(sym(4)).is_trivial()
    assert layer(sym(5)).order == 60
    sl25 = builtin("sl2(5)").group
    assert layer(sl25).same_elements(sl25)


def test_generalized_fitting_with_crosscheck():
    for spec, expected in [("symmetric(5)", 60), ("symmetric(4)", 4),
                           ("sl2(5)", 120), ("alternating(5)", 60),
                           ("dihedral(6)", 6)]:
        g = builtin(spec).group
        assert generalized_fitting(g).order == expected
        assert _gen_fitting_by_socle(g).same_elements(generalized_fitting(g))


def test_layer_commutes_with_fitting():
    # [E(G), F(G)] = 1 and E(G) is perfect or trivial
    for spec in ["symmetric(5)", "symmetric(4)", "sl2(5)", "direct_product(cyclic(2),alternating(5))"]:
        g = builtin(spec).group
        e = layer(g)
        f = fitting_subgroup(g)
        assert e.is_trivial() or is_perfect(e)
        assert commutator_subgroup(e, f, within=g).is_trivial()


def test_gen_fitting_self_bounding():
    # C_G(F*(G)) <= F*(G)
    for spec in ["symmetric(4)", "symmetric(5)", "sl2(5)", "dihedral(4)",
                 "alternating(5)", "cyclic(12)"]:
        g = builtin(spec).group
        fstar = generalized_fitting(g)
        assert centralizer(g, fstar.generators).is_subset_of(fstar)


def test_gen_fitting_series_of_s4():
    series = gen_fitting_series(sym(4))
    assert [t.order for t in series] == [4, 12, 24]
    assert gen_fitting_height(sym(4)) == 3
    assert fitting_height(sym(4)) == 3


def test_gen_fitting_series_of_s5():
    series = gen_fitting_series(sym(5))
    assert [t.order for t in series] == [60, 120]
    assert gen_fitting_height(sym(5)) == 2


def test_trivial_group_heights():
    t = GroupHandle.trivial(1)
    assert gen_fitting_height(t) == 0
    assert fitting_height(t) == 0
    assert insoluble_length(t) == 0
    assert gen_fitting_series(t) == ()


def test_fitting_series_matches_gen_fitting_for_soluble():
    for spec in ["symmetric(4)", "dihedral(6)", "cyclic(12)", "symmetric(3)",
                 "direct_product(symmetric(4),symmetric(3))"]:
        g = builtin(spec).group
        assert is_soluble(g)
        fs = fitting_series(g)
        gs = gen_fitting_series(g)
        assert [t.fingerprint for t in fs] == [t.fingerprint for t in gs]
        assert fitting_height(g) == gen_fitting_height(g)


def test_fitting_series_rejects_insoluble():
    with pytest.raises(PreconditionError):
        fitting_series(sym(5))


def test_insoluble_length_values():
    assert insoluble_length(sym(4)) == 0
    assert insoluble_length(sym(5)) == 1
    a5xa5 = builtin("direct_product(alternating(5),alternating(5))").group
    assert insoluble_length(a5xa5) == 1
    assert insoluble_length(builtin("sl2(5)").group) == 1


def test_upper_insoluble_series_s5():
    series = upper_insoluble_series(sym(5))
    assert [t.order for t in series] == [1, 120]


def test_upper_insoluble_series_soluble_group():
    series = upper_insoluble_series(sym(4))
    assert [t.order for t in series] == [24]


def test_r_terms_are_largest_with_bounded_length():
    for spec in ["symmetric(5)", "direct_product(cyclic(2),alternating(5))", "sl2(5)"]:
        g = builtin(spec).group
        lam = insoluble_length(g)
        series = upper_insoluble_series(g, lam)
        members = normal_subgroups(g)
        for h, term in enumerate(series):
            assert insoluble_length(term) <= h
            for m in members:
                if insoluble_length(m) <= h:
                    assert m.is_subset_of(term)


def test_upper_series_recurrence():
    # preimage of R_1(G/R_i) equals R_{i+1}
    for spec in ["symmetric(5)", "direct_product(cyclic(2),alternating(5))", "sl2(5)"]:
        g = builtin(spec).group
        lam = insoluble_length(g)
        series = upper_insoluble_series(g, lam)
        for i in range(lam):
            q = quotient(g, series[i])
            r1 = upper_insoluble_series(q.image, 1)[1]
            assert q.preimage_of(r1).same_elements(series[i + 1])


def test_heights_zero_iff_trivial_and_soluble():
    for spec in ["cyclic(1)", "cyclic(7)", "symmetric(4)", "alternating(5)"]:
        g = builtin(spec).group
        assert (gen_fitting_height(g) == 0) == g.is_trivial()
        assert (insoluble_length(g) == 0) == is_soluble(g)


def test_characteristic_profile_fields():
    p = characteristic_profile(sym(4))
    assert p.fitting.order == 4
    assert p.gen_fitting.order == 4
    assert p.layer.order == 1
    assert p.soluble_radical.order == 24
    assert p.gen_fitting_height == 3
    assert p.fitting_height == 3
    assert p.insoluble_length == 0
    p5 = characteristic_profile(sym(5))
    assert p5.fitting_height is None
    assert p5.gen_fitting.order == 60
    assert p5.insoluble_length == 1


def test_gen_fitting_height_of_c2xa5_is_one():
    g = builtin("direct_product(cyclic(2),alternating(5))").group
    assert generalized_fitting(g).same_elements(g)
    assert _gen_fitting_by_socle(g).same_elements(g)
    assert gen_fitting_height(g) == 1


def test_s4xs3_height_three():
    g = builtin("direct_product(symmetric(4),symmetric(3))").group
    assert gen_fitting_height(g) == 3
    assert fitting_subgroup(g).order == 12
