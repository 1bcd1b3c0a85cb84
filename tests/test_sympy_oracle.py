"""sympy's permutation groups as a second, independent oracle.

engelfit computes from full element sets; sympy works from generators
(Schreier-Sims, subgroup search).  Order, the derived and lower central
series, the centre, centralizers, normal closures, class sizes,
solubility and nilpotency are compared on every small-std group and on
random subgroups of S_n for n <= 6.
"""

import pytest
from hypothesis import given, settings, strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from engelfit.corpus import small_std
from engelfit.group import generated_by
from engelfit.perm import Permutation
from engelfit.subgrp import (center, centralizer, derived_series, is_nilpotent,
                             is_soluble, lower_central_series, normal_closure)

SMALL_STD = small_std()


def sympy_perm(p):
    return combinatorics.Permutation(list(p.images))


def sympy_group(group):
    return combinatorics.PermutationGroup([sympy_perm(g) for g in group.generators])


def images(group):
    return frozenset(e.images for e in group.elements())


def sympy_images(group):
    return frozenset(tuple(p.array_form) for p in group.generate())


def assert_invariants_agree(group, oracle):
    assert group.order == oracle.order()
    assert ([h.order for h in derived_series(group)]
            == [h.order() for h in oracle.derived_series()])
    assert ([h.order for h in lower_central_series(group)]
            == [h.order() for h in oracle.lower_central_series()])
    assert images(center(group)) == sympy_images(oracle.center())
    assert (sorted(group.conjugacy_classes().class_sizes)
            == sorted(len(c) for c in oracle.conjugacy_classes()))
    assert is_soluble(group) == oracle.is_solvable
    assert is_nilpotent(group) == oracle.is_nilpotent


def assert_element_subgroups_agree(group, oracle, x):
    """The centralizer and the normal closure of x in the group."""
    assert images(centralizer(group, [x])) == sympy_images(oracle.centralizer(sympy_perm(x)))
    closure = normal_closure(generated_by([x], degree=group.degree), group)
    assert images(closure) == sympy_images(oracle.normal_closure(sympy_perm(x)))


@pytest.mark.parametrize("entry", SMALL_STD, ids=[e.name for e in SMALL_STD])
def test_small_std_invariants_agree_with_sympy(entry):
    assert_invariants_agree(entry.group, sympy_group(entry.group))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_STD), st.data())
def test_small_std_element_subgroups_agree_with_sympy(entry, data):
    group = entry.group
    x = group.sorted_elements()[data.draw(st.integers(0, group.order - 1))]
    assert_element_subgroups_agree(group, sympy_group(group), x)


@st.composite
def subgroups_of_small_symmetric_groups(draw):
    """A subgroup of S_n for a drawn n <= 6, from one to three drawn generators."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)).map(Permutation),
                         min_size=1, max_size=3))
    return generated_by(gens)


@settings(max_examples=40, deadline=None)
@given(subgroups_of_small_symmetric_groups(), st.data())
def test_subgroups_of_symmetric_groups_agree_with_sympy(group, data):
    oracle = sympy_group(group)
    assert_invariants_agree(group, oracle)
    x = group.sorted_elements()[data.draw(st.integers(0, group.order - 1))]
    assert_element_subgroups_agree(group, oracle, x)
