"""The element-set cache behind @derived functions."""

from engelfit import engel as engel_module
from engelfit import group as group_module
from engelfit import perm as perm_module
from engelfit.corpus import builtin
from engelfit.engel import commutator_descent, engel_chain, inner, j_set
from engelfit.group import close_group
from engelfit.perm import Permutation, parse_cycles
from engelfit.series import fitting_subgroup
from engelfit.suites import Caps, run_suites
from engelfit.zipper import all_subgroups
from tests.test_group import sym


def test_handles_with_equal_elements_share_values():
    h1 = close_group([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    h2 = close_group([parse_cycles("(1 2 3)", 4), parse_cycles("(3 4)", 4)])
    assert h1.generators != h2.generators and h1.same_elements(h2)
    x = parse_cycles("(1 2 3 4)", 4)
    alpha = inner(h1, parse_cycles("(1 2)", 4))
    for value in [fitting_subgroup,
                  lambda g: engel_module._engel_sets(g, x, None),
                  lambda g: commutator_descent(g, x),
                  lambda g: j_set(g, alpha)]:
        assert value(h1) is value(h2)
    # the Engel chain reads the walk under the Baer test's key
    assert engel_chain(h1, x).sets is engel_module._engel_sets(h2, x, None)


def test_lattice_shared_across_order_caps():
    s4 = sym(4)
    assert all_subgroups(s4, max_order=24) is all_subgroups(s4)


def _cached_degrees() -> set[int]:
    parts = [p for key in group_module._DERIVED for p in key[1:]]
    perms = [e for p in parts if isinstance(p, frozenset) for e in p]
    perms += [p for p in parts if isinstance(p, Permutation)]
    return {p.degree for p in perms}


def _interned_degrees() -> set[int]:
    return {len(images) for images in perm_module._INTERNED}


def test_run_suites_leaves_no_value_of_an_earlier_entry():
    # degree 5 occurs only in c5: s3's quotients act on 1, 2 or 6 points
    c5, s3 = builtin("cyclic(5)", "c5"), builtin("symmetric(3)", "s3")
    run_suites(["baer"], [c5], Caps(), "one")
    assert 5 in _cached_degrees() and 5 in _interned_degrees()
    run_suites(["baer"], [c5, s3], Caps(), "two")  # runs c5, then s3
    assert 3 in _cached_degrees() and 5 not in _cached_degrees()
    assert 3 in _interned_degrees() and 5 not in _interned_degrees()
