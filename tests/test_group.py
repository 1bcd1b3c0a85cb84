"""Group closure and conjugacy classes, checked against the stabilizer-chain
oracle in ``tests/schreier_sims.py``."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from engelfit import group as group_module
from engelfit.errors import ResourceLimitError
from engelfit.group import GroupHandle, _bfs_closure, close_group, generated_by
from engelfit.perm import Permutation, commutator, parse_cycles
from tests.schreier_sims import StabilizerChain


def sym(n):
    gens = [parse_cycles("(1 2)", n)]
    if n > 2:
        gens.append(parse_cycles("(" + " ".join(map(str, range(1, n + 1))) + ")", n))
    return close_group(gens)


def alt(n):
    gens = [parse_cycles("(1 2 3)", n)]
    if n > 3:
        pts = range(1, n + 1) if n % 2 == 1 else range(2, n + 1)
        gens.append(parse_cycles("(" + " ".join(map(str, pts)) + ")", n))
    return close_group(gens)


def test_s4_order():
    g = close_group([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    assert g.order == 24


def test_a5_order():
    g = close_group([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(3 4 5)", 5)])
    assert g.order == 60


def test_cap_exceeded_carries_partial_count(monkeypatch):
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 1)
    with pytest.raises(ResourceLimitError) as err:
        close_group([parse_cycles("(1 2)", 2)])
    assert err.value.partial_count == 1


def chain(group):
    """The stabilizer chain of a group's generators."""
    return StabilizerChain(group.generators, group.degree)


@pytest.mark.parametrize("gens", [[], [parse_cycles("(1 2)", 2), parse_cycles("(1 2 3)", 3)]],
                         ids=["empty", "mixed-degree"])
def test_close_group_rejects_bad_generators_before_closing(gens, monkeypatch):
    def no_closure(*args):
        raise AssertionError("closure started before the generators were checked")
    monkeypatch.setattr(group_module, "_bfs_closure", no_closure)
    with pytest.raises(ValueError):
        close_group(gens)


def test_group_handle_rejects_mixed_degree_generators():
    gens = (parse_cycles("(1 2)", 2), parse_cycles("(1 2)", 3))
    with pytest.raises(ValueError):
        GroupHandle(gens, elements=gens)


def test_chain_order_matches_closure_on_families():
    for g in [sym(3), sym(4), sym(5), alt(4), alt(5),
              close_group([parse_cycles("(1 2 3 4 5 6)", 6)]),
              close_group([parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3)", 4)])]:
        assert chain(g).order == len(g.elements())


def test_chain_membership_agrees_with_element_set():
    s4_chain = chain(sym(4))
    a4 = alt(4)
    a4_chain = chain(a4)
    for p in map(Permutation, itertools.permutations(range(4))):
        assert s4_chain.contains(p)
        assert a4_chain.contains(p) == (p in a4.elements())


def test_chain_base_is_ascending_moved_points():
    groups = [sym(4), alt(5),
              close_group([parse_cycles("(1 2)", 6), parse_cycles("(3 4)", 6),
                           parse_cycles("(5 6)", 6)]),
              close_group([parse_cycles("(5 6 7)", 7)])]
    for g in groups:
        base = chain(g).base
        assert list(base) == sorted(set(base))
        moved = sorted({p for e in g.elements() for p in e.moved_points()})
        assert set(base) <= set(moved)
        if base:
            assert base[0] == moved[0]


def test_fingerprint_identifies_element_sets():
    g1 = close_group([parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    g2 = close_group([parse_cycles("(1 3)", 3), parse_cycles("(1 3 2)", 3)])
    assert g1.fingerprint == g2.fingerprint
    assert g1.fingerprint != alt(3).fingerprint


def test_fingerprint_of_s4_is_pinned():
    # hashes the image tuples of the sorted elements as uint32s, whatever
    # form the kernel stores them in
    assert sym(4).fingerprint == (
        "d07c6658055e6139568d6e2f7f24e3cfc5808343fa974f6e9f867de23d1469b3")


_LOAD_AND_CHECK = """
import pickle, sys
from engelfit.perm import Permutation
for handle, images in pickle.loads(sys.stdin.buffer.read()):
    fresh = [Permutation(i) for i in images]
    assert all(p in handle.elements() for p in fresh)
    assert handle.elements() == set(fresh)
print("ok")
"""


def test_a_pickled_group_keeps_its_members_under_another_hash_seed():
    import os
    import pickle
    import subprocess
    import sys
    from pathlib import Path

    import engelfit

    # one group on each side of the bytes degree cap
    groups = [sym(4), close_group([parse_cycles("(1 2)", 257), parse_cycles("(1 2 3)", 257)])]
    payload = pickle.dumps([(g, [e.images for e in g.elements()]) for g in groups])
    src = str(Path(engelfit.__file__).resolve().parent.parent)
    # bytes hash differently under seeds 0 and 4242, so at least one of
    # them differs from this process's seed
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _LOAD_AND_CHECK], input=payload,
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.strip() == b"ok"


def test_generated_by_reduces_generators():
    s4 = sym(4)
    regen = generated_by(s4.sorted_elements())
    assert regen.same_elements(s4)
    assert len(regen.generators) <= 6


def test_trivial_group():
    t = GroupHandle.trivial(5)
    assert t.order == 1
    assert t.is_trivial()
    assert t.contains(Permutation.identity(5))


def _brute_force_classes(group):
    """Oracle: orbit partition using the full element set for conjugation."""
    elems = group.sorted_elements()
    remaining = set(elems)
    classes = []
    for e in elems:
        if e not in remaining:
            continue
        orbit = {e.conjugate(h) for h in elems}
        classes.append(orbit)
        remaining -= orbit
    return classes


def test_conjugacy_classes_s3():
    s3 = sym(3)
    table = s3.conjugacy_classes()
    assert sorted(len(c) for c in table.classes.values()) == [1, 2, 3]
    assert list(table.classes.values()) == _brute_force_classes(s3)


def test_conjugacy_classes_c4_all_singletons():
    c4 = close_group([parse_cycles("(1 2 3 4)", 4)])
    table = c4.conjugacy_classes()
    assert [len(c) for c in table.classes.values()] == [1, 1, 1, 1]
    assert list(table.classes.values()) == _brute_force_classes(c4)


def test_conjugacy_classes_s4_against_brute_force():
    s4 = sym(4)
    oracle = _brute_force_classes(s4)
    table = s4.conjugacy_classes()
    assert len(table) == len(oracle) == 5
    # each class is the brute-force orbit of its representative, in the
    # same order, so they partition the group
    assert list(table.classes.values()) == oracle
    assert sum(len(c) for c in table.classes.values()) == s4.order
    # representatives are least in their class and pairwise non-conjugate
    for rep, cls in table.classes.items():
        assert rep == min(cls)


@pytest.mark.parametrize("group", [
    sym(4), alt(5), close_group([parse_cycles("(1 2 3 4)", 4)]),
    close_group([parse_cycles("(1 2 3 4 5 6)", 6), parse_cycles("(2 6)(3 5)", 6)])],
    ids=["s4", "a5", "c4", "d12"])
def test_representative_map_covers_every_element_within_its_class(group):
    table = group.conjugacy_classes()
    rep_of = table.representative_of
    assert rep_of.keys() == group.elements()
    classes = _brute_force_classes(group)
    for x, rep in rep_of.items():
        assert rep in next(c for c in classes if x in c)
    assert list(table.classes.values()) == classes
    counts = {}
    for rep in rep_of.values():
        counts[rep] = counts.get(rep, 0) + 1
    assert counts == {rep: len(c) for rep, c in table.classes.items()}
    for x in group.elements():
        assert table.class_of(x) is table.classes[rep_of[x]]
        assert x in table.class_of(x)


def test_commuting_iff_trivial_commutator():
    for g in [sym(4), close_group([parse_cycles("(1 2 3 4 5)", 5),
                                   parse_cycles("(1 5)(2 4)", 5)])]:
        elems = g.sorted_elements()
        assert g.order <= 200
        for a in elems:
            for b in elems:
                assert (commutator(a, b).is_identity()) == (a * b == b * a)


@settings(max_examples=30)
@given(st.lists(st.permutations(range(5)).map(Permutation), min_size=1, max_size=3))
def test_chain_vs_closure_on_random_generating_sets(gens):
    g = close_group(gens)
    assert chain(g).order == len(g.elements())


@st.composite
def generator_lists(draw):
    """Nonempty lists of permutations in S_n for a drawn n <= 6."""
    n = draw(st.integers(1, 6))
    return draw(st.lists(st.permutations(range(n)).map(Permutation),
                         min_size=1, max_size=4))


def _greedy_by_full_closure(perms):
    """Reference generator rule: keep x when it is outside the closure of the
    generators kept so far, re-closing from scratch after each one."""
    items = sorted(set(perms))
    degree = items[0].degree
    gens, current = [], {Permutation.identity(degree)}
    for x in items:
        if x not in current:
            gens.append(x)
            current = _bfs_closure(tuple(gens))
    return tuple(gens) or (Permutation.identity(degree),), frozenset(current)


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_generated_by_agrees_with_closure_greedy_rule_and_chain(perms):
    degree = perms[0].degree
    g = generated_by(perms)
    expected_gens, expected_elements = _greedy_by_full_closure(perms)
    assert g.generators == expected_gens
    assert g.elements() == expected_elements
    assert g.elements() == frozenset(_bfs_closure(g.generators))
    assert g.order == StabilizerChain(perms, degree).order


@settings(max_examples=40, deadline=None)
@given(generator_lists(), st.data())
def test_generated_by_cap_below_order_raises(perms, data):
    order = generated_by(perms).order
    assume(order > 1)
    cap = data.draw(st.integers(1, order - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_module, "ELEMENT_CAP", cap)
        with pytest.raises(ResourceLimitError):
            generated_by(perms)
        mp.setattr(group_module, "ELEMENT_CAP", order)
        assert generated_by(perms).order == order


@st.composite
def subgroup_and_perms(draw):
    """A subgroup H = ⟨gens⟩ of S_n for a drawn n <= 6, and permutations of
    the same degree to grow it by."""
    n = draw(st.integers(1, 6))
    perm = st.permutations(range(n)).map(Permutation)
    base = generated_by(draw(st.lists(perm, min_size=1, max_size=3)))
    return base, draw(st.lists(perm, max_size=3))


@settings(max_examples=60, deadline=None)
@given(subgroup_and_perms())
def test_generated_by_grows_from_a_base_subgroup(case):
    base, perms = case
    grown = generated_by(perms, base=base)
    whole = generated_by(base.generators + tuple(perms))
    assert grown.elements() == whole.elements()
    assert grown.order == StabilizerChain([*base.generators, *perms], base.degree).order
    if base.is_trivial():
        assert grown.same_elements(generated_by(perms, degree=base.degree))
    else:
        assert grown.generators[:len(base.generators)] == base.generators
    assert grown.elements() == frozenset(_bfs_closure(grown.generators))


def test_generated_by_returns_the_base_when_nothing_is_new():
    s4 = sym(4)
    assert generated_by(s4.sorted_elements()[:5], base=s4) is s4
    assert generated_by([], base=s4) is s4
    c4 = generated_by([parse_cycles("(1 2 3 4)", 4)])
    assert generated_by([parse_cycles("(1 3)(2 4)", 4)], base=c4) is c4
    # (2 4) sorts first and already gives D4, so (1 3) is not kept
    grown = generated_by([parse_cycles("(1 3)", 4), parse_cycles("(2 4)", 4)], base=c4)
    assert grown.order == 8 and grown.generators == (*c4.generators, parse_cycles("(2 4)", 4))


def test_generated_by_from_a_base_fails_at_the_cap(monkeypatch):
    c4 = generated_by([parse_cycles("(1 2 3 4)", 4)])
    transposition = [parse_cycles("(1 2)", 4)]
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 23)
    with pytest.raises(ResourceLimitError):
        generated_by(transposition, base=c4)
    monkeypatch.setattr(group_module, "ELEMENT_CAP", 24)
    assert generated_by(transposition, base=c4).order == 24


def test_clear_derived_keeps_only_the_given_permutations_interned():
    from engelfit import perm as perm_module

    s4 = sym(4)
    outside = generated_by([parse_cycles("(1 2 3 4 5)", 5)])
    keep = s4.elements()
    group_module.clear_derived(keep=keep)
    # read through the values: the table's key type is the kernel's own
    interned = list(perm_module._INTERNED.values())
    assert len(interned) == len(keep)
    assert {id(p) for p in interned} == {id(p) for p in keep}
    kept = {p: p for p in keep}
    for a in s4.sorted_elements()[:6]:
        for b in s4.sorted_elements():
            assert a * b is kept[a * b]
        assert a.inverse() is kept[a.inverse()]
    assert Permutation.identity(4) is kept[Permutation.identity(4)]
    assert not any(p in set(interned) for p in outside.elements())
