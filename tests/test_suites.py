"""Per-element suites evaluate Engel facts once per conjugacy class, and
thm13 evaluates the zipper case once per conjugacy class of subgroups."""

import dataclasses
import functools
import hashlib
import pickle
import re
import sys

import pytest

import engelfit.suites as suites_mod
import engelfit.zipper as zipper_mod
from engelfit.corpus import builtin, small_std
from engelfit.errors import ConsistencyError
from engelfit.subgrp import normal_closure
from engelfit.report import render_report
from engelfit.suites import SUITE_ORDER, Caps, _run_entry, run_suites
from engelfit.zipper import all_subgroups


def _spot_checked(group):
    """The least non-representative of each class of size > 1."""
    rep_of = group.conjugacy_classes().representative_of
    spots = {}
    for x in group.sorted_elements():
        if x != rep_of[x]:
            spots.setdefault(rep_of[x], x)
    return list(spots.values())


def _wrong_on(target, real, corrupt):
    @functools.wraps(real)
    def wrong(group, x, *args, **kwargs):
        value = real(group, x, *args, **kwargs)
        return corrupt(value) if x == target else value
    return wrong


def _patch_facts(monkeypatch, target):
    monkeypatch.setattr(suites_mod, "_element_facts", _wrong_on(
        target, suites_mod._element_facts,
        lambda f: dataclasses.replace(f, min_hstar=f.min_hstar + 1)))


def _patch_baer(monkeypatch, target):
    monkeypatch.setattr(suites_mod, "baer_membership", _wrong_on(
        target, suites_mod.baer_membership, lambda v: not v))


@pytest.mark.parametrize("suite, patch", [
    ("thm11", _patch_facts), ("thm12", _patch_facts), ("cor15", _patch_facts),
    ("baer", _patch_baer)])
def test_a_fact_that_differs_on_the_spot_checked_element_is_an_engine_bug(
        monkeypatch, suite, patch):
    s4 = builtin("symmetric(4)", "s4")
    target = _spot_checked(s4.group)[-1]
    patch(monkeypatch, target)
    name = "_element_facts" if patch is _patch_facts else "baer_membership"
    with pytest.raises(ConsistencyError,
                       match=re.escape(f"{name} differs between {target} and")):
        run_suites([suite], [s4], Caps(), "faulty")


@pytest.mark.parametrize("patch", [_patch_facts, _patch_baer])
def test_without_crosschecks_only_representatives_are_evaluated(monkeypatch, patch):
    s4 = builtin("symmetric(4)", "s4")
    for target in _spot_checked(s4.group):
        patch(monkeypatch, target)
    report = run_suites(["baer", "thm11"], [s4], Caps(crosschecks=False), "faulty")
    assert report.status == "pass"
    assert [(s.cases, s.passes) for s in report.suites] == [(24, 24), (96, 96)]


def test_every_element_is_a_case_with_its_own_payload(monkeypatch):
    # claim F(S3) = S3: each transposition fails, under its own name
    monkeypatch.setattr(suites_mod, "fitting_subgroup", lambda g: g)
    s3 = builtin("symmetric(3)", "s3")
    report = run_suites(["baer"], [s3], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (6, 3)
    assert [v.detail[0] for v in suite.violations] == [
        ("x", "(2 3)"), ("x", "(1 2)"), ("x", "(1 3)")]


def test_baer_collapse_at_the_cap_is_a_pass():
    # every Engel set of an abelian group is {1} after one step
    c6 = builtin("cyclic(6)", "c6")
    report = run_suites(["baer"], [c6], Caps(k_cap=1), "capped")
    assert [(s.cases, s.passes, s.resource_hit) for s in report.suites] == [(6, 6, False)]


def _thm13_classes(group):
    """The thm13 cases' lattice members, grouped by class in lattice order."""
    lattice = all_subgroups(group)
    classes = {}
    for sub in lattice.members:
        if sub.order < group.order and normal_closure(sub, group).same_elements(group):
            rep = lattice.representative_of[sub.elements()]
            classes.setdefault(rep.elements(), []).append(sub)
    return list(classes.values())


def _generators(sub):
    return " ".join(map(str, sub.generators))


def _patch_zipper(monkeypatch, targets):
    """zipper_case, with the branch flipped on the subgroups `targets`; the
    returned list holds the element set of every subgroup it was run on."""
    real = suites_mod.zipper_case
    flip = {"join_is_whole": "unique_maximal", "unique_maximal": "join_is_whole"}
    runs = []

    def patched(group, sub, lattice=None):
        runs.append(sub.elements())
        case = real(group, sub, lattice)
        if sub.elements() in targets:
            case = dataclasses.replace(case, branch=flip[case.branch])
        return case

    monkeypatch.setattr(suites_mod, "zipper_case", patched)
    return runs


def test_a_zipper_case_that_differs_on_the_spot_checked_subgroup_is_an_engine_bug(
        monkeypatch):
    s4 = builtin("symmetric(4)", "s4")
    rep, target = _thm13_classes(s4.group)[-1][:2]
    _patch_zipper(monkeypatch, {target.elements()})
    with pytest.raises(ConsistencyError, match=re.escape(
            f"group s4: suite thm13: _zipper_facts differs between "
            f"<{_generators(target)}> and its class representative "
            f"<{_generators(rep)}>")) as exc:
        run_suites(["thm13"], [s4], Caps(), "faulty")
    assert isinstance(exc.value.__cause__, ConsistencyError)


@pytest.mark.parametrize("spec, cases, classes", [
    ("symmetric(4)", 19, 5), ("alternating(5)", 57, 7), ("symmetric(5)", 96, 9)])
def test_thm13_runs_the_zipper_case_once_per_class_of_subgroups(
        monkeypatch, spec, cases, classes):
    entry = builtin(spec)
    found = _thm13_classes(entry.group)
    assert (sum(map(len, found)), len(found)) == (cases, classes)
    runs = _patch_zipper(monkeypatch, {cls[1].elements() for cls in found})
    report = run_suites(["thm13"], [entry], Caps(crosschecks=False), "faulty")
    assert report.status == "pass"
    assert [(s.cases, s.passes) for s in report.suites] == [(cases, cases)]
    assert runs == [cls[0].elements() for cls in found]


@pytest.mark.parametrize("spec, cases, classes", [
    ("symmetric(4)", 19, 5), ("alternating(5)", 57, 7), ("symmetric(5)", 96, 9)])
def test_with_crosschecks_thm13_runs_the_zipper_case_twice_per_class(
        monkeypatch, spec, cases, classes):
    entry = builtin(spec)
    found = _thm13_classes(entry.group)
    runs = _patch_zipper(monkeypatch, set())
    report = run_suites(["thm13"], [entry], Caps(), "spot-checked")
    assert [(s.cases, s.passes) for s in report.suites] == [(cases, cases)]
    assert len(found) == classes
    assert len(runs) == 2 * classes
    assert set(runs) == {sub.elements() for cls in found for sub in cls[:2]}


def test_every_subgroup_is_a_case_with_its_own_payload(monkeypatch):
    # fail every descent, once per maximal overgroup, naming its term
    # orders; the maximal overgroups of a transposition in S5 give three
    # different messages, in an order that conjugation changes
    monkeypatch.setattr(zipper_mod, "descent_lemma_failures", lambda sub, series: [
        "descent " + ",".join(str(t.order) for t in series)])
    s5 = builtin("symmetric(5)", "s5")
    report = run_suites(["thm13"], [s5], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (96, 0)
    lattice = all_subgroups(s5.group)
    members = sorted((sub for cls in _thm13_classes(s5.group) for sub in cls),
                     key=lambda h: (h.order, h.fingerprint))
    assert [dict(v.detail)["subgroup"] for v in suite.violations] == list(
        map(_generators, members))
    # each member's text is its own sorted failures, so conjugates agree
    assert [dict(v.detail)["lemma_failures"] for v in suite.violations] == [
        "; ".join(sorted(zipper_mod.zipper_case(s5.group, sub, lattice).lemma_failures))
        for sub in members]


@pytest.fixture(scope="module")
def small_std_entries():
    return small_std()


@pytest.mark.parametrize("name", ["a5", "holo_c5_inv", "s4xs3"])
def test_a_pickled_entry_gives_the_outcomes_of_the_loaded_one(small_std_entries, name):
    entry = next(e for e in small_std_entries if e.name == name)
    copy = pickle.loads(pickle.dumps(entry))
    assert copy.group is not entry.group and copy.group.same_elements(entry.group)
    assert _run_entry(copy, SUITE_ORDER, Caps()) == _run_entry(entry, SUITE_ORDER, Caps())


def test_suites_run_on_the_loaded_entries_without_rebuilding_them(
        small_std_entries, monkeypatch):
    def rebuilt(*args, **kwargs):
        raise AssertionError("a loaded entry was rebuilt")

    for module in [m for n, m in sys.modules.items() if n.startswith("engelfit")]:
        for attr in ("parse_group_file", "builtin", "close_group"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, rebuilt)
    text = render_report(run_suites(SUITE_ORDER, small_std_entries, Caps(), "small-std"))
    assert text.count("\n") == 261
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "38fdd281dd848caf8f1d5b47a55fb857708d8696dd7026e4587f2abb52821253")
