"""Per-element suites evaluate Engel facts once per conjugacy class."""

import dataclasses
import functools
import re

import pytest

import engelfit.suites as suites_mod
from engelfit.corpus import builtin
from engelfit.errors import ConsistencyError
from engelfit.suites import Caps, run_suites


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
