"""Acceptance criteria: one test per criterion, with stated time bounds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.  The full module exercises the complete small-std corpus.
"""

import hashlib
import time
from contextlib import contextmanager

import pytest

from engelfit.corpus import builtin, small_std
from engelfit.engel import fixed_subgroup, inner, j_set
from engelfit.perm import parse_cycles
from engelfit.report import render_report
from engelfit.series import (fitting_subgroup, gen_fitting_height,
                             generalized_fitting, insoluble_length)
from engelfit.subgrp import normal_subgroups
from engelfit.suites import SUITE_ORDER, Caps, run_suites


@contextmanager
def criterion(number, description):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def corpus():
    return small_std()


def _run(suite, corpus, **caps_kw):
    report = run_suites([suite], corpus, Caps(**caps_kw), "small-std")
    return report.suites[0]


def test_criterion_1_extremal_example():
    with criterion(1, "inverted-set size 2n-3 and fixed-point count (n-2)! "
                      "for alternating groups with a transposition action"):
        started = time.monotonic()
        expected = {5: (7, 6), 6: (9, 24), 7: (11, 120)}
        for n, (j_size, c_size) in expected.items():
            group = builtin(f"alternating({n})").group
            alpha = inner(group, parse_cycles("(1 2)", n))
            report = j_set(group, alpha)
            assert len(report.j_elements) == j_size
            assert fixed_subgroup(alpha).order == c_size
            assert report.fixed_points.order == c_size
        assert time.monotonic() - started < 30


def test_criterion_2_whole_group_generation_suite(corpus):
    with criterion(2, "commutator-set generation suite (thmE) has zero violations"):
        started = time.monotonic()
        suite = _run("thmE", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit
        assert time.monotonic() - started < 300


def test_criterion_3_inverted_set_tail_suite(corpus):
    with criterion(3, "inverted-set tail suite (thmJ) has zero violations"):
        suite = _run("thmJ", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit


def test_criterion_4_height_and_length_equivalences(corpus):
    with criterion(4, "height (thm11) and length (thm12) equivalences verified "
                      "exhaustively below order 2000, zero violations"):
        started = time.monotonic()
        heights = {gen_fitting_height(e.group) for e in corpus}
        lengths = {insoluble_length(e.group) for e in corpus}
        assert {0, 1, 2, 3} <= heights
        assert lengths == {0, 1}
        t11 = _run("thm11", corpus)
        t12 = _run("thm12", corpus)
        for suite in (t11, t12):
            assert suite.cases > 0
            assert suite.violations == ()
            assert not suite.resource_hit
        exhaustive = [e for e in corpus if e.group.order <= 2000]
        assert sum(e.group.order for e in exhaustive) <= t11.cases
        sampled_notes = [n for n in t11.notes if "class representatives" in n]
        oversized = [e for e in corpus if e.group.order > 2000]
        assert len(sampled_notes) == len(oversized)
        assert time.monotonic() - started < 900


def test_criterion_5_stable_term_suite(corpus):
    with criterion(5, "subnormality / stable-term suite (cor15) has zero violations"):
        suite = _run("cor15", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit


def test_criterion_6_engel_collapse_suite(corpus):
    with criterion(6, "Engel-collapse versus Fitting membership (baer) has "
                      "zero violations"):
        suite = _run("baer", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit


def test_criterion_7_dichotomy_suite(corpus):
    with criterion(7, "generation dichotomy and descent facts (thm13) over "
                      "full lattices up to order 360, zero violations"):
        started = time.monotonic()
        suite = _run("thm13", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit
        assert time.monotonic() - started < 600


def test_criterion_8_factorial_bound_suite(corpus):
    with criterion(8, "Fitting-index factorial bound (cor19) has zero violations"):
        suite = _run("cor19", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit


def test_criterion_9_centralizer_intersection_suite(corpus):
    with criterion(9, "centralizer-intersection identity (lem31) has zero violations"):
        suite = _run("lem31", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit


def test_criterion_10_engine_crosschecks(corpus):
    with criterion(10, "dual-algorithm agreements and pinned known values"):
        suite = _run("engine-crosschecks", corpus)
        assert suite.cases > 0
        assert suite.violations == ()
        assert not suite.resource_hit
        # pinned values, asserted directly as well
        s4 = builtin("symmetric(4)").group
        v4 = {parse_cycles(t, 4) for t in
              ["()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]}
        assert fitting_subgroup(s4).elements() == frozenset(v4)
        assert gen_fitting_height(s4) == 3
        assert len(normal_subgroups(s4)) == 4
        s5 = builtin("symmetric(5)").group
        a5 = builtin("alternating(5)").group
        assert generalized_fitting(s5).same_elements(a5)
        assert insoluble_length(s5) == 1


def test_criterion_11_determinism(corpus, tmp_path):
    with criterion(11, "byte-identical reports across repeated runs and job counts"):
        texts = []
        for jobs in (1, 1, 3):
            report = run_suites(SUITE_ORDER, corpus, Caps(jobs=jobs), "small-std")
            assert report.status == "pass"
            texts.append(render_report(report))
        assert texts[0] == texts[1] == texts[2]
        # the report contract: these bytes change only with a suite's verdicts
        assert texts[0].count("\n") == 261
        assert hashlib.sha256(texts[0].encode()).hexdigest() == (
            "38fdd281dd848caf8f1d5b47a55fb857708d8696dd7026e4587f2abb52821253")
        (tmp_path / "small-std-all-report.txt").write_text(texts[0])
