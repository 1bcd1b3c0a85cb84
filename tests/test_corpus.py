"""Builtin families, .grp parsing, corpus loading, and report round-trips."""

import pytest
from hypothesis import given, strategies as st

from engelfit.corpus import (MAX_DEGREE, builtin, get_corpus, load_corpus,
                             parse_group_file, serialize_group_file, small_std)
from engelfit.errors import ParseError, ResourceLimitError
from engelfit.report import (GroupSummary, SuiteResult, VerdictReport,
                             Violation, parse_report, render_report,
                             write_report)


def test_builtin_symmetric():
    e = builtin("symmetric(4)")
    assert e.group.order == 24
    assert e.group.degree == 4
    assert [n for n, _ in e.automorphisms] == ["t12"]


def test_builtin_orders_match_closed_forms():
    import math
    for n in range(3, 7):
        assert builtin(f"dihedral({n})").group.order == 2 * n
    for n in range(1, 8):
        assert builtin(f"symmetric({n})").group.order == math.factorial(n)
    for n in range(3, 8):
        assert builtin(f"alternating({n})").group.order == math.factorial(n) // 2
    for p in (3, 5, 7):
        assert builtin(f"sl2({p})").group.order == p * (p * p - 1)
    for n in (1, 2, 5, 12):
        assert builtin(f"cyclic({n})").group.order == n


def test_builtin_sl2_5():
    e = builtin("sl2(5)")
    assert e.group.degree == 24
    assert e.group.order == 120


def test_builtin_alternating_attaches_transposition_conjugation():
    e = builtin("alternating(5)")
    alpha = e.automorphism("t12")
    assert alpha.is_involution()
    from engelfit.engel import fixed_subgroup
    assert fixed_subgroup(alpha).order == 6


def test_builtin_direct_product_and_holomorph():
    e = builtin("direct_product(cyclic(2),alternating(5))")
    assert e.group.order == 120
    assert e.group.degree == 7
    h = builtin("holomorph_ext(cyclic(5),inv)")
    assert h.group.order == 10
    assert h.group.degree == 5


def test_builtin_unknown_family():
    with pytest.raises(ParseError):
        builtin("sporadic(1)")
    with pytest.raises(ParseError):
        builtin("symmetric(9)")


@pytest.mark.parametrize("spec", ["cyclic(abc)", "cyclic()", "symmetric(3,4)"])
def test_builtin_integer_family_needs_exactly_one_integer(spec):
    with pytest.raises(ParseError, match="takes one integer argument"):
        builtin(spec)


def test_parse_group_file_s3():
    text = """# tiny example
name s3demo
degree 3
gen (1 2)
gen (1 2 3)
"""
    entry = parse_group_file(text)
    assert entry.name == "s3demo"
    assert entry.group.order == 6


def test_parse_group_file_with_automorphism():
    text = """name c5demo
degree 5
gen (1 2 3 4 5)
auto inv
map (1 5 4 3 2)
"""
    entry = parse_group_file(text)
    assert entry.automorphism("inv").order == 2


def test_parse_group_file_rejects_non_member_image():
    text = """name bad
degree 4
gen (1 2 3)
auto broken
map (1 2)
"""
    with pytest.raises(ParseError, match="broken"):
        parse_group_file(text)


def test_parse_group_file_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_group_file("name x\ndegree 3\ngen (1 5)\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_group_file("generator (1 2)\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_group_file("name x\nmap (1 2)\n")
    with pytest.raises(ParseError, match="line 3: map before degree"):
        parse_group_file("name y\nauto a\nmap (1 2)\n")
    with pytest.raises(ParseError, match="line 4: repeated degree line"):
        parse_group_file("name x\ndegree 3\ngen (1 2 3)\ndegree 4\ngen (1 2 3 4)\n")
    with pytest.raises(ParseError, match="line 3: repeated name line"):
        parse_group_file("name x\ndegree 3\nname y\ngen (1 2 3)\n")


def test_parse_group_file_bounds_the_degree():
    # rejected before the gen line allocates a permutation of that degree
    for degree in [str(MAX_DEGREE + 1), "10" * 30, "9" * 5000, "0", "\u00b2"]:
        with pytest.raises(ParseError, match=f"line 2: bad degree .* 1..{MAX_DEGREE}"):
            parse_group_file(f"name x\ndegree {degree}\ngen (1 2)\n")
    assert parse_group_file(f"name x\ndegree {MAX_DEGREE}\ngen (1 2)\n").group.order == 2


def test_builtin_families_over_the_caps_rejected_before_closure():
    # sizes come from closed forms, so no group of these sizes is built
    for spec in ["cyclic(1000000000)", f"cyclic({MAX_DEGREE + 1})",
                 "dihedral(1000000)", f"dihedral({MAX_DEGREE + 1})",
                 "direct_product(cyclic(500),cyclic(500))",
                 "holomorph_ext(alternating(7),t12)"]:
        with pytest.raises(ResourceLimitError) as err:
            builtin(spec)
        assert err.value.partial_count == 0


def test_parse_group_file_crlf_tolerated():
    entry = parse_group_file("name x\r\ndegree 3\r\ngen (1 2 3)\r\n")
    assert entry.group.order == 3


def test_serialize_round_trips_fingerprint():
    for name, spec in [("s4", "symmetric(4)"), ("a5", "alternating(5)"),
                       ("sl2_3", "sl2(3)"),
                       ("s3xc2", "direct_product(symmetric(3),cyclic(2))")]:
        entry = builtin(spec, name)
        back = parse_group_file(serialize_group_file(entry))
        assert back.group.fingerprint == entry.group.fingerprint
        assert [n for n, _ in back.automorphisms] == [n for n, _ in entry.automorphisms]


def test_load_corpus_directory(tmp_path):
    for name in ["zeta", "alpha", "mid"]:
        (tmp_path / f"{name}.grp").write_text(
            f"name {name}\ndegree 3\ngen (1 2 3)\n")
    entries = load_corpus(tmp_path)
    assert [e.name for e in entries] == ["alpha", "mid", "zeta"]


def test_load_corpus_rejects_duplicates(tmp_path):
    (tmp_path / "a.grp").write_text("name dup\ndegree 2\ngen (1 2)\n")
    (tmp_path / "b.grp").write_text("name dup\ndegree 2\ngen (1 2)\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_corpus(tmp_path)


def test_small_std_contents():
    entries = small_std()
    names = [e.name for e in entries]
    assert names == sorted(names)
    for required in ["a5", "a6", "a7", "s4", "s7", "sl2_5", "c2xa5", "s4xs3", "a5xa5"]:
        assert required in names
    by_name = {e.name: e for e in entries}
    assert by_name["c2xa5"].group.order == 120
    assert by_name["s4xs3"].group.order == 144
    assert by_name["a5xa5"].group.order == 3600


def test_get_corpus_selectors(tmp_path):
    name, entries = get_corpus("builtin:small-std")
    assert name == "small-std"
    assert len(entries) >= 25
    name2, entries2 = get_corpus("builtin:cyclic(6)")
    assert len(entries2) == 1 and entries2[0].group.order == 6
    (tmp_path / "one.grp").write_text("name one\ndegree 2\ngen (1 2)\n")
    _, entries3 = get_corpus(str(tmp_path))
    assert len(entries3) == 1


def _sample_report():
    return VerdictReport(
        corpus="demo",
        groups=(GroupSummary("s3", 3, 6, "abc123"),),
        suites=(
            SuiteResult(suite="baer", statement="demo statement", cases=6,
                        passes=6, violations=(), notes=("group s3: all good",)),
            SuiteResult(suite="thmJ", statement="other statement", cases=2,
                        passes=1,
                        violations=(Violation("thmJ", "s3",
                                              (("x", "(1 2)"), ("reason", "made up"))),),
                        notes=()),
        ),
    )


def test_report_round_trip():
    report = _sample_report()
    text = render_report(report)
    assert parse_report(text) == report


@given(notes=st.lists(st.text(), max_size=4), values=st.lists(st.text(), max_size=4))
def test_report_round_trip_with_arbitrary_text_values(notes, values):
    detail = tuple((f"k{i}", v) for i, v in enumerate(values))
    report = VerdictReport(corpus="demo", groups=(), suites=(
        SuiteResult("baer", "statement", 1, 0,
                    violations=(Violation("baer", "s3", detail),),
                    notes=tuple(notes)),))
    text = render_report(report)
    # 12 fixed lines, one per note and one per kv value
    assert text.count("\n") == 12 + len(notes) + len(values)
    assert parse_report(text) == report


def test_report_escapes_only_backslash_and_line_breaks():
    report = VerdictReport(corpus="demo", groups=(), suites=(
        SuiteResult("baer", "statement", 1, 1, (), notes=("a\\b\nc\rd é\t",)),))
    text = render_report(report)
    assert "  note a\\\\b\\nc\\rd é\t\n" in text
    assert parse_report(text) == report
    with pytest.raises(ParseError, match="bad escape"):
        parse_report(text.replace("\\\\b", "\\b"))


@pytest.mark.parametrize("old, new, match", [
    ("  note group s3: all good\n", "    kv x (1 2)\n", "before any violation"),
    ("  cases 6\n", "", "no cases line"),
    ("  cases 6\n", "  cases x\n", "cases 'x' is not an integer"),
    ("  degree 3\n", "", "no degree line")],
    ids=["kv-before-violation", "no-cases", "cases-not-integer", "no-degree"])
def test_malformed_report_raises_parse_error(old, new, match):
    text = render_report(_sample_report())
    assert old in text
    with pytest.raises(ParseError, match=match):
        parse_report(text.replace(old, new))


def test_truncated_report_raises_parse_error():
    lines = render_report(_sample_report()).splitlines(keepends=True)
    for cut in range(len(lines)):
        with pytest.raises(ParseError):
            parse_report("".join(lines[:cut]))


def test_report_with_a_line_after_end_raises_parse_error():
    text = render_report(_sample_report())
    assert text.endswith("\nend\n")
    with pytest.raises(ParseError, match="last line is not 'end'"):
        parse_report(text + "group-summary late\n")


def test_report_status_reflects_violations():
    report = _sample_report()
    assert report.status == "fail"
    assert report.exit_code == 1
    clean = VerdictReport(corpus="demo", groups=(), suites=(
        SuiteResult("baer", "s", 3, 3, ()),))
    assert clean.status == "pass" and clean.exit_code == 0
    partial = VerdictReport(corpus="demo", groups=(), suites=(
        SuiteResult("baer", "s", 0, 0, (), resource_hit=True),))
    assert partial.status == "partial" and partial.exit_code == 2


def test_report_serialization_is_deterministic():
    assert render_report(_sample_report()) == render_report(_sample_report())


def test_empty_corpus_report_passes():
    report = VerdictReport(corpus="none", groups=(), suites=(
        SuiteResult("baer", "statement", 0, 0, ()),))
    assert report.status == "pass"
    assert parse_report(render_report(report)) == report


def test_write_report_directory_convention(tmp_path):
    report = _sample_report()
    target = write_report(report, tmp_path, suite="all")
    assert target.name == "demo-all-report.txt"
    assert parse_report(target.read_text()) == report


def test_fault_injection_shows_violation_payload(monkeypatch):
    """A corrupted Fitting computation must surface as a counterexample."""
    import engelfit.suites as suites_mod
    from engelfit.group import GroupHandle
    from engelfit.suites import Caps, run_suites

    def wrong_fitting(group):
        return GroupHandle.trivial(group.degree)  # always claims F(G) = 1

    monkeypatch.setattr(suites_mod, "fitting_subgroup", wrong_fitting)
    entry = builtin("symmetric(3)", "s3")
    report = run_suites(["baer"], [entry], Caps(), "faulty")
    suite = report.suites[0]
    assert suite.violations
    # every element is a case: 1 and the transpositions pass, the two
    # 3-cycles collapse outside the claimed F(G)
    assert (suite.cases, suite.passes) == (6, 4)
    assert ("  violation\n"
            "    group s3\n"
            "    kv x (1 2 3)\n"
            "    kv engel_collapses True\n"
            "    kv in_fitting False\n") in render_report(report)
    assert report.status == "fail"
    assert report.exit_code == 1


def test_fault_injection_shows_automorphism_violation_payload(monkeypatch):
    """A wrong Engel chain for an automorphism renders its failing steps."""
    import dataclasses

    import engelfit.suites as suites_mod
    from engelfit.group import GroupHandle
    from engelfit.suites import Caps, run_suites

    real_chain = suites_mod.engel_chain

    def wrong_chain(group, actor, k_cap=None):
        chain = real_chain(group, actor, k_cap=k_cap)
        trivial = GroupHandle.trivial(group.degree)
        return dataclasses.replace(chain, generated=(trivial,) + chain.generated[1:])

    monkeypatch.setattr(suites_mod, "engel_chain", wrong_chain)
    report = run_suites(["thmE"], [builtin("alternating(5)", "a5")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (1, 0)
    assert ("  violation\n"
            "    group a5\n"
            "    kv automorphism t12\n"
            "    kv failing_k 1\n") in render_report(report)


def test_fault_injection_shows_cor19_violation_payload(monkeypatch):
    """An inverted set cut to 2 of a5's 7 elements puts the bound
    (2!)^4 = 16 below |A5 : F| = 60."""
    import dataclasses

    import engelfit.suites as suites_mod
    from engelfit.suites import Caps, run_suites

    real_j_set = suites_mod.j_set

    def short_j_set(group, alpha):
        report = real_j_set(group, alpha)
        assert len(report.j_elements) == 7
        return dataclasses.replace(report, j_elements=frozenset(sorted(report.j_elements)[:2]))

    monkeypatch.setattr(suites_mod, "j_set", short_j_set)
    report = run_suites(["cor19"], [builtin("alternating(5)", "a5")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (1, 0)
    assert ("  violation\n"
            "    group a5\n"
            "    kv automorphism t12\n"
            "    kv fitting_index 60\n"
            "    kv j_size 2\n") in render_report(report)
    assert report.exit_code == 1


def test_fault_injection_shows_lem31_violation_payload(monkeypatch):
    """A center claimed trivial on SL(2,5) leaves the order-2 intersection
    unexplained."""
    import engelfit.engel as engel_mod
    from engelfit.group import GroupHandle
    from engelfit.suites import Caps, run_suites

    monkeypatch.setattr(engel_mod, "center", lambda group: GroupHandle.trivial(group.degree))
    report = run_suites(["lem31"], [builtin("sl2(5)", "sl2_5")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (1, 0)
    assert ("  violation\n"
            "    group sl2_5\n"
            "    kv automorphism sconj\n"
            "    kv intersection_order 2\n"
            "    kv expected_order 1\n") in render_report(report)
    assert report.exit_code == 1


def _first_violation_block(text):
    """The first rendered violation with its group and detail lines."""
    lines = text.splitlines(keepends=True)
    start = lines.index("  violation\n")
    end = start + 1
    while end < len(lines) and lines[end].startswith("    "):
        end += 1
    return "".join(lines[start:end])


def test_fault_injection_shows_thm11_violation_payload(monkeypatch):
    """F(G) claimed trivial on S4 puts the Klein four-group's involutions,
    of minimal Engel height 0, outside the height-0 term."""
    import engelfit.suites as suites_mod
    from engelfit.group import GroupHandle
    from engelfit.suites import Caps, run_suites

    real_pull_back = suites_mod.pull_back

    def trivial_at_the_bottom(group, kernel, fn):
        if kernel.is_trivial():
            return GroupHandle.trivial(group.degree)
        return real_pull_back(group, kernel, fn)

    monkeypatch.setattr(suites_mod, "pull_back", trivial_at_the_bottom)
    report = run_suites(["thm11"], [builtin("symmetric(4)", "s4")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (96, 93)
    assert _first_violation_block(render_report(report)) == (
        "  violation\n"
        "    group s4\n"
        "    kv x (1 2)(3 4)\n"
        "    kv h 0\n"
        "    kv above_term False\n"
        "    kv min_height 0\n")
    assert report.exit_code == 1


def test_fault_injection_shows_thm12_violation_payload(monkeypatch):
    """Every upper insoluble term of A5 claimed to be R_0 = 1 leaves the
    elements of insoluble length 1 outside R_1."""
    import engelfit.suites as suites_mod
    from engelfit.suites import Caps, run_suites

    real_series = suites_mod.upper_insoluble_series

    def flat_series(group, lam):
        return (real_series(group, lam)[0],) * (lam + 1)

    monkeypatch.setattr(suites_mod, "upper_insoluble_series", flat_series)
    report = run_suites(["thm12"], [builtin("alternating(5)", "a5")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (120, 61)
    assert _first_violation_block(render_report(report)) == (
        "  violation\n"
        "    group a5\n"
        "    kv x (3 4 5)\n"
        "    kv h 1\n"
        "    kv in_upper_term False\n"
        "    kv min_length 1\n")
    assert report.exit_code == 1


def test_fault_injection_shows_cor15_violation_payload(monkeypatch):
    """A descent stopped at G disagrees for every element of S3 with the
    generated Engel chain's stable term, which is A3 or 1."""
    import engelfit.suites as suites_mod
    from engelfit.suites import Caps, run_suites

    monkeypatch.setattr(suites_mod, "commutator_descent", lambda group, actor: (group,))
    report = run_suites(["cor15"], [builtin("symmetric(3)", "s3")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (6, 0)
    assert _first_violation_block(render_report(report)) == (
        "  violation\n"
        "    group s3\n"
        "    kv x ()\n"
        "    kv problems descent and generated stable terms differ\n")
    assert report.exit_code == 1


def test_fault_injection_shows_thmJ_violation_payload(monkeypatch):
    """An inverted set of a5 missing one of its 7 elements differs from the
    commutator set beyond the 2-part exponent."""
    import dataclasses

    import engelfit.suites as suites_mod
    from engelfit.suites import Caps, run_suites

    real_j_set = suites_mod.j_set

    def j_set_less_one(group, alpha):
        report = real_j_set(group, alpha)
        assert len(report.j_elements) == 7
        return dataclasses.replace(report, j_elements=frozenset(sorted(report.j_elements)[1:]))

    monkeypatch.setattr(suites_mod, "j_set", j_set_less_one)
    report = run_suites(["thmJ"], [builtin("alternating(5)", "a5")], Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (1, 0)
    assert _first_violation_block(render_report(report)) == (
        "  violation\n"
        "    group a5\n"
        "    kv automorphism t12\n"
        "    kv j_size 6\n"
        "    kv two_part 2\n"
        "    kv problems commutator set at step 2 differs from the inverted set\n")
    assert report.exit_code == 1


def test_fault_injection_shows_crosschecks_violation_payload(monkeypatch):
    """A socle route that returns F(S5) = 1 disagrees with the product
    route's F*(S5) = A5; only the crosschecks suite runs, so the dual check
    is counted once."""
    import engelfit.suites as suites_mod
    from engelfit.suites import Caps, run_suites

    monkeypatch.setattr(suites_mod, "_gen_fitting_by_socle", suites_mod.fitting_subgroup)
    report = run_suites(["engine-crosschecks"], [builtin("symmetric(5)", "s5")],
                        Caps(), "faulty")
    suite = report.suites[0]
    assert (suite.cases, suite.passes) == (4, 3)
    assert _first_violation_block(render_report(report)) == (
        "  violation\n"
        "    group s5\n"
        "    kv check gen-fitting-dual\n"
        "    kv error generalized Fitting subgroup mismatch: product route has "
        "order 60, socle route has order 1\n")
    assert report.exit_code == 1
