"""CLI surface: suites, exit codes, reports, determinism across job counts."""

import pytest

from engelfit.cli import main
from engelfit.report import parse_report


def test_run_single_builtin_suite(tmp_path, capsys):
    report_path = tmp_path / "out.txt"
    code = main(["run", "--suite", "baer", "--corpus", "builtin:symmetric(4)",
                 "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "suite baer: pass" in out
    report = parse_report(report_path.read_text())
    assert report.suites[0].cases == 24
    assert report.status == "pass"


def test_run_reports_to_directory_with_convention(tmp_path):
    code = main(["run", "--suite", "thmJ", "--corpus", "builtin:alternating(5)",
                 "--report", str(tmp_path)])
    assert code == 0
    target = tmp_path / "alternating(5)-thmJ-report.txt"
    assert target.exists()


def test_exit_code_two_on_resource_limit(tmp_path):
    # k-cap of 1 exhausts before the transpositions' Engel sets are stable
    code = main(["run", "--suite", "baer", "--corpus", "builtin:symmetric(3)",
                 "--k-cap", "1", "--report", str(tmp_path / "r.txt")])
    assert code == 2
    report = parse_report((tmp_path / "r.txt").read_text())
    assert report.status == "partial"
    # the identity passes before the cap is hit; its count is discarded
    suite = report.suites[0]
    assert (suite.cases, suite.passes, suite.resource_hit) == (0, 0, True)


def test_exit_code_two_on_a_builtin_over_the_degree_cap(capsys):
    # the extension of A7 acts on its 2520 elements, over the degree cap
    code = main(["run", "--corpus", "builtin:holomorph_ext(alternating(7),t12)"])
    assert code == 2
    assert "has degree 2520 and order 5040" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--k-cap", "--jobs", "--max-order",
                                  "--lattice-max-order"])
def test_nonpositive_count_is_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "baer", "--corpus", "builtin:cyclic(6)", flag, "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}: '0' is not a positive integer" in err


def test_bare_run_defaults_are_the_caps_defaults(monkeypatch):
    import engelfit.cli
    from engelfit.suites import Caps

    class Captured(Exception):
        pass

    def capture(suites, entries, caps, corpus_name):
        raise Captured(caps)

    monkeypatch.setattr(engelfit.cli, "get_corpus", lambda name: (name, []))
    monkeypatch.setattr(engelfit.cli, "run_suites", capture)
    with pytest.raises(Captured) as exc:
        main(["run"])
    assert exc.value.args[0] == Caps()


def test_exit_code_two_on_malformed_builtin_argument(capsys):
    assert main(["run", "--suite", "baer", "--corpus", "builtin:cyclic(abc)"]) == 2
    assert "takes one integer argument" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "name y\nauto a\nmap (1 2)\n",
    "name x\ndegree 3\ngen (1 2 3)\ndegree 4\ngen (1 2 3 4)\n",
], ids=["map-before-degree", "repeated-degree"])
def test_exit_code_two_on_malformed_group_file(tmp_path, capsys, text):
    (tmp_path / "bad.grp").write_text(text)
    assert main(["run", "--suite", "baer", "--corpus", str(tmp_path)]) == 2
    assert f"error: {tmp_path / 'bad.grp'}: line " in capsys.readouterr().err


def test_exit_code_three_on_engine_consistency_error(monkeypatch, capsys):
    # an engine bug must not be reported as a resource cap (exit 2)
    import engelfit.cli
    from engelfit.errors import ConsistencyError

    def broken_run_suites(*args, **kwargs):
        raise ConsistencyError("stabilizer chain order 6 != closure size 5")

    monkeypatch.setattr(engelfit.cli, "run_suites", broken_run_suites)
    code = main(["run", "--suite", "baer", "--corpus", "builtin:symmetric(3)"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("engine consistency error: stabilizer chain order")


def test_a_consistency_error_in_a_suite_names_its_entry_and_suite(monkeypatch, capsys):
    import engelfit.suites
    from engelfit.errors import ConsistencyError

    def broken_suite(entry, caps, out):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setitem(engelfit.suites._SUITE_FNS, "baer", broken_suite)
    code = main(["run", "--suite", "baer", "--corpus", "builtin:symmetric(3)",
                 "--jobs", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("engine consistency error: group symmetric(3): "
                          "suite baer: two routes disagree")


def test_analyze_s4(capsys):
    code = main(["analyze", "--corpus", "builtin:symmetric(4)",
                 "--group", "symmetric(4)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitting-order 4" in out
    assert "generalized-fitting-height 3" in out
    assert "insoluble-length 0" in out


def test_analyze_elements_s4_is_pinned(capsys):
    # the per-element lines read each element's facts from its class
    # representative; the output is the one of the element-by-element scan
    import hashlib
    code = main(["analyze", "--corpus", "builtin:small-std", "--group", "s4",
                 "--elements"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 37
    assert lines[13:16] == [
        "  element () engel-collapse yes min-height 0 min-length 0",
        "  element (3 4) engel-collapse no min-height 2 min-length 0",
        "  element (2 3) engel-collapse no min-height 2 min-length 0"]
    assert "  element (1 3)(2 4) engel-collapse yes min-height 0 min-length 0" in lines
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4b2414cab83099467d2a76d263ff6f715675a0e6100c6eb32d8467ea06062664")


def test_analyze_unknown_group():
    assert main(["analyze", "--corpus", "builtin:symmetric(4)",
                 "--group", "nope"]) == 2


def test_determinism_across_runs_and_jobs(tmp_path):
    """Byte-identical reports for repeated runs and different job counts."""
    paths = [tmp_path / f"r{i}.txt" for i in range(3)]
    corpus = "builtin:small-std"
    args = ["run", "--suite", "thmJ", "--corpus", corpus, "--max-order", "200"]
    assert main(args + ["--report", str(paths[0]), "--jobs", "1"]) == 0
    assert main(args + ["--report", str(paths[1]), "--jobs", "1"]) == 0
    assert main(args + ["--report", str(paths[2]), "--jobs", "3"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "engelfit", "run", "--suite", "baer",
         "--corpus", "builtin:cyclic(6)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "suite baer: pass" in proc.stdout


def test_console_script_version():
    import subprocess
    proc = subprocess.run(["engelfit", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "engelfit" in proc.stdout
