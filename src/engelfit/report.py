"""Verdict reports: structured-text serialization with stable field order."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ParseError

__all__ = [
    "TOOL_NAME",
    "TOOL_VERSION",
    "Violation",
    "SuiteResult",
    "GroupSummary",
    "VerdictReport",
    "render_report",
    "parse_report",
    "write_report",
    "report_filename",
]

TOOL_NAME = "engelfit"
TOOL_VERSION = "0.1.0"
FORMAT_LINE = "format engelfit-report-v1"

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_RESOURCE = 2
EXIT_CONSISTENCY = 3  # an engine bug: two independent computations disagree


@dataclass(frozen=True)
class Violation:
    """One failed case: which suite and group, plus a key/value payload.

    Payload values are plain strings; permutations are rendered in cycle
    notation by the suite that found the violation.
    """

    suite: str
    group: str
    detail: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    statement: str
    cases: int
    passes: int
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()
    resource_hit: bool = False


@dataclass(frozen=True)
class GroupSummary:
    name: str
    degree: int
    order: int
    fingerprint: str


@dataclass(frozen=True)
class VerdictReport:
    """Per-run verdicts.  ``elapsed`` is wall-clock seconds and is kept out
    of both serialization and equality so repeated runs produce
    byte-identical report files."""

    corpus: str
    groups: tuple[GroupSummary, ...]
    suites: tuple[SuiteResult, ...]
    tool: str = f"{TOOL_NAME} {TOOL_VERSION}"
    elapsed: Optional[float] = field(default=None, compare=False)

    @property
    def status(self) -> str:
        if any(s.resource_hit for s in self.suites):
            return "partial"
        if any(s.violations for s in self.suites):
            return "fail"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"pass": EXIT_PASS, "fail": EXIT_VIOLATIONS,
                "partial": EXIT_RESOURCE}[self.status]


# Note and kv values are free text: a backslash, a line feed or a carriage
# return in one is written as a two-character escape, so every value stays
# on its own line.
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "n": "\n", "r": "\r"}
_ESCAPED = re.compile(r"\\(.?)", re.DOTALL)


def _unescape(text: str) -> str:
    def one(m: re.Match) -> str:
        if m.group(1) not in _UNESCAPES:
            raise ParseError(f"bad escape {m.group(0)!r} in report value {text!r}")
        return _UNESCAPES[m.group(1)]
    return _ESCAPED.sub(one, text)


def render_report(report: VerdictReport) -> str:
    lines = [FORMAT_LINE,
             f"tool {report.tool}",
             f"corpus {report.corpus}",
             f"status {report.status}"]
    for s in report.suites:
        lines.append(f"suite {s.suite}")
        lines.append(f"  statement {s.statement}")
        lines.append(f"  cases {s.cases}")
        lines.append(f"  passes {s.passes}")
        lines.append(f"  resource-hit {'yes' if s.resource_hit else 'no'}")
        for note in s.notes:
            lines.append(f"  note {note.translate(_ESCAPES)}")
        for v in s.violations:
            lines.append("  violation")
            lines.append(f"    group {v.group}")
            for key, value in v.detail:
                lines.append(f"    kv {key} {value.translate(_ESCAPES)}")
    for g in report.groups:
        lines.append(f"group-summary {g.name}")
        lines.append(f"  degree {g.degree}")
        lines.append(f"  order {g.order}")
        lines.append(f"  fingerprint {g.fingerprint}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _count(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} {value!r} is not an integer") from None


def parse_report(text: str) -> VerdictReport:
    # split on line feeds only: str.splitlines also breaks at characters
    # such as U+2028 that a value may hold unescaped
    lines = [line.removesuffix("\r")
             for line in text.removesuffix("\n").split("\n")]
    if not lines or lines[0] != FORMAT_LINE:
        raise ParseError("not a recognized report (missing format line)")
    tool = corpus = None
    status_claimed = None
    suites: list[dict] = []
    groups: list[dict] = []
    group_fields: Optional[dict] = None
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if line == "end":
            break
        if line.startswith("tool "):
            tool = line[5:]
        elif line.startswith("corpus "):
            corpus = line[7:]
        elif line.startswith("status "):
            status_claimed = line[7:]
        elif line.startswith("suite "):
            suites.append({"suite": line[6:], "notes": [], "violations": []})
            group_fields = None
        elif line.startswith("group-summary "):
            group_fields = {"name": line[len("group-summary "):]}
            groups.append(group_fields)
        elif line.startswith("  ") and group_fields is not None:
            key, _, value = line[2:].partition(" ")
            group_fields[key] = value
        elif line.startswith("    ") and suites:
            key, _, value = line[4:].partition(" ")
            if not suites[-1]["violations"]:
                raise ParseError(f"violation field {key!r} before any violation")
            if key == "group":
                suites[-1]["violations"][-1]["group"] = value
            elif key == "kv":
                k, _, v = value.partition(" ")
                suites[-1]["violations"][-1]["detail"].append((k, _unescape(v)))
            else:
                raise ParseError(f"unexpected violation field {key!r}")
        elif line.startswith("  ") and suites:
            key, _, value = line[2:].partition(" ")
            if key == "statement":
                suites[-1]["statement"] = value
            elif key in ("cases", "passes"):
                suites[-1][key] = _count(key, value)
            elif key == "resource-hit":
                suites[-1]["resource_hit"] = value == "yes"
            elif key == "note":
                suites[-1]["notes"].append(_unescape(value))
            elif key == "violation":
                suites[-1]["violations"].append({"group": "", "detail": []})
            else:
                raise ParseError(f"unexpected suite field {key!r}")
        else:
            raise ParseError(f"unexpected report line {line!r}")
    if tool is None or corpus is None:
        raise ParseError("report is missing tool or corpus line")
    try:
        built_suites = tuple(
            SuiteResult(suite=s["suite"], statement=s["statement"],
                        cases=s["cases"], passes=s["passes"],
                        violations=tuple(Violation(s["suite"], v["group"],
                                                   tuple(v["detail"]))
                                         for v in s["violations"]),
                        notes=tuple(s["notes"]),
                        resource_hit=s.get("resource_hit", False))
            for s in suites)
        built_groups = tuple(
            GroupSummary(g["name"], _count("degree", g["degree"]),
                         _count("order", g["order"]), g["fingerprint"])
            for g in groups)
    except KeyError as exc:
        raise ParseError(f"a suite or group-summary has no {exc.args[0]} line") from None
    report = VerdictReport(corpus=corpus, groups=built_groups,
                           suites=built_suites, tool=tool)
    if status_claimed != report.status:
        raise ParseError(f"status line {status_claimed!r} disagrees with content")
    return report


def report_filename(corpus: str, suite: str) -> str:
    return f"{corpus}-{suite}-report.txt"


def write_report(report: VerdictReport, path, suite: str = "all") -> Path:
    """Write the rendered report; a directory path uses the filename convention."""
    target = Path(path)
    if target.is_dir():
        target = target / report_filename(report.corpus, suite)
    target.write_text(render_report(report))
    return target
