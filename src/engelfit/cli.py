"""Command-line front end: theorem suites over corpora, and group analysis."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConsistencyError, EngelfitError, ResourceLimitError
from .report import (EXIT_CONSISTENCY, EXIT_RESOURCE, TOOL_NAME, TOOL_VERSION,
                     write_report)
from .corpus import get_corpus
from .suites import SUITE_ORDER, Caps, analyze_text, run_suites

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1; anything else is a usage error (exit 2)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Finite-group invariants engine and verification harness")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites over a corpus")
    run.add_argument("--suite", default="all",
                     choices=list(SUITE_ORDER) + ["all"],
                     help="suite to run (default: all)")
    run.add_argument("--corpus", default="builtin:small-std",
                     help="corpus directory or builtin:small-std")
    run.add_argument("--max-order", type=_positive_int, default=Caps.max_order,
                     help="skip corpus groups larger than this")
    run.add_argument("--lattice-max-order", type=_positive_int,
                     default=Caps.lattice_max_order,
                     help="full-lattice suites skip groups larger than this")
    run.add_argument("--k-cap", type=_positive_int, default=None,
                     help="max commutator iterations per chain (default: group order)")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes (default: 1)")
    run.add_argument("--report", default=None,
                     help="report file or directory (directory uses "
                          "<corpus>-<suite>-report.txt)")
    run.add_argument("--crosschecks", choices=["on", "off"], default="on",
                     help="run dual-algorithm checks inside suites")

    analyze = sub.add_parser("analyze", help="print a group's invariant profile")
    analyze.add_argument("--corpus", default="builtin:small-std")
    analyze.add_argument("--group", required=True, help="entry name within the corpus")
    analyze.add_argument("--elements", action="store_true",
                         help="include per-element Engel summaries")
    analyze.add_argument("--report", default=None, help="also write the text here")
    return parser


def _cmd_run(args) -> int:
    corpus_name, entries = get_corpus(args.corpus)
    caps = Caps(max_order=args.max_order,
                lattice_max_order=args.lattice_max_order,
                k_cap=args.k_cap,
                jobs=args.jobs,
                crosschecks=args.crosschecks == "on")
    suites = list(SUITE_ORDER) if args.suite == "all" else [args.suite]
    report = run_suites(suites, entries, caps, corpus_name)
    for suite in report.suites:
        state = "pass" if not suite.violations and not suite.resource_hit else (
            "partial" if suite.resource_hit else "FAIL")
        print(f"suite {suite.suite}: {state} "
              f"({suite.passes}/{suite.cases} cases)")
        for v in suite.violations:
            payload = " ".join(f"{k}={val}" for k, val in v.detail)
            print(f"  violation group={v.group} {payload}")
    print(f"status {report.status}")
    if report.elapsed is not None:
        print(f"elapsed {report.elapsed:.1f}s", file=sys.stderr)
    if args.report is not None:
        target = write_report(report, Path(args.report), suite=args.suite)
        print(f"report written to {target}", file=sys.stderr)
    return report.exit_code


def _cmd_analyze(args) -> int:
    _, entries = get_corpus(args.corpus)
    matches = [e for e in entries if e.name == args.group]
    if not matches:
        print(f"no entry named {args.group!r} in corpus", file=sys.stderr)
        return 2
    text = analyze_text(matches[0], include_elements=args.elements)
    print(text, end="")
    if args.report is not None:
        Path(args.report).write_text(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_analyze(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConsistencyError as exc:
        print(f"engine consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except EngelfitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
