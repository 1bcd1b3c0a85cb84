"""One benchmark run of one workload, in a fresh process.

Usage: python3 perfbench/child.py WORKLOAD CORPUS_DIR MODE

The caller puts the checkout's ``src`` and this directory on PYTHONPATH.
Every mode first loads the corpus once, as ``engelfit run --corpus DIR``
does, and times the load.  MODE then selects:

- ``setup``: nothing more; the load is the whole run.
- ``plain``: run the workload's suites at its job count, tracing off.
- ``untraced``: the same at jobs 1, the reference for the traced runs.
- ``spans``: jobs 1 with layer spans (see tracer.py).
- ``perm``: jobs 1 counting Permutation operations.

The run goes through the public calls load_corpus, run_suites and
render_report.  One JSON object is printed on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

# Module memos that a fresh process must start with empty; a memo that a
# later refactor removes has nothing left to check.
MEMOS = (("engelfit.subgrp", "_NC_MEMO"), ("engelfit.subgrp", "_SUBNORMAL_MEMO"),
         ("engelfit.series", "_LAYER_MEMO"), ("engelfit.series", "_HSTAR_MEMO"),
         ("engelfit.series", "_LAMBDA_MEMO"), ("engelfit.suites", "_ELEMENT_FACTS"))


def _filled_memos() -> list[str]:
    return [f"{module}.{name}" for module, name in MEMOS
            if getattr(sys.modules[module], name, None)]


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _failures(report, entry_names, workload) -> tuple[int, list[str]]:
    """Failed (entry, suite) units and the reasons.

    A unit fails on a violation or a resource hit naming its entry; a suite
    whose counts differ from the canonical ones fails on every entry.
    """
    failed: set[tuple[str, str]] = set()
    reasons = []
    if tuple(s.suite for s in report.suites) != workload.suites:
        reasons.append("report suites differ from the workload's suites")
    for suite in report.suites:
        for v in suite.violations:
            failed.add((v.group, suite.suite))
            reasons.append(f"{suite.suite}: violation in {v.group}")
        for note in suite.notes:
            if ": resource limit:" in note:
                failed.add((note.split(":", 1)[0].removeprefix("group "), suite.suite))
                reasons.append(f"{suite.suite}: {note}")
        expected = workload.counts.get(suite.suite)
        if (suite.cases, suite.passes) != expected:
            reasons.append(f"{suite.suite}: counts {(suite.cases, suite.passes)} "
                           f"!= canonical {expected}")
            failed.update((name, suite.suite) for name in entry_names)
    return len(failed), reasons


def main(argv: list[str]) -> int:
    workload = workloads.WORKLOADS[argv[0]]
    corpus_dir, mode = Path(argv[1]), argv[2]

    from engelfit.corpus import load_corpus
    from engelfit.report import parse_report, render_report
    from engelfit.suites import Caps, run_suites

    spans = tracer.SpanTracer() if mode == "spans" else None
    if spans is not None:
        load_corpus = spans.install()
    started = time.perf_counter()
    entries = load_corpus(corpus_dir)
    result = {"mode": mode, "setup_s": time.perf_counter() - started,
              "memos_filled": _filled_memos(), "reasons": []}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    perm = tracer.PermCounter() if mode == "perm" else None
    if perm is not None:
        perm.install()  # after the load: the counts cover the run only
    entry_names = [e.name for e in entries]
    attempted = len(entry_names) * len(workload.suites)
    # traced runs use one process so that every span is recorded here
    caps = Caps(jobs=workload.jobs if mode == "plain" else 1)
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    try:
        report = run_suites(workload.suites, entries, caps, corpus_dir.name)
        text = render_report(report)
    except Exception:
        traceback.print_exc()
        result.update(attempted=attempted, failed=attempted,
                      reasons=["run_suites raised"], counts={})
        print(json.dumps(result))
        return 0
    wall = time.perf_counter() - started
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    failed, reasons = _failures(report, entry_names, workload)
    if [(s.suite, s.cases, s.passes) for s in parse_report(text).suites] != \
            [(s.suite, s.cases, s.passes) for s in report.suites]:
        reasons.append("rendered report does not parse back to the same counts")
    result.update(
        attempted=attempted,
        failed=failed,
        reasons=reasons,
        counts={s.suite: [s.cases, s.passes] for s in report.suites},
        wall_s=wall,
        cpu_s=(_cpu_s(self_after) - _cpu_s(self_before)
               + _cpu_s(children_after) - _cpu_s(children_before)),
        peak_rss_mb=max(self_after.ru_maxrss, children_after.ru_maxrss) / 1024,
    )
    for probe in (spans, perm):
        if probe is not None:
            result["layers"] = probe.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
