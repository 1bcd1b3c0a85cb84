"""engelfit benchmark: seeded small-std workloads, each run in fresh processes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed relabels every small-std entry (seed 0 is the identity) and the
result is written as a corpus directory; engelfit sees only that
directory.  With ``--trace 0`` the workload runs in one fresh process after
another until ``--seconds`` is used up, and the medians of the end-to-end
metrics are reported.  With ``--trace 1`` it runs once untraced, once with
layer spans and once with permutation call counts, and reports the
per-layer metrics and the tracing overhead.  Every run must reproduce the
workload's canonical suite counts with no violation, resource hit or
escaped error.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170  # every invocation must end within 180 s
# fresh processes that only load the corpus; with the timed runs' own
# loads they give the setup_s median
SETUP_PROCESSES = 4


def _run_child(root: Path, env: dict, workload: str, corpus: Path, mode: str,
               deadline: float) -> dict:
    """Run child.py in its own process group and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(corpus), mode],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} run timed out"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} run exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def _problems(result: dict) -> list[str]:
    if "error" in result:
        return [result["error"]]
    problems = [f"{result['mode']}: {r}" for r in result["reasons"]]
    if result["memos_filled"]:
        problems.append("memos not empty at start: " + ", ".join(result["memos_filled"]))
    return problems


def _cases(workload) -> int:
    return sum(cases for cases, _ in workload.counts.values())


def _timed(root, env, workload, corpus, seconds, deadline):
    """Set-up processes, then timed runs until the next would overrun `seconds`."""
    started = time.monotonic()
    setups = [_run_child(root, env, workload.name, corpus, "setup", deadline)
              for _ in range(SETUP_PROCESSES)]
    runs = []
    first = time.monotonic()
    while True:
        runs.append(_run_child(root, env, workload.name, corpus, "plain", deadline))
        now = time.monotonic()
        if "wall_s" not in runs[-1] or now - started + (now - first) / len(runs) > seconds:
            break
    walls = " ".join(f"{r['wall_s']:.3f}" for r in runs if "wall_s" in r)
    print(f"{workload.name}: {SETUP_PROCESSES} set-up processes, timed runs "
          f"at jobs {workload.jobs} with wall_s {walls}", file=sys.stderr)
    timed, runs = runs, runs + setups
    if any("wall_s" not in r for r in timed) or any("error" in r for r in setups):
        return runs, {}
    return runs, {
        "wall_s": (statistics.median(r["wall_s"] for r in timed), "s"),
        "cases_per_s": (statistics.median(_cases(workload) / r["wall_s"]
                                          for r in timed), "1/s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in timed), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
    }


def _traced(root, env, workload, corpus, deadline):
    runs = [_run_child(root, env, workload.name, corpus, mode, deadline)
            for mode in ("untraced", "spans", "perm")]
    metrics = {}
    if all("wall_s" in r for r in runs):
        untraced, spans, perm = runs
        for result in (spans, perm):
            metrics.update((k, (v, _unit(k))) for k, v in result["layers"].items())
        metrics["trace.overhead_s"] = (spans["wall_s"] - untraced["wall_s"], "s")
    return runs, metrics


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    root = Path.cwd()
    if not (root / "src" / "engelfit" / "__init__.py").is_file():
        print("perfbench: run from the root of an engelfit checkout "
              "(src/engelfit not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import seeded

    workload = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
               PYTHONHASHSEED=str(args.seed % 2**32))
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    corpus = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=work))
    try:
        seeded.write_corpus(corpus, args.seed, workload.exclude)
        if args.trace:
            runs, metrics = _traced(root, env, workload, corpus, deadline)
        else:
            runs, metrics = _timed(root, env, workload, corpus, args.seconds, deadline)
    finally:
        shutil.rmtree(corpus, ignore_errors=True)

    problems = [p for r in runs for p in _problems(r)]
    if args.trace and not problems:
        counts = [r["counts"] for r in runs]
        if any(c != counts[0] for c in counts):
            problems.append("traced and untraced runs give different counts")
    attempted = sum(r.get("attempted", 0) for r in runs) or 1
    failed = sum(r.get("failed", 0) for r in runs)
    if problems and not failed:
        failed = attempted
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"{workload.name} fail_ratio {failed / attempted:.6g} ratio")
    print(json.dumps({
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
