"""Checks that sit outside the timed runs.

Usage (from the root of a checkout):

    python3 perfbench/check.py [--seed N]

1. ``python -m engelfit run --suite all --corpus builtin:small-std`` still
   renders the canonical 261-line report, and its per-suite counts match
   the counts the workloads pin.
2. The seed-0 corpus directory holds exactly the small-std groups: the
   relabelling is the identity.
3. Seeds 0 and N give identical per-suite case and pass counts on every
   workload, equal to the pinned ones.

Takes a few minutes; exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

REPORT_LINES = 261
REPORT_SHA256 = "38fdd281dd848caf8f1d5b47a55fb857708d8696dd7026e4587f2abb52821253"


def _canonical_report(root: Path, env: dict, work: Path) -> list[str]:
    from engelfit.report import parse_report

    path = work / "small-std-all-report.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "engelfit", "run", "--suite", "all",
         "--corpus", "builtin:small-std", "--report", str(path)],
        cwd=root, env=env, stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        return [f"engelfit run exited with code {proc.returncode}"]
    data = path.read_bytes()
    problems = []
    lines = data.decode().count("\n")
    if lines != REPORT_LINES:
        problems.append(f"report has {lines} lines, expected {REPORT_LINES}")
    digest = hashlib.sha256(data).hexdigest()
    if digest != REPORT_SHA256:
        problems.append(f"report sha256 {digest}, expected {REPORT_SHA256}")
    counts = {s.suite: (s.cases, s.passes) for s in parse_report(data.decode()).suites}
    for workload in WORKLOADS.values():
        if workload.exclude:
            continue  # its corpus is a subset; its counts are checked in step 3
        for suite, expected in workload.counts.items():
            if counts.get(suite) != expected:
                problems.append(f"{workload.name}/{suite}: report counts "
                                f"{counts.get(suite)} != pinned {expected}")
    return problems


def _seed_zero_is_identity(work: Path) -> list[str]:
    import seeded
    from engelfit.corpus import load_corpus, small_std

    directory = work / "seed0"
    seeded.write_corpus(directory, 0)
    loaded = {e.name: e for e in load_corpus(directory)}
    problems = []
    for entry in small_std():
        other = loaded.get(entry.name)
        if other is None or other.group.fingerprint != entry.group.fingerprint:
            problems.append(f"seed 0 changes the group of {entry.name}")
        elif [(n, a.mapping) for n, a in other.automorphisms] != \
                [(n, a.mapping) for n, a in entry.automorphisms]:
            problems.append(f"seed 0 changes the automorphisms of {entry.name}")
    return problems


def _seed_counts(root: Path, env: dict, work: Path, seeds: tuple[int, int]) -> list[str]:
    import seeded

    problems = []
    for workload in WORKLOADS.values():
        per_seed = []
        for seed in seeds:
            directory = work / f"{workload.name}-{seed}"
            seeded.write_corpus(directory, seed, workload.exclude)
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), workload.name,
                 str(directory), "untraced"],
                cwd=root, env=env, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            per_seed.append(result["counts"])
            problems += [f"{workload.name} seed {seed}: {r}" for r in result["reasons"]]
        if per_seed[0] != per_seed[1]:
            problems.append(f"{workload.name}: seeds {seeds} give counts "
                            f"{per_seed[0]} and {per_seed[1]}")
        print(f"{workload.name}: seeds {seeds} counts {per_seed[0]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed compared with seed 0 (default: 1)")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "engelfit" / "__init__.py").is_file():
        print("perfbench: run from the root of an engelfit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    (root / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="check-", dir=root / ".perfbench"))
    try:
        checks = [
            ("canonical small-std report", lambda: _canonical_report(root, env, work)),
            ("seed 0 is the identity", lambda: _seed_zero_is_identity(work)),
            ("counts independent of the seed",
             lambda: _seed_counts(root, env, work, (0, args.seed))),
        ]
        failed = False
        for label, check in checks:
            problems = check()
            print(f"{'FAIL' if problems else 'ok'}: {label}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
