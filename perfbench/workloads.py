"""The benchmark's workloads and the canonical counts every run must reproduce.

Each workload is a closed loop: one fresh process runs the workload's
suites over its seeded corpus, and the next starts only after it exits.
Why each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suites: tuple[str, ...]
    exclude: tuple[str, ...]  # small-std entries left out of the corpus
    jobs: int                 # worker processes in timed runs
    # suite -> (cases, passes), identical for every seed (relabelling is an
    # isomorphism), taken from `engelfit run --suite all` over builtin:small-std
    counts: dict[str, tuple[int, int]]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="element-scan",
            suites=("baer", "thm11", "thm12", "cor15"),
            exclude=("s6", "s7"),
            jobs=1,
            counts={"baer": (1463, 1463), "thm11": (3467, 3467),
                    "thm12": (2613, 2613), "cor15": (1463, 1463)}),
        Workload(
            name="lattice",
            suites=("thm13",),
            exclude=(),
            jobs=1,
            counts={"thm13": (1229, 1229)}),
        Workload(
            name="structure",
            suites=("thmE", "thmJ", "cor19", "lem31", "engine-crosschecks"),
            exclude=(),
            jobs=2,
            counts={"thmE": (11, 11), "thmJ": (11, 11), "cor19": (11, 11),
                    "lem31": (11, 11), "engine-crosschecks": (63, 63)}),
    )
}
