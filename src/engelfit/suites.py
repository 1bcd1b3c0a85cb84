"""Theorem suites: per-group checks, orchestration, and parallel execution."""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .corpus import CorpusEntry
from .engel import (AutomorphismMap, baer_membership,
                    centralizer_intersection_check, commutator_descent,
                    engel_chain, j_set)
from .errors import ConsistencyError, ResourceLimitError
from .group import ELEMENT_CAP, GroupHandle, clear_derived, derived
from .perm import Permutation
from .report import GroupSummary, SuiteResult, VerdictReport, Violation
from .series import (_gen_fitting_by_socle, fitting_height, fitting_subgroup,
                     gen_fitting_height, gen_fitting_series,
                     generalized_fitting, insoluble_length, layer, odd_core,
                     soluble_radical, upper_insoluble_series)
from .subgrp import (is_normal_in, is_soluble, is_subnormal, normal_closure,
                     normal_subgroups, pull_back, quotient)
from .zipper import (LATTICE_ORDER_CAP, SubgroupLattice, all_subgroups,
                     zipper_case)

__all__ = ["Caps", "SUITE_ORDER", "SUITE_STATEMENTS", "run_suites", "analyze_text"]

SUITE_ORDER = ("baer", "thm11", "thm12", "thm13", "thmE", "cor15",
               "thmJ", "cor19", "lem31", "engine-crosschecks")

SUITE_STATEMENTS = {
    "baer": "iterated commutation with x collapses to the identity exactly "
            "when x lies in the Fitting subgroup",
    "thm11": "membership of x above the h-th generalized Fitting term matches "
             "min-k generalized Fitting height of the generated Engel subgroups",
    "thm12": "membership of x in the h-th upper insoluble term matches min-k "
             "insoluble length of the generated Engel subgroups",
    "thm13": "a subgroup whose conjugates generate either joins to the whole "
             "group through self-closing overgroups or lies in a unique maximal subgroup",
    "thmE": "when [G,a] = G the k-fold commutator sets generate the whole "
            "group for every k",
    "cor15": "generated Engel subgroups are subnormal, both stable terms agree, "
             "and the minimal heights are attained at the stable term",
    "thmJ": "for involutory a with [G,a] = G the commutator sets beyond the "
            "2-part exponent equal the inverted odd-order set, which generates G",
    "cor19": "the index of the Fitting subgroup is below the fourth power of "
             "the factorial of the inverted odd-order set size",
    "lem31": "the intersection of the fixed-point subgroup's conjugates over "
             "the inverted odd-order set is the central part of the fixed points",
    "engine-crosschecks": "independent algorithm pairs agree: generalized "
                          "Fitting routes, upper insoluble recurrence, "
                          "subnormality versus exhaustive chain search, "
                          "pinned known values",
}

T = TypeVar("T")

REGULAR_QUOTIENT_CAP = 500
EXHAUSTIVE_CAP = 2_000
EXHAUSTIVE_SEARCH_CAP = 100


@dataclass(frozen=True)
class Caps:
    """Resource limits shared by all suites."""

    max_order: int = ELEMENT_CAP
    lattice_max_order: int = LATTICE_ORDER_CAP
    k_cap: Optional[int] = None
    jobs: int = 1
    crosschecks: bool = True


@dataclass
class _Outcome:
    """One suite's tally on one corpus entry.

    Each case is either a pass or exactly one violation; ``violation``
    alone records a failed check that is not a case.  Detail values are
    rendered with ``str``, which is cycle notation for a permutation.
    """

    suite: str
    entry: str
    cases: int = 0
    passes: int = 0
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    resource_hit: bool = False

    def record(self, ok: bool, **detail) -> None:
        self.cases += 1
        if ok:
            self.passes += 1
        else:
            self.violation(**detail)

    def violation(self, **detail) -> None:
        self.violations.append(Violation(
            self.suite, self.entry, tuple((k, str(v)) for k, v in detail.items())))


def _sample_elements(entry: CorpusEntry,
                     notes: list[str]) -> Iterator[tuple[Permutation, Permutation]]:
    """Pairs (x, representative of x's class), in sorted order of x.

    Every element when the group is small; beyond the exhaustive cap each
    class representative with itself (with a note saying so).

    Conjugation by g in G carries the Engel sets [G,_k x] onto [G,_k x^g],
    the subgroups they generate and the descent terms of x onto those of
    x^g, and fixes F(G), F*_h(G) and R_h(G), which are normal.  So the
    Baer test and every per-element fact is a class function, and its
    value at the class representative is its value at x.
    """
    group = entry.group
    classes = group.conjugacy_classes()
    if group.order > EXHAUSTIVE_CAP:
        notes.append(f"group {entry.name}: order {group.order} exceeds exhaustive cap "
                     f"{EXHAUSTIVE_CAP}; checked {len(classes)} class representatives")
        for rep in classes.representatives:
            yield rep, rep
        return
    for x in group.sorted_elements():
        yield x, classes.representative_of[x]


def _by_class(pairs: Iterable[tuple[T, T]], caps: Caps, fact: partial,
              label: Callable[[T], str] = str) -> Iterator[tuple[T, object]]:
    """Pairs (x, fact(x)) for each (x, representative of x's class) in
    `pairs`, evaluating the class function `fact` once per class.

    With crosschecks on, the first non-representative met in each class
    of size > 1 is evaluated as well; a disagreement is an engine bug,
    named by `label`.
    """
    values: dict[T, object] = {}
    spot_checked: set[T] = set()
    for x, rep in pairs:
        if rep not in values:
            values[rep] = fact(rep)
        if caps.crosschecks and x != rep and rep not in spot_checked:
            spot_checked.add(rep)
            if fact(x) != values[rep]:
                raise ConsistencyError(
                    f"{fact.func.__name__} differs between {label(x)} and its class "
                    f"representative {label(rep)}")
        yield x, values[rep]


# Per-element Engel facts are shared by the baer/thm11/thm12/cor15 suites.
@dataclass(frozen=True)
class _ElementFacts:
    reaches_identity: bool
    min_hstar: int
    min_lambda: int
    subnormal_all: bool
    stable_terms_equal: bool
    min_hstar_at_stable: bool
    min_lambda_at_stable: bool


@derived
def _element_facts(group: GroupHandle, x: Permutation, caps: Caps) -> _ElementFacts:
    chain = engel_chain(group, x, k_cap=caps.k_cap)
    distinct: dict[frozenset[Permutation], GroupHandle] = {}
    for h in chain.generated:
        distinct.setdefault(h.elements(), h)
    if not distinct:  # trivial group: E_1 duplicates E_0 immediately
        distinct[group.elements()] = group
    hstars = [gen_fitting_height(h) for h in distinct.values()]
    lambdas = [insoluble_length(h) for h in distinct.values()]
    return _ElementFacts(
        reaches_identity=chain.reaches_identity(),
        min_hstar=min(hstars),
        min_lambda=min(lambdas),
        subnormal_all=all(is_subnormal(h, group) for h in distinct.values()),
        stable_terms_equal=commutator_descent(group, x)[-1].same_elements(chain.stable_k),
        min_hstar_at_stable=min(hstars) == gen_fitting_height(chain.stable_k),
        min_lambda_at_stable=min(lambdas) == insoluble_length(chain.stable_k),
    )


def _facts_by_class(entry: CorpusEntry, caps: Caps,
                    notes: list[str]) -> Iterator[tuple[Permutation, _ElementFacts]]:
    return _by_class(_sample_elements(entry, notes), caps,
                     partial(_element_facts, entry.group, caps=caps))


def _suite_baer(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    fitting = fitting_subgroup(group)
    collapses = partial(baer_membership, group, k_cap=caps.k_cap)
    for x, left in _by_class(_sample_elements(entry, out.notes), caps, collapses):
        right = fitting.contains(x)
        out.record(left == right, x=x, engel_collapses=left, in_fitting=right)


def _suite_thm11(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    height = gen_fitting_height(group)
    terms = gen_fitting_series(group)
    # fit_above[h] is the preimage of F(G / F*_h); membership of x there is
    # the left side of the equivalence at height h.
    trivial = GroupHandle.trivial(group.degree)
    fit_above = [pull_back(group, t, fitting_subgroup) for t in (trivial, *terms)]
    for x, facts in _facts_by_class(entry, caps, out.notes):
        for h in range(height + 1):
            left = fit_above[h].contains(x)
            out.record(left == (facts.min_hstar <= h), x=x, h=h,
                       above_term=left, min_height=facts.min_hstar)


def _suite_thm12(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    lam = insoluble_length(group)
    r_terms = upper_insoluble_series(group, lam)
    for x, facts in _facts_by_class(entry, caps, out.notes):
        for h in range(lam + 1):
            left = r_terms[h].contains(x)
            out.record(left == (facts.min_lambda <= h), x=x, h=h,
                       in_upper_term=left, min_length=facts.min_lambda)


def _suite_cor15(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    for x, facts in _facts_by_class(entry, caps, out.notes):
        problems = []
        if not facts.subnormal_all:
            problems.append("generated Engel subgroup not subnormal")
        if not facts.stable_terms_equal:
            problems.append("descent and generated stable terms differ")
        if not facts.min_hstar_at_stable:
            problems.append("min generalized Fitting height missed at stable term")
        if not facts.min_lambda_at_stable:
            problems.append("min insoluble length missed at stable term")
        out.record(not problems, x=x, problems="; ".join(problems))


def _zipper_facts(group: GroupHandle, lattice: SubgroupLattice,
                  sub: GroupHandle) -> Optional[tuple[str, tuple[str, ...]]]:
    """The branch and the sorted lemma failures of `sub`'s zipper case, or
    None when thm13 does not apply (`sub` is G, or ⟨sub^G⟩ < G)."""
    if sub.order >= group.order or not normal_closure(sub, group).same_elements(group):
        return None
    case = zipper_case(group, sub, lattice)
    return case.branch, tuple(sorted(case.lemma_failures))


def _generators(sub: GroupHandle) -> str:
    return " ".join(map(str, sub.generators))


def _suite_thm13(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    """One case per proper subgroup A with ⟨A^G⟩ = G, in lattice order.

    Conjugation by g in G permutes the lattice keeping inclusion and
    order, so it maps the maximal subgroups onto the maximal subgroups,
    and it carries ⟨A^H⟩ onto ⟨(A^g)^(H^g)⟩.  So ⟨A^G⟩ = G holds for A
    exactly when it holds for A^g, and the self-closing overgroups, their
    join, the maximal overgroups and their descents for A^g are the
    images of those for A.  Every lemma failure mentions only orders and
    indices, so the filter, the branch and the lemma failures are class
    functions, evaluated once per class of subgroups on its first member
    in lattice order; the spot check takes its second.  The failures are
    sorted because they come in the fingerprint order of the maximal
    overgroups, which conjugation does not keep.
    """
    group = entry.group
    if group.order > caps.lattice_max_order:
        out.notes.append(f"group {entry.name}: order {group.order} exceeds "
                         f"lattice cap {caps.lattice_max_order}; skipped")
        return
    lattice = all_subgroups(group, max_order=caps.lattice_max_order)
    pairs = ((sub, lattice.representative_of[sub.elements()]) for sub in lattice.members)
    fact = partial(_zipper_facts, group, lattice)
    for sub, facts in _by_class(pairs, caps, fact, lambda h: f"<{_generators(h)}>"):
        if facts is None:
            continue
        branch, failures = facts
        out.record(branch != "dichotomy_failed" and not failures,
                   subgroup=_generators(sub), branch=branch,
                   lemma_failures="; ".join(failures) or "none")


def _whole_descent_automorphisms(
        entry: CorpusEntry, notes: Optional[list[str]], *,
        involutory: bool) -> Iterator[tuple[str, AutomorphismMap]]:
    """The entry's automorphisms a (only involutions when ``involutory``)
    with [G,a] = G; each other one is skipped with a note when ``notes``
    is given.  Lazy, so skip notes interleave with the caller's own."""
    group = entry.group
    for name, alpha in entry.automorphisms:
        if involutory and not alpha.is_involution():
            continue
        if commutator_descent(group, alpha)[-1].same_elements(group):
            yield name, alpha
        elif notes is not None:
            notes.append(f"group {entry.name}: automorphism {name} has "
                         f"[G,a] smaller than G; skipped")


def _suite_thmE(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    for name, alpha in _whole_descent_automorphisms(entry, out.notes, involutory=False):
        chain = engel_chain(group, alpha, k_cap=caps.k_cap)
        bad = [k + 1 for k, h in enumerate(chain.generated)
               if not h.same_elements(group)]
        out.record(not bad, automorphism=name, failing_k=",".join(map(str, bad)))


def _suite_thmJ(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    for name, alpha in _whole_descent_automorphisms(entry, out.notes, involutory=True):
        report = j_set(group, alpha)
        chain = engel_chain(group, alpha, k_cap=caps.k_cap)
        k = report.two_exponent
        problems = []
        for j in chain.indices_attained_beyond(k):
            if chain.sets[j] != report.j_elements:
                problems.append(f"commutator set at step {j} differs from the inverted set")
        for j in range(1, len(chain.sets)):
            if not report.j_elements <= chain.sets[j]:
                problems.append(f"inverted set escapes commutator set at step {j}")
        if not report.generated_j.same_elements(group):
            problems.append("inverted odd-order set fails to generate the group")
        out.record(not problems, automorphism=name,
                   j_size=len(report.j_elements), two_part=report.two_part,
                   problems="; ".join(problems))
        if not problems:
            out.notes.append(f"group {entry.name}: automorphism {name}: "
                             f"|J|={len(report.j_elements)} two-part={report.two_part}")


def _suite_cor19(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    for name, alpha in _whole_descent_automorphisms(entry, None, involutory=True):
        index = group.order // fitting_subgroup(group).order
        j_size = len(j_set(group, alpha).j_elements)
        out.record(index < math.factorial(j_size) ** 4, automorphism=name,
                   fitting_index=index, j_size=j_size)


def _suite_lem31(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    for name, alpha in _whole_descent_automorphisms(entry, out.notes, involutory=True):
        check = centralizer_intersection_check(group, alpha)
        out.record(check.ok, automorphism=name,
                   intersection_order=check.intersection.order,
                   expected_order=check.expected.order)


def _is_even(p: Permutation) -> bool:
    return sum(len(cycle) - 1 for cycle in p.cycles()) % 2 == 0


_KNOWN_VALUES = {
    # entry name -> list of (label, callable(group) -> bool)
    "s4": [
        ("fitting subgroup is the Klein four-group",
         lambda g: sorted(fitting_subgroup(g).elements()) ==
         sorted(x for x in g.elements()
                if x.is_identity() or (x.order() == 2 and len(x.moved_points()) == 4))),
        ("generalized Fitting height is 3", lambda g: gen_fitting_height(g) == 3),
        ("normal lattice has 4 members", lambda g: len(normal_subgroups(g)) == 4),
    ],
    "s5": [
        ("generalized Fitting subgroup is the even half",
         lambda g: generalized_fitting(g).order == 60 and
         all(_is_even(x) for x in generalized_fitting(g).elements())),
        ("insoluble length is 1", lambda g: insoluble_length(g) == 1),
    ],
}


def _gen_fitting_dual_error(group: GroupHandle) -> Optional[str]:
    """The disagreement of the two generalized Fitting routes, if any."""
    product, socle = generalized_fitting(group), _gen_fitting_by_socle(group)
    if socle.same_elements(product):
        return None
    return (f"generalized Fitting subgroup mismatch: product route has order "
            f"{product.order}, socle route has order {socle.order}")


def _suite_crosschecks(entry: CorpusEntry, caps: Caps, out: _Outcome) -> None:
    group = entry.group
    error = _gen_fitting_dual_error(group)
    out.record(error is None, check="gen-fitting-dual", error=error)

    lam = insoluble_length(group)
    r_terms = upper_insoluble_series(group, lam)
    for i in range(lam):
        if r_terms[i].is_trivial() and group.order > REGULAR_QUOTIENT_CAP:
            out.notes.append(
                f"group {entry.name}: upper-series recurrence at level {i} "
                f"skipped (trivial term would need a degree-{group.order} regular action)")
            continue
        q = quotient(group, r_terms[i])
        r1_image = upper_insoluble_series(q.image, 1)[1]
        pulled = q.preimage_of(r1_image)
        out.record(pulled.same_elements(r_terms[i + 1]),
                   check="upper-series-recurrence", level=i,
                   pulled_order=pulled.order, expected_order=r_terms[i + 1].order)

    if group.order <= EXHAUSTIVE_SEARCH_CAP:
        mismatch = _subnormal_mismatch(group)
        out.record(mismatch is None, check="subnormality-vs-exhaustive",
                   detail=mismatch)

    for label, check in _KNOWN_VALUES.get(entry.name, []):
        out.record(check(group), check="known-value", value=label)


def _subnormal_mismatch(group: GroupHandle) -> Optional[str]:
    """Compare descent subnormality with exhaustive chain search over the lattice."""
    lattice = all_subgroups(group, max_order=EXHAUSTIVE_SEARCH_CAP)
    handles = lattice.members
    sets = [h.elements() for h in handles]
    normal_in: dict[tuple[int, int], bool] = {}

    def normal(a: int, b: int) -> bool:
        key = (a, b)
        if key not in normal_in:
            normal_in[key] = is_normal_in(handles[a], handles[b])
        return normal_in[key]

    for b, big in enumerate(handles):
        inside = [a for a in range(len(handles)) if sets[a] <= sets[b]]
        for a in inside:
            # breadth-first search for a chain a ⊴ ... ⊴ b through the lattice
            reachable = {a}
            frontier = [a]
            while frontier:
                cur = frontier.pop()
                for up in inside:
                    if up not in reachable and sets[cur] <= sets[up] and normal(cur, up):
                        reachable.add(up)
                        frontier.append(up)
            exhaustive = b in reachable
            decided = is_subnormal(handles[a], big)
            if exhaustive != decided:
                return (f"pair orders ({handles[a].order}, {big.order}): "
                        f"descent={decided} exhaustive={exhaustive}")
    return None


_SUITE_FNS: dict[str, Callable[[CorpusEntry, Caps, _Outcome], None]] = {
    "baer": _suite_baer,
    "thm11": _suite_thm11,
    "thm12": _suite_thm12,
    "thm13": _suite_thm13,
    "thmE": _suite_thmE,
    "cor15": _suite_cor15,
    "thmJ": _suite_thmJ,
    "cor19": _suite_cor19,
    "lem31": _suite_lem31,
    "engine-crosschecks": _suite_crosschecks,
}


def _run_entry(entry: CorpusEntry, suite_ids: tuple[str, ...],
               caps: Caps) -> dict[str, _Outcome]:
    """Each suite's outcome on one entry, starting from an empty memo with
    only the entry's elements interned, in this process or a worker."""
    clear_derived(keep=entry.group.elements())
    results: dict[str, _Outcome] = {}
    for suite in suite_ids:
        out = _Outcome(suite, entry.name)
        if entry.group.order > caps.max_order:
            out.notes.append(f"group {entry.name}: order {entry.group.order} "
                             f"exceeds max order {caps.max_order}; skipped")
            results[suite] = out
            continue
        try:
            _SUITE_FNS[suite](entry, caps, out)
            if caps.crosschecks and suite != "engine-crosschecks":
                error = _gen_fitting_dual_error(entry.group)
                if error is not None:
                    out.violation(check="gen-fitting-dual", error=error)
        except ResourceLimitError as exc:
            # partial counts are dropped: the suite reports only the cap
            out = _Outcome(suite, entry.name, resource_hit=True)
            out.notes.append(f"group {entry.name}: resource limit: {exc}")
        except ConsistencyError as exc:
            raise ConsistencyError(f"group {entry.name}: suite {suite}: {exc}") from exc
        results[suite] = out
    return results


def run_suites(suite_ids: Iterable[str], entries: list[CorpusEntry],
               caps: Caps, corpus_name: str) -> VerdictReport:
    """Run the selected suites over a corpus and assemble the verdict report.

    Work is split per corpus entry, pickled whole to the workers when
    ``caps.jobs > 1``; results are merged in canonical (suite order, entry
    name) order so reports are identical for any job count.
    """
    suite_ids = tuple(suite_ids)
    started = time.monotonic()
    entries = sorted(entries, key=lambda e: e.name)
    run = partial(_run_entry, suite_ids=suite_ids, caps=caps)
    if caps.jobs > 1 and len(entries) > 1:
        with ProcessPoolExecutor(max_workers=caps.jobs) as pool:
            results = list(pool.map(run, entries))  # in input order
    else:
        results = [run(entry) for entry in entries]
    per_entry = {e.name: outs for e, outs in zip(entries, results)}

    suite_results = []
    for suite in suite_ids:
        outs = [per_entry[entry.name][suite] for entry in entries]
        suite_results.append(SuiteResult(
            suite=suite, statement=SUITE_STATEMENTS[suite],
            cases=sum(o.cases for o in outs), passes=sum(o.passes for o in outs),
            violations=tuple(v for o in outs for v in o.violations),
            notes=tuple(n for o in outs for n in o.notes),
            resource_hit=any(o.resource_hit for o in outs)))
    groups = tuple(GroupSummary(e.name, e.group.degree, e.group.order,
                                e.group.fingerprint[:16])
                   for e in entries)
    return VerdictReport(corpus=corpus_name, groups=groups,
                         suites=tuple(suite_results),
                         elapsed=time.monotonic() - started)


def analyze_text(entry: CorpusEntry, include_elements: bool = False) -> str:
    """Deterministic profile text for one group (characteristic subgroups,
    series, and optionally per-element Engel facts)."""
    group = entry.group
    lines = [f"group {entry.name}",
             f"  degree {group.degree}",
             f"  order {group.order}",
             f"  fitting-order {fitting_subgroup(group).order}",
             f"  layer-order {layer(group).order}",
             f"  generalized-fitting-order {generalized_fitting(group).order}",
             f"  soluble-radical-order {soluble_radical(group).order}",
             f"  odd-core-order {odd_core(group).order}",
             f"  fitting-height {fitting_height(group) if is_soluble(group) else 'n/a'}",
             f"  generalized-fitting-height {gen_fitting_height(group)}",
             f"  insoluble-length {insoluble_length(group)}"]
    series = gen_fitting_series(group)
    lines.append("  generalized-fitting-series " +
                 (" < ".join(str(t.order) for t in series) or "(empty)"))
    r = upper_insoluble_series(group)
    lines.append("  upper-insoluble-series " +
                 " <= ".join(str(t.order) for t in r))
    if include_elements:
        notes: list[str] = []
        scanned = list(_facts_by_class(entry, Caps(), notes))
        lines.extend(f"  note {note}" for note in notes)
        for x, facts in scanned:
            lines.append(f"  element {x} engel-collapse "
                         f"{'yes' if facts.reaches_identity else 'no'} "
                         f"min-height {facts.min_hstar} min-length {facts.min_lambda}")
    return "\n".join(lines) + "\n"
