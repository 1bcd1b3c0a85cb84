"""Layer tracing from outside the program.

``SpanTracer`` wraps public functions of each engelfit layer, patching
every module binding that refers to them, and keeps one span per call
(name, start, end, parent) in memory.  Self time is a span's duration
minus the durations of its child spans; calls are synchronous, so the
children of one span never overlap.

``PermCounter`` wraps the ``Permutation`` operations in a separate pass:
they run tens of millions of times, and their wrapper cost would
otherwise land in the self time of every other layer.

A traced name that a later version of the program no longer has is
skipped and its metrics read 0.
"""

from __future__ import annotations

import sys
import time
from array import array

# (span name, module, attribute); the span name is "<layer>.<function>".
TRACED_FUNCTIONS = (
    ("group.generated_by", "engelfit.group", "generated_by"),
    ("subgrp.normal_closure", "engelfit.subgrp", "normal_closure"),
    ("subgrp.normal_subgroups", "engelfit.subgrp", "normal_subgroups"),
    ("subgrp.quotient", "engelfit.subgrp", "quotient"),
    ("subgrp.is_subnormal", "engelfit.subgrp", "is_subnormal"),
    ("series.generalized_fitting", "engelfit.series", "generalized_fitting"),
    ("series.layer", "engelfit.series", "layer"),
    ("series.fitting_subgroup", "engelfit.series", "fitting_subgroup"),
    ("series.upper_insoluble_series", "engelfit.series", "upper_insoluble_series"),
    ("series.gen_fitting_height", "engelfit.series", "gen_fitting_height"),
    ("series.insoluble_length", "engelfit.series", "insoluble_length"),
    ("engel.engel_chain", "engelfit.engel", "engel_chain"),
    ("engel.baer_membership", "engelfit.engel", "baer_membership"),
    ("engel.commutator_descent", "engelfit.engel", "commutator_descent"),
    ("engel.j_set", "engelfit.engel", "j_set"),
    ("zipper.all_subgroups", "engelfit.zipper", "all_subgroups"),
    ("zipper.zipper_case", "engelfit.zipper", "zipper_case"),
    ("corpus.load", "engelfit.corpus", "load_corpus"),
    ("suites.entry", "engelfit.suites", "_run_entry"),
)

# Spans reported as "<span name>_calls" and as "<span name>_s" (self time).
CALL_METRICS = ("group.generated_by", "subgrp.normal_closure", "subgrp.quotient",
                "series.gen_fitting_height", "series.insoluble_length",
                "engel.engel_chain", "engel.baer_membership",
                "engel.commutator_descent", "engel.j_set", "zipper.zipper_case")
SELF_TIME_METRICS = ("group.generated_by", "group.conjugacy_classes",
                     "group.fingerprint", "subgrp.normal_closure",
                     "subgrp.normal_subgroups", "subgrp.quotient",
                     "subgrp.is_subnormal", "series.generalized_fitting",
                     "series.layer", "series.fitting_subgroup",
                     "series.upper_insoluble_series", "engel.engel_chain",
                     "engel.baer_membership", "engel.commutator_descent",
                     "zipper.all_subgroups", "zipper.zipper_case")


def _rebind(original, replacement) -> None:
    """Point every engelfit module binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "engelfit" and not name.startswith("engelfit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class SpanTracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self.closure_elements = 0
        self.lattice_members = 0
        self._lattices: set[int] = set()
        self._generated_sets: set[frozenset] = set()
        self.generated_repeats = 0

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(result)` sees each result."""
        name_id = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_generated_by(self, handle) -> None:
        elements = handle.elements()
        if elements in self._generated_sets:
            self.generated_repeats += 1
        else:
            self._generated_sets.add(elements)

    def _after_all_subgroups(self, lattice) -> None:
        if id(lattice) not in self._lattices:
            self._lattices.add(id(lattice))
            self.lattice_members += len(lattice.members)

    def install(self):
        """Wrap the traced layer functions; returns the traced load_corpus."""
        import importlib

        import engelfit  # noqa: F401  (imports every layer module)

        after = {"group.generated_by": self._after_generated_by,
                 "zipper.all_subgroups": self._after_all_subgroups}
        for span_name, module_name, attr in TRACED_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; skipped", file=sys.stderr)
                continue
            _rebind(original, self.wrap(span_name, original, after.get(span_name)))

        group_module = sys.modules["engelfit.group"]
        closure = getattr(group_module, "_bfs_closure", None)
        if closure is not None:
            def counted_closure(*args, **kwargs):
                result = closure(*args, **kwargs)
                self.closure_elements += len(result)
                return result
            _rebind(closure, counted_closure)

        handle = group_module.GroupHandle
        handle.conjugacy_classes = self.wrap("group.conjugacy_classes",
                                             handle.conjugacy_classes)
        fingerprint = handle.fingerprint.fget
        hashed = self.wrap("group.fingerprint", fingerprint)

        def traced_fingerprint(group):
            # only the first access hashes; later ones read a cached digest
            if getattr(group, "_fingerprint", None) is None:
                return hashed(group)
            return fingerprint(group)

        handle.fingerprint = property(traced_fingerprint, doc=handle.fingerprint.__doc__)
        return sys.modules["engelfit.corpus"].load_corpus

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total self seconds, total seconds)."""
        child_total = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child_total[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(len(self.start)):
            n = self.name_of[i]
            duration = self.end[i] - self.start[i]
            calls[n] += 1
            self_s[n] += duration - child_total[i]
            total_s[n] += duration
        return {name: (calls[i], self_s[i], total_s[i])
                for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        stats = self.self_times()

        def get(name):
            return stats.get(name, (0, 0.0, 0.0))

        out: dict[str, float] = {}
        for name in CALL_METRICS:
            out[f"{name}_calls"] = get(name)[0]
        for name in SELF_TIME_METRICS:
            out[f"{name}_s"] = get(name)[1]
        generated = get("group.generated_by")[0]
        out["group.generated_by_repeat_ratio"] = (
            self.generated_repeats / generated if generated else 0.0)
        out["group.closure_elements"] = self.closure_elements
        out["zipper.lattice_members"] = self.lattice_members
        out["corpus.load_s"] = get("corpus.load")[2]
        entries = [self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.names[self.name_of[i]] == "suites.entry"]
        out["suites.slowest_entry_share"] = (
            max(entries) / sum(entries) if entries else 0.0)
        return out


class PermCounter:
    """Counts calls of Permutation.__mul__, .conjugate and .inverse."""

    OPERATIONS = (("perm.mul_calls", "__mul__"),
                  ("perm.conjugate_calls", "conjugate"),
                  ("perm.inverse_calls", "inverse"))

    def __init__(self):
        self.counts = [0] * len(self.OPERATIONS)

    def install(self) -> None:
        from engelfit.perm import Permutation

        for slot, (_, attr) in enumerate(self.OPERATIONS):
            setattr(Permutation, attr, self._counted(slot, getattr(Permutation, attr)))

    def _counted(self, slot: int, fn):
        counts = self.counts

        def counted(*args):
            counts[slot] += 1
            return fn(*args)

        return counted

    def metrics(self) -> dict[str, int]:
        return {name: self.counts[slot]
                for slot, (name, _) in enumerate(self.OPERATIONS)}
