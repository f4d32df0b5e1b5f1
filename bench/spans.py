"""Spans around the calls into each dominantk layer, for the traced run.

Each public function a workload reaches is wrapped at the attribute its
caller looks up: methods on their class, module functions on the module
whose code calls them by global name.  A name bound elsewhere by
``from ... import`` (``weyl_group``, ``_chains``) is not reached by patching
its origin, which is why the table in ``install`` names the caller-side
attribute.  Spans live in memory and are written out when the run ends.

Every ``_s`` metric is a self time: a span's duration minus the part its
child spans cover, summed over the spans of that name, so the layer times
add up to the covered part of ``wall_s`` without double counting.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types

#: per-layer metric -> (unit, better, the end-to-end metric and workload it
#: should move).  BENCHMARK.json lists the same names, units and directions.
LAYER_METRICS = {
    "gcm.classify_s": ("s", "lower", "setup_s on every workload"),
    "coxeter.ball_s": ("s", "lower", "wall_s and peak_rss_mb on e10_characters"),
    "coxeter.elements": ("count", "lower", "wall_s and peak_rss_mb on e10_characters"),
    "coxeter.bytes_per_element": ("B", "lower", "peak_rss_mb on e10_characters"),
    "coxeter.coset_s": ("s", "lower", "wall_s on e10_report, not sector_homology"),
    "coxeter.coset_calls": ("count", "lower", "wall_s on e10_report"),
    "coxeter.coset_reps": ("count", "lower", "wall_s on e10_report"),
    "coxeter.coset_yield": ("ratio", "higher", "wall_s on e10_report"),
    "coxeter.pure_s": ("s", "lower", "wall_s on e10_report, not sector_homology"),
    "coxeter.pure_reps": ("count", "lower", "wall_s on e10_report"),
    "weights.act_s": ("s", "lower", "wall_s on e10_characters"),
    "weights.act_calls": ("count", "lower", "wall_s on e10_characters"),
    "characters.numerator_s": ("s", "lower", "wall_s on e10_characters"),
    "characters.divide_s": ("s", "lower", "wall_s on e10_characters"),
    "characters.divide_calls": ("count", "lower", "wall_s on e10_characters"),
    "characters.quotient_terms": ("count", "lower", "wall_s on e10_characters"),
    "davis.truncation_s": ("s", "lower", "wall_s on sector_homology"),
    "davis.scan_s": ("s", "lower", "wall_s on sector_homology"),
    "davis.cochain_s": ("s", "lower", "wall_s on sector_homology"),
    "davis.cells": ("count", "lower", "wall_s on sector_homology"),
    "davis.frontier_cells": ("count", "lower", "wall_s on sector_homology"),
    "intlinalg.snf_truncation_s": ("s", "lower", "wall_s on sector_homology"),
    "intlinalg.snf_oracle_s": ("s", "lower", "wall_s on sector_homology"),
    "intlinalg.snf_calls": ("count", "lower", "wall_s on sector_homology"),
    "intlinalg.snf_nnz": ("count", "lower", "wall_s on sector_homology"),
    "intlinalg.snf_rank": ("count", "lower", "wall_s on sector_homology"),
    "ktheory.report_s": ("s", "lower", "wall_s on e10_report"),
    "ktheory.functor_s": ("s", "lower", "wall_s on sector_homology"),
    "ktheory.oracle_s": ("s", "lower", "wall_s on sector_homology"),
    "ktheory.oracle_basis": ("count", "lower", "wall_s on sector_homology"),
    "trace.wall_s": ("s", "lower", "wall_s of the traced run"),
    "trace.uncovered_frac": ("ratio", "lower", "share of traced wall_s outside every span"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s"),
}

#: spans whose smith_invariants children are split into the two SNF metrics
_SNF_PARENTS = {"davis.cochain": "truncation", "ktheory.oracle": "oracle"}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, span, args, result)
            return result

        return traced

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def parent_name(self, span: list) -> str | None:
        return self.spans[span[3]][0] if span[3] >= 0 else None

    def write(self, path: str) -> None:
        with open(path, "a") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


# -- counters read at the layer boundary -------------------------------------------


def _ball(tracer, span, args, result):
    tracer.counts["coxeter.elements"] = max(tracer.counts.get("coxeter.elements", 0), len(result))
    if tracer.parent_name(span) == "coxeter.coset":
        tracer.add("coxeter.coset_offered", len(result))


def _coset(tracer, span, args, result):
    tracer.add("coxeter.coset_reps", len(result))


def _pure(tracer, span, args, result):
    tracer.add("coxeter.pure_reps", len(result))


def _divide(tracer, span, args, result):
    tracer.add("characters.quotient_terms", len(result))


def _truncation(tracer, span, args, result):
    complex_, frontier = result
    tracer.add("davis.cells", sum(complex_.f_vector()))
    tracer.add("davis.frontier_cells", sum(frontier.f_vector()))


def _snf(tracer, span, args, result):
    rows = args[0]
    values = (row.values() if isinstance(row, dict) else row for row in rows)
    tracer.add("intlinalg.snf_nnz", sum(1 for vals in values for v in vals if v))
    tracer.add("intlinalg.snf_rank", len(result))


def _oracle(tracer, span, args, result):
    tracer.add("ktheory.oracle_basis", sum(len(b) for b in args[1].basis.values()))


def install(tracer: Tracer) -> None:
    from dominantk import characters, davis, intlinalg, ktheory
    from dominantk.coxeter import WeylGroup
    from dominantk.weights import Realization

    patches = [
        (WeylGroup, "ball", "coxeter.ball", _ball),
        (WeylGroup, "min_coset_reps", "coxeter.coset", _coset),
        (WeylGroup, "pure_reps", "coxeter.pure", _pure),
        (Realization, "act", "weights.act", None),
        (characters, "weyl_numerator", "characters.numerator", None),
        (characters, "exact_divide", "characters.divide", _divide),
        (davis, "davis_truncation", "davis.truncation", _truncation),
        (davis, "sector_filtration_cohomology", "davis.scan", None),
        (davis, "snf_cohomology", "davis.cochain", None),
        (intlinalg, "smith_invariants", "intlinalg.snf", _snf),
        (ktheory, "extended_type_report", "ktheory.report", None),
        (ktheory, "compact_type_report", "ktheory.report", None),
        (ktheory, "k_homology_report", "ktheory.report", None),
        (ktheory, "strata_limit_functor", "ktheory.functor", None),
        (ktheory, "strata_colimit_functor", "ktheory.functor", None),
        (ktheory, "derived_limit_oracle", "ktheory.oracle", _oracle),
    ]
    for owner, attr, name, observe in patches:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, observe))


# -- metrics derived from the spans ------------------------------------------------


def layer_metrics(tracer: Tracer, start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of the workload that ran from ``start`` to ``end``:
    ``<span>_s`` is the self time and ``<span>_calls`` the number of spans of
    that name; other names are counters kept by the observers."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for _, s, e, parent in spans:
        if parent >= 0:
            child_s[parent] += e - s
    totals: dict[str, float] = dict(tracer.counts)
    covered = 0.0
    for i, (name, s, e, parent) in enumerate(spans):
        if parent < 0 and s >= start:
            covered += e - s
        totals[name + "_calls"] = totals.get(name + "_calls", 0) + 1
        if name == "intlinalg.snf":
            while parent >= 0 and spans[parent][0] not in _SNF_PARENTS:
                parent = spans[parent][3]
            name += "_" + (_SNF_PARENTS[spans[parent][0]] if parent >= 0 else "other")
        totals[name + "_s"] = totals.get(name + "_s", 0.0) + e - s - child_s[i]
    offered = totals.get("coxeter.coset_offered", 0)
    totals["coxeter.coset_yield"] = totals.get("coxeter.coset_reps", 0) / offered if offered else 0.0
    totals["trace.wall_s"] = end - start
    totals["trace.uncovered_frac"] = (end - start - covered) / (end - start)
    # bytes_per_element is computed by the caller, overhead_s across repetitions
    return {name: totals.get(name, 0) for name in LAYER_METRICS
            if name not in ("coxeter.bytes_per_element", "trace.overhead_s")}


def retained_bytes(root, exclude=()) -> int:
    """Bytes of every object reachable from ``root``, each counted once
    (computed with ``sys.getsizeof``, not measured from the allocator)."""
    seen = {id(x) for x in exclude}
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            for klass in type(obj).__mro__:
                slots = getattr(klass, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)
    return total
