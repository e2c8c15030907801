"""Spans around library calls for the traced pass, and the per-layer metrics.

``Tracer.installed()`` replaces public functions at the module attribute
through which they are called (``dicregion.lp.maximize`` as ``polytope``
calls it, ``prune_redundant`` as ``hk_region`` and ``theorem_region`` each
imported it, the top-level API as the benchmark calls it) and restores them
on exit.  Each call records a span: name, start, end, parent span, the
instance it belongs to, and the work counts read from its arguments and
result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import dicregion
import dicregion.hk_region
import dicregion.lp
import dicregion.polytope
import dicregion.theorem_region


@dataclass
class Span:
    name: str
    instance: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


def _a_max(args, kwargs):
    spec = args[0]
    a_max = kwargs.get("a_max", args[2] if len(args) > 2 else None)
    return dicregion.theorem_region.default_a_max(spec.K) if a_max is None else a_max


# (module, attribute, span name, counter(args, kwargs, result) -> counts)
_WRAPPED = (
    (dicregion, "validate_injectivity", "channel.validate", None),
    (dicregion, "build_entropy_table", "entropy.build",
     lambda a, kw, r: {"joint_tuples": math.prod(a[0].x_alphabet_sizes)}),
    (dicregion, "build_A1", "hk_region.build_A1",
     lambda a, kw, r: {"rows": len(r.inequalities)}),
    (dicregion, "project_to_aggregate", "hk_region.project", None),
    (dicregion, "enumerate_facets", "theorem_region.enumerate_facets",
     lambda a, kw, r: {"weight_vectors": (_a_max(a, kw) + 1) ** a[0].K - 1}),
    (dicregion, "support_value", "polytope.support_value", None),
    (dicregion.polytope, "find_subset_violation", "polytope.find_subset_violation", None),
    (dicregion.hk_region, "fm_eliminate", "polytope.fm",
     lambda a, kw, r: {"rows_out": len(r.inequalities)}),
    (dicregion.hk_region, "prune_redundant", "polytope.prune",
     lambda a, kw, r: {"rows_in": len(a[0].inequalities), "rows_out": len(r.inequalities)}),
    (dicregion.theorem_region, "prune_redundant", "theorem_region.final_prune",
     lambda a, kw, r: {"rows_in": len(a[0].inequalities)}),
    (dicregion.lp, "maximize", "lp.maximize",
     lambda a, kw, r: {"rows": len(a[1]), r.status: 1}),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, self.instance, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counter is not None:
                    s.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced library function for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in _WRAPPED:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path, header: dict) -> None:
        """One JSON line of run facts, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(vars(s)) + "\n")


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _inside(spans, i, name) -> bool:
    while i >= 0:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def _counts(spans) -> dict:
    """Every count summed as 'span name.count name', plus calls per span name."""
    out: dict = defaultdict(int)
    for s in spans:
        out[s.name + ".calls"] += 1
        for k, v in s.counts.items():
            out[f"{s.name}.{k}"] += v
    return out


def instance_counts(spans) -> dict:
    """The counts of each instance's spans, by instance."""
    by_instance = defaultdict(list)
    for s in spans:
        by_instance[s.instance].append(s)
    return {k: dict(_counts(v)) for k, v in by_instance.items()}


def layer_metrics(spans, n_instances: int, n_setups: int) -> dict:
    """Per-layer metrics: times in seconds per instance (``channel.validate_s``
    per set-up), counts summed over the traced pass."""
    self_s = _self_times(spans)
    total = defaultdict(float)  # inclusive seconds by span name
    own = defaultdict(float)  # self seconds by span name
    counts = _counts(spans)
    compare_lps = prune_lps = 0
    for i, s in enumerate(spans):
        total[s.name] += s.end - s.start
        own[s.name] += self_s[i]
        if s.name == "lp.maximize":
            compare_lps += _inside(spans, i, "polytope.compare")
            if s.parent >= 0 and spans[s.parent].name == "polytope.prune":
                prune_lps += 1
    dropped = counts["polytope.prune.rows_in"] - counts["polytope.prune.rows_out"]
    per = 1.0 / n_instances
    return {
        "entropy.build_s": (own["entropy.build"] * per, "s"),
        "entropy.joint_tuples": (counts["entropy.build.joint_tuples"], "count"),
        "channel.validate_s": (own["channel.validate"] / n_setups, "s"),
        "hk_region.build_A1_s": (own["hk_region.build_A1"] * per, "s"),
        "hk_region.a1_rows": (counts["hk_region.build_A1.rows"], "count"),
        "polytope.fm_s": (own["polytope.fm"] * per, "s"),
        "polytope.fm_calls": (counts["polytope.fm.calls"], "count"),
        "polytope.fm_rows_out": (counts["polytope.fm.rows_out"], "count"),
        "polytope.prune_s": (own["polytope.prune"] * per, "s"),
        "polytope.prune_calls": (counts["polytope.prune.calls"], "count"),
        "polytope.prune_rows_in": (counts["polytope.prune.rows_in"], "count"),
        "polytope.prune_rows_out": (counts["polytope.prune.rows_out"], "count"),
        "polytope.prune_lp_yield": (dropped / prune_lps if prune_lps else 0.0, "ratio"),
        "lp.maximize_s": (total["lp.maximize"] * per, "s"),
        "lp.calls": (counts["lp.maximize.calls"], "count"),
        "lp.rows_sum": (counts["lp.maximize.rows"], "count"),
        "lp.unbounded": (counts["lp.maximize.unbounded"], "count"),
        "lp.infeasible": (counts["lp.maximize.infeasible"], "count"),
        "theorem_region.search_s": (own["theorem_region.enumerate_facets"] * per, "s"),
        "theorem_region.weight_vectors": (counts["theorem_region.enumerate_facets.weight_vectors"], "count"),
        "theorem_region.rows_to_prune": (counts["theorem_region.final_prune.rows_in"], "count"),
        "theorem_region.final_prune_s": (total["theorem_region.final_prune"] * per, "s"),
        "polytope.compare_s": (total["polytope.compare"] * per, "s"),
        "polytope.compare_lps": (compare_lps, "count"),
    }


def overhead_frac(untraced_s, traced_s) -> float:
    """Traced time over untraced time minus one, from paired instance times."""
    return math.fsum(traced_s) / math.fsum(untraced_s) - 1.0
