"""Span tracing of the package's layers from outside the program.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every ``absnormal.*`` module attribute that holds one of them, so the
copies made by intra-package ``from ... import`` (``cq.dual_cone``,
``stationarity.lp_solve``, ...) are traced too.  Each call records a span
(name, start, end, parent span, operation id) in memory; ``write`` saves them
when the run ends.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, function) -> span name.  The layer of a span is its first component
# (``dd`` and ``lp`` stand for ``ratmath.dd`` and ``ratmath.lp``).
TARGETS = {
    ("absnormal.problemfile", "parse_problem"): "problemfile",
    ("absnormal.problemfile", "load_corpus_problem"): "problemfile",
    ("absnormal.anf", "evaluate"): "anf",
    ("absnormal.transforms", "to_slack"): "transforms",
    ("absnormal.transforms", "to_mpcc"): "transforms",
    ("absnormal.transforms", "enumerate_branches"): "transforms",
    ("absnormal.transforms", "enumerate_mpcc_branches"): "transforms",
    ("absnormal.cq", "analyze_point"): "cq.analyze_point",
    ("absnormal.cq", "decide_kink_cq"): "cq.decide",
    ("absnormal.cq", "check_branch_cq"): "cq.branch",
    ("absnormal.cq", "verify_relations"): "cq.relations",
    ("absnormal.cones", "dual_cone"): "cones.dual",
    ("absnormal.cones", "dual_union"): "cones.dual",
    ("absnormal.cones", "union_covers"): "cones.covers",
    ("absnormal.cones", "cone_contains"): "cones.contains",
    ("absnormal.cones", "tangent_cone_branch"): "cones.tangent",
    ("absnormal.ratmath.dd", "cone_generators"): "dd.to_vrep",
    ("absnormal.ratmath.dd", "generators_to_hrep"): "dd.to_hrep",
    ("absnormal.ratmath.lp", "lp_solve"): "lp",
    ("absnormal.stationarity", "check_m_stationary_anf"): "stationarity.m",
    ("absnormal.stationarity", "check_m_stationary_mpcc"): "stationarity.m",
    ("absnormal.stationarity", "check_b_stationary"): "stationarity.b",
    ("absnormal.cli", "main"): "cli.main",
    ("absnormal.cli", "recheck_report"): "cli.recheck",
}

LAYERS = ("problemfile", "anf", "transforms", "cq", "cones", "dd", "lp", "stationarity", "cli")
LP_STATUSES = ("feasible", "infeasible", "optimal", "unbounded")

# Layers that must record calls on a workload; zero calls there means a
# binding was missed and the per-layer numbers cannot be trusted.
BUSY = {"corpus": ("problemfile",), "kinks-cq": ("dd",), "kinks-stat": ("lp",)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "absnormal" or name.startswith("absnormal.")]
        for (module_name, func_name), span in TARGETS.items():
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, span, _POST.get(func_name))
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{func_name} is bound nowhere")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, func, span: str, post):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (span, start, end, parent, self.op_id)
                self.calls[span] += 1
                self.total_s[span] += duration
                self.self_s[span] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                post(self.counts, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def _layer(self, key: str, table) -> float:
        return sum(v for span, v in table.items() if span == key or span.startswith(key + "."))

    def layer_self_s(self) -> dict[str, float]:
        return {layer: self._layer(layer, self.self_s) for layer in LAYERS}

    def metrics(self, cache_hits: int, cache_misses: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit)."""
        calls, self_s, total_s, counts = self.calls, self.self_s, self.total_s, self.counts
        lp_calls = calls["lp"]
        lookups = cache_hits + cache_misses
        out = {
            "problemfile.calls": (calls["problemfile"], "count"),
            "problemfile.self_s": (self_s["problemfile"], "s"),
            "anf.calls": (calls["anf"], "count"),
            "anf.self_s": (self_s["anf"], "s"),
            "transforms.calls": (self._layer("transforms", calls), "count"),
            "transforms.self_s": (self._layer("transforms", self_s), "s"),
            "transforms.branches": (counts["branches"], "count"),
            "cq.self_s": (self._layer("cq", self_s), "s"),
            "cq.analyze_point.s": (total_s["cq.analyze_point"], "s"),
            "cq.decide.calls": (calls["cq.decide"], "count"),
            "cq.branch.calls": (calls["cq.branch"], "count"),
            "cones.self_s": (self._layer("cones", self_s), "s"),
            "cones.dual.calls": (calls["cones.dual"], "count"),
            "cones.covers.calls": (calls["cones.covers"], "count"),
            "cones.contains.calls": (calls["cones.contains"], "count"),
            "cones.tangent.calls": (calls["cones.tangent"], "count"),
            "cones.tangent_certified_ratio": (_ratio(counts["tangent_certified"], calls["cones.tangent"]), "ratio"),
            "dd.to_vrep.calls": (calls["dd.to_vrep"], "count"),
            "dd.to_vrep.self_s": (self_s["dd.to_vrep"], "s"),
            "dd.to_hrep.calls": (calls["dd.to_hrep"], "count"),
            "dd.to_hrep.self_s": (self_s["dd.to_hrep"], "s"),
            "dd.to_hrep.s": (total_s["dd.to_hrep"], "s"),
            "dd.rays_out": (counts["rays_out"], "count"),
            "dd.cache_hit_ratio": (_ratio(cache_hits, lookups), "ratio"),
            "lp.calls": (lp_calls, "count"),
            "lp.self_s": (self_s["lp"], "s"),
            "lp.feasible_ratio": (_ratio(counts["lp.feasible"] + counts["lp.optimal"], lp_calls), "ratio"),
        }
        for status in LP_STATUSES:
            out[f"lp.by_status.{status}"] = (counts[f"lp.{status}"], "count")
        out.update(
            {
                "stationarity.self_s": (self._layer("stationarity", self_s), "s"),
                "stationarity.m.calls": (calls["stationarity.m"], "count"),
                "stationarity.b.calls": (calls["stationarity.b"], "count"),
                "cli.self_s": (self_s["cli.main"], "s"),
                "cli.recheck.s": (total_s["cli.recheck"], "s"),
            }
        )
        return out

    def idle_layers(self, workload: str) -> list[str]:
        return [layer for layer in BUSY.get(workload, ()) if not self._layer(layer, self.calls)]

    def write(self, path: Path) -> None:
        """Save the spans, one JSON array per line: name, start, end, parent, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _count_branches(counts: Counter, result) -> None:
    counts["branches"] += len(result)


def _count_tangent(counts: Counter, result) -> None:
    counts["tangent_certified"] += result[1].certified


def _count_rays(counts: Counter, result) -> None:
    rays, lineality = result
    counts["rays_out"] += len(rays) + len(lineality)


def _count_lp(counts: Counter, result) -> None:
    counts["lp." + result.status] += 1


_POST = {
    "enumerate_branches": _count_branches,
    "enumerate_mpcc_branches": _count_branches,
    "tangent_cone_branch": _count_tangent,
    "cone_generators": _count_rays,
    "lp_solve": _count_lp,
}
