"""Traced runs: spans around every public call into each package layer.

The wrappers live here, in the benchmark, not in the package.  Each one
replaces a function at every module attribute that holds it, so callers
that imported the name (``from .contour import residue_value``) and callers
that look it up on the module (``contour.multi_contour``) both go through
it.  ``SparseMatrix.__matmul__`` is wrapped on the class.  Spans (name,
start, end, parent, query id) stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import bench_stats
from bench_workloads import SUITE_IDENTITIES

FORMULAS = (
    "leftmost_probability",
    "tasep_leftmost_probability",
    "head_transition_probability",
    "leftmost_probability_shifted_step",
    "leftmost_probability_step_det",
    "transition_probability",
    "probability_mass_check",
)
SIMULATE = ("final_state_sample", "estimate_event")

#: Every span name the traced run may record.
SPAN_NAMES = (
    tuple(f"formulas.{f}" for f in FORMULAS)
    + ("permutations.enumerate_permutations", "contour.exp_scaled_residue",
       "contour.residue_value", "contour.multi_contour", "bethe.SparseMatrix.matmul",
       "bethe.two_site_embed", "bethe.amplitude", "bethe.braid_relations_hold")
    + tuple(f"identities.{i}" for i in SUITE_IDENTITIES)
    + tuple(f"simulate.{f}" for f in SIMULATE)
    + ("cli.main",)
)
#: Counters that must repeat exactly between two passes of the same code.
COUNTERS = (
    "permutations.terms",
    "contour.exp_scaled_residue.misses",
    "contour.residue_value.misses",
    "contour.multi_contour.final_m_max",
    "contour.multi_contour.grid_evals",
    "identities.points",
    "simulate.runs",
)
#: Counters derived from other values rather than counted where work happens.
COMPUTED = ("contour.multi_contour.grid_evals",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.qid = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._cached: dict[str, object] = {}

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording one span per call; ``name`` may depend on the arguments."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def patch(self, modules, original, name, on_result=None):
        """Replace ``original`` at every module attribute that holds it."""
        wrapper = self.wrap(name, original, on_result)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
        return wrapper

    def install(self, pkg) -> None:
        modules = [pkg.tasep2c] + [getattr(pkg, m) for m in
                               ("bethe", "cli", "contour", "formulas", "identities",
                                "permutations", "simulate")]
        counts = self.counts

        for f in FORMULAS:
            self.patch(modules, getattr(pkg.formulas, f), f"formulas.{f}")

        def terms(args, kwargs, result):
            counts["permutations.terms"] += len(result)

        self.patch(modules, pkg.permutations.enumerate_permutations,
                   "permutations.enumerate_permutations", terms)
        for f in ("exp_scaled_residue", "residue_value"):
            original = getattr(pkg.contour, f)
            self._cached[f"contour.{f}"] = original
            self.patch(modules, original, f"contour.{f}")

        multi = pkg.contour.multi_contour
        multi_sig = inspect.signature(multi)

        def grid(args, kwargs, result):
            bound = multi_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            n, m = bound.arguments["n"], bound.arguments["spec"].points
            counts["contour.multi_contour.final_m_max"] = max(
                counts["contour.multi_contour.final_m_max"], result.points)
            while m <= result.points:
                counts["contour.multi_contour.grid_evals"] += m**n
                m *= 2

        self.patch(modules, multi, "contour.multi_contour", grid)

        matmul = self.wrap("bethe.SparseMatrix.matmul", pkg.bethe.SparseMatrix.__matmul__)
        pkg.bethe.SparseMatrix.__matmul__ = matmul
        for f in ("two_site_embed", "amplitude", "braid_relations_hold"):
            self.patch(modules, getattr(pkg.bethe, f), f"bethe.{f}")

        suite_sig = inspect.signature(pkg.identities.run_identity_suite)

        def suite_name(args, kwargs):
            bound = suite_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            chosen = tuple(bound.arguments["identities"])
            return f"identities.{chosen[0]}" if len(chosen) == 1 else "identities.suite"

        def points(args, kwargs, result):
            counts["identities.points"] += sum(r["points"] for r in result)

        self.patch(modules, pkg.identities.run_identity_suite, suite_name, points)

        for f in SIMULATE:
            sig = inspect.signature(getattr(pkg.simulate, f))

            def runs(args, kwargs, result, sig=sig):
                counts["simulate.runs"] += sig.bind(*args, **kwargs).arguments["runs"]

            self.patch(modules, getattr(pkg.simulate, f), f"simulate.{f}", runs)

        self.patch(modules, pkg.cli.main, "cli.main")

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per span name, plus every counter."""
        selfs = bench_stats.self_times(self.spans)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        busy = 0.0
        for rec, own in zip(self.spans, selfs):
            name = rec[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
            if name.startswith("simulate."):
                busy += rec[2] - rec[1]
        for c in COUNTERS:
            out[c] = self.counts.get(c, 0)
        for name, original in self._cached.items():
            out[f"{name}.misses"] = original.cache_info().misses
        out["simulate.runs_per_s"] = out["simulate.runs"] / busy if busy > 0 else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
