"""In-memory span tracer for the benchmark worker.

The tracer wraps public koenigslab functions from outside the package: it
rebinds the function's attribute on its module (or the method on its class)
and every other ``koenigslab`` module attribute bound to the same object, so
calls between modules (``decide -> p_completeness_report ->
hardy_membership``) become nested spans.  Each span is
``[name, start, end, parent_index, op_id]``; spans stay in memory until the
worker writes them out at exit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time

import numpy as np

# (metric name, module, attribute path, can raise)
TARGETS = (
    ("specio.psi_from_dict", "specio", "psi_from_dict", True),
    ("domain.validate", "domain", "PiecewiseDefiningFunction.validate", True),
    ("domain.equals_regularized", "domain", "PiecewiseDefiningFunction.equals_regularized", False),
    ("domain.liminf_neg_inf_set", "domain", "PiecewiseDefiningFunction.liminf_neg_inf_set", False),
    ("domain.one_sided_limits", "domain", "PiecewiseDefiningFunction.one_sided_limits", False),
    ("domain.row_profiles", "domain", "PiecewiseDefiningFunction.row_profiles", False),
    ("classify.classify", "classify", "classify", False),
    ("features.analyze", "features", "analyze", False),
    ("completeness.decide", "completeness", "decide", False),
    ("completeness.decide_weak_star", "completeness", "decide_weak_star", False),
    ("completeness.p_completeness_report", "completeness", "p_completeness_report", False),
    ("raster.rasterize", "raster", "rasterize", True),
    ("raster.int_closure_equals_domain", "raster", "int_closure_equals_domain", False),
    ("raster.complement_components", "raster", "complement_components", True),
    ("hardy.hardy_membership", "hardy", "hardy_membership", True),
    ("hardy.lambda_infty", "hardy", "lambda_infty", False),
    ("approx.discretize_measure", "approx", "discretize_measure", False),
    ("approx.expsum_call", "approx", "ExpSum.__call__", False),
    ("approx.least_squares_fit", "approx", "least_squares_fit", False),
    ("approx.alpha_quadrature", "approx", "alpha_quadrature", False),
    ("approx.log_domain_pipeline_demo", "approx", "log_domain_pipeline_demo", False),
    ("approx.choose_b", "approx", "choose_b", False),
    ("approx.univalence_winding_check", "approx", "univalence_winding_check", False),
)

# counts computed from public results and arguments at the traced boundary
COUNTS = (
    "hardy.levels",
    "hardy.nodes",
    "hardy.definite_calls",
    "approx.expsum_term_points",
    "approx.alpha_quadrature.nodes",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.errors = dict.fromkeys((t[0] for t in TARGETS), 0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []

    # -- spans ---------------------------------------------------------------

    def run_op(self, op_id, fn):
        """Run one operation as the root span of its layer spans."""
        self.op_id = op_id
        return self.span("op", fn)()

    def span(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            rec = [name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(rec)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target; a target that is gone is recorded, not fatal."""
        for name, mod_name, path, _ in TARGETS:
            owner = sys.modules.get(f"koenigslab.{mod_name}")
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                orig = inspect.getattr_static(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapped = self.span(name, orig, self._counter(name, orig))
            setattr(owner, attr, wrapped)
            if outer:
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("koenigslab"):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def _counter(self, name, orig):
        if name == "hardy.hardy_membership":
            return self._count_membership
        if name == "approx.expsum_call":
            return self._count_expsum
        if name == "approx.alpha_quadrature":
            sig = inspect.signature(orig)

            def count_nodes(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts["approx.alpha_quadrature.nodes"] += int(bound.arguments["n"])

            return count_nodes
        return None

    def _count_membership(self, args, kwargs, res):
        dom = args[1] if len(args) > 1 else kwargs["dom"]
        self.counts["hardy.levels"] += res.levels_used
        self.counts["hardy.nodes"] += sum(
            n for _, _, n in itertools.islice(dom.plan.levels(), res.levels_used)
        )
        if res.status != "inconclusive":
            self.counts["hardy.definite_calls"] += 1

    def _count_expsum(self, args, kwargs, result):
        expsum, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
        self.counts["approx.expsum_term_points"] += len(expsum.terms) * int(np.size(z))

    # -- summary -------------------------------------------------------------

    def layer_totals(self):
        """Self time and call count per target over all recorded spans."""
        self_s = dict.fromkeys((t[0] for t in TARGETS), 0.0)
        calls = dict.fromkeys((t[0] for t in TARGETS), 0)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(self.spans):
            if rec[0] in calls:
                calls[rec[0]] += 1
                self_s[rec[0]] += (rec[2] - rec[1]) - child[i]
        return self_s, calls

