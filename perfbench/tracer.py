"""In-memory span tracer installed around the public functions of cartanq.

The benchmark wraps the program from the outside: nothing in ``src`` knows it
is being traced.  Each wrapped call is a span with a name, a start, an end and
a parent.  Per name the tracer keeps the call count, the inclusive time
(outermost calls only, so recursion is not counted twice) and the self time
(duration minus the time covered by direct child spans).  Spans of every name
except the hot leaf operations in ``AGGREGATE_ONLY`` are also kept as records
and written out when the run ends; the leaf operations run millions of times
per workload and are kept as counts and times only.

Wrappers are installed on every binding of a function, not only on its home
module: ``surface``, ``expr`` and ``quadrature`` each do
``from .series import reciprocal``, so wrapping ``cartanq.series.reciprocal``
alone would miss most calls.
"""

from __future__ import annotations

import copy
import importlib
import json
import os
import sys
from time import perf_counter_ns

# span name -> targets.  A target is ("module", "function") for a module-level
# function (wrapped on every module that binds it) or ("module", "Class",
# "method") for a method (wrapped on the class).  Reflected operators that
# re-dispatch to the forward operator (GaussianRational.__rsub__,
# TruncatedSeries.__rmul__) are left unwrapped so a call is counted once.
SPANS = {
    "gaussrat.mul": [("cartanq.gaussrat", "GaussianRational", "__mul__"),
                     ("cartanq.gaussrat", "GaussianRational", "__rmul__")],
    "gaussrat.addsub": [("cartanq.gaussrat", "GaussianRational", "__add__"),
                        ("cartanq.gaussrat", "GaussianRational", "__radd__"),
                        ("cartanq.gaussrat", "GaussianRational", "__sub__")],
    "series.mul": [("cartanq.series", "TruncatedSeries", "__mul__")],
    "series.construct": [("cartanq.series", "TruncatedSeries", "__init__")],
    "series.addsub": [("cartanq.series", "TruncatedSeries", "__add__"),
                      ("cartanq.series", "TruncatedSeries", "__sub__")],
    "series.differentiate": [("cartanq.series", "differentiate")],
    "series.reciprocal": [("cartanq.series", "reciprocal")],
    "series.exp": [("cartanq.series", "exp_series")],
    "series.log1p": [("cartanq.series", "log1p_series")],
    "seriesfile.loads": [("cartanq.seriesfile", "loads")],
    "seriesfile.read_series": [("cartanq.seriesfile", "read_series")],
    "expr.parse_expression": [("cartanq.expr", "parse_expression")],
    "surface.chart_build": [("cartanq.surface", "SurfaceChart", "__init__"),
                            ("cartanq.surface", "phi_from_line_bundle_metric"),
                            ("cartanq.surface", "phi_from_rigid_defining")],
    "surface.gauss_curvature": [("cartanq.surface", "gauss_curvature")],
    "surface.cartan_r": [("cartanq.surface", "cartan_r")],
    "surface.cartan_s": [("cartanq.surface", "cartan_s")],
    "surface.covariant_derivative": [("cartanq.surface", "covariant_derivative")],
    "surface.qisgauss_residuals": [("cartanq.surface", "qisgauss_residuals")],
    "surface.divergence_form_residual": [("cartanq.surface", "divergence_form_residual")],
    "transverse.pseudohermitian_chart": [
        ("cartanq.transverse", "PseudohermitianChart", "__init__")],
    "transverse.scalar_curvature_R": [("cartanq.transverse", "scalar_curvature_R")],
    "transverse.check_qisgauss_trans": [("cartanq.transverse", "check_qisgauss_trans")],
    "transverse.k_equals_2r_residual": [("cartanq.transverse", "k_equals_2r_residual")],
    "transverse.verify_bracket_identity": [
        ("cartanq.transverse", "verify_bracket_identity")],
    "multipoly.mul": [("cartanq.multipoly", "MultiPoly", "__mul__"),
                      ("cartanq.multipoly", "MultiPoly", "__rmul__")],
    "invariants.is_spherical": [("cartanq.invariants", "is_spherical")],
    "invariants.weight3_invariance_suite": [
        ("cartanq.invariants", "weight3_invariance_suite")],
    "invariants.calibrate_c": [("cartanq.invariants", "calibrate_c")],
    "invariants.rigid_surface": [("cartanq.invariants", "RigidSurface", "__init__")],
    "quadrature.lambdify": [("sympy", "lambdify")],
    "quadrature.integrate_surface": [("cartanq.quadrature", "integrate_surface")],
    "quadrature.calabi_identity_check": [("cartanq.quadrature", "calabi_identity_check")],
    "quadrature.taylor_chart": [("cartanq.quadrature", "CompactMetric", "taylor_chart")],
    "quadrature.rigidity_demo": [("cartanq.quadrature", "rigidity_demo")],
}

# Spans opened by the benchmark itself around a stage of an operation.
BENCH_SPANS = ("quadrature.metric_build", "cli.main")

# Target modules that pull in numpy and sympy.  They are imported and wrapped
# only on request, so that tracing another workload does not load them.
QUADRATURE_MODULES = frozenset({"cartanq.quadrature", "sympy"})

AGGREGATE_ONLY = frozenset({"gaussrat.mul", "gaussrat.addsub", "series.construct"})

_PACKAGE = "cartanq"


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    """Span recorder.  ``names`` fixes the order of the per-name tallies."""

    def __init__(self):
        self.names = sorted(set(SPANS) | set(BENCH_SPANS))
        self.index = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.incl_ns = [0] * n
        self.self_ns = [0] * n
        self.active = [0] * n
        # one frame per open span: [child_ns, span_id]; the root frame absorbs
        # the durations of top-level spans
        self.stack = [[0, 0]]
        self.records = []
        self.next_id = 1
        self.mul_pairs = 0
        self.mul_out_nnz = 0
        self.coeff_bits_max = 0
        self._restore = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name, fn, on_exit=None):
        idx = self.index[name]
        record = name not in AGGREGATE_ONLY
        calls, incl_ns, self_ns, active = self.calls, self.incl_ns, self.self_ns, self.active
        stack, records = self.stack, self.records
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [0, span_id]
            stack.append(frame)
            active[idx] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                dt = t1 - t0
                stack.pop()
                active[idx] -= 1
                calls[idx] += 1
                if not active[idx]:
                    incl_ns[idx] += dt
                self_ns[idx] += dt - frame[0]
                parent[0] += dt
                if record:
                    records.append((span_id, parent[1], idx, t0, t1))
            if on_exit is not None:
                extra0 = perf_counter_ns()
                on_exit(args, result)
                # keep the bookkeeping out of the parent's self time
                parent[0] += perf_counter_ns() - extra0
            return result

        traced.__wrapped__ = fn
        return traced

    def stage(self, name, fn, *args):
        """Run ``fn(*args)`` as a span opened by the benchmark around a stage."""
        return self.wrap(name, fn)(*args)

    def _on_series_mul(self, args, result):
        a, b = args
        nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.mul_pairs += len(a.coeffs) * nb
        if not hasattr(result, "coeffs"):
            return
        self.mul_out_nnz += len(result.coeffs)
        best = self.coeff_bits_max
        for c in result.coeffs.values():
            bits = max(_bits(c.re), _bits(c.im))
            if bits > best:
                best = bits
        self.coeff_bits_max = best

    # -- installation ------------------------------------------------------------

    def install(self, quadrature=False, also=()):
        """Wrap every target of ``SPANS``; ``uninstall`` puts the originals back.

        The targets in ``QUADRATURE_MODULES`` are wrapped only if ``quadrature``
        is true.  Function bindings are replaced in every cartanq module and in
        the modules named in ``also`` (the benchmark's own callers)."""
        for name, targets in SPANS.items():
            for target in targets:
                if target[0] in QUADRATURE_MODULES and not quadrature:
                    continue
                module = importlib.import_module(target[0])
                if len(target) == 3:
                    owner = getattr(module, target[1])
                    original = owner.__dict__[target[2]]
                    on_exit = self._on_series_mul if name == "series.mul" else None
                    self._set(owner, target[2], original, self.wrap(name, original, on_exit))
                    continue
                original = getattr(module, target[1])
                wrapper = self.wrap(name, original)
                self._set(module, target[1], original, wrapper)
                for modname, other in list(sys.modules.items()):
                    if other is None or other is module:
                        continue
                    if (modname != _PACKAGE and not modname.startswith(_PACKAGE + ".")
                            and modname not in also):
                        continue
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            self._set(other, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------------

    def tallies(self) -> dict:
        return {
            "calls": dict(zip(self.names, self.calls)),
            "incl_ns": dict(zip(self.names, self.incl_ns)),
            "self_ns": dict(zip(self.names, self.self_ns)),
            "mul_pairs": self.mul_pairs,
            "mul_out_nnz": self.mul_out_nnz,
            "coeff_bits_max": self.coeff_bits_max,
            "spans_recorded": len(self.records),
        }

    def write_spans(self, path, mode="w"):
        """One JSON line per recorded span: process id, span id, parent span id
        (0 for none), name, start and end in ns of the monotonic clock."""
        pid = os.getpid()
        with open(path, mode, encoding="utf-8") as fh:
            for span_id, parent, idx, t0, t1 in self.records:
                fh.write(json.dumps([pid, span_id, parent, self.names[idx], t0, t1]) + "\n")


def merge_tallies(parts) -> dict:
    """Sum the tallies of several traced processes (the CLI children)."""
    out = None
    for part in parts:
        if out is None:
            out = copy.deepcopy(part)
            continue
        for key in ("calls", "incl_ns", "self_ns"):
            for name, value in part[key].items():
                out[key][name] = out[key].get(name, 0) + value
        out["mul_pairs"] += part["mul_pairs"]
        out["mul_out_nnz"] += part["mul_out_nnz"]
        out["coeff_bits_max"] = max(out["coeff_bits_max"], part["coeff_bits_max"])
        out["spans_recorded"] += part["spans_recorded"]
    return out
