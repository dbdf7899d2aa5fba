"""The workloads: seeded input generators, operations and output checks.

The generator mirrors the ``random_positive_metric`` distribution of
``tests/conftest.py`` but is owned here, so that editing the tests cannot
shift the workloads.  The program only ever receives the generated inputs.

Every operation takes a ``stage`` callable, ``stage(name, fn, *args)``.  Untraced
runs pass :func:`direct`; the traced run passes ``Tracer.stage`` so that the
benchmark-level stage (the sympy metric build) becomes a span.

``cartanq.quadrature`` (and with it numpy and sympy) is imported only inside
the quadrature functions, so that a dense_exact or cli_oneshot process and its
set-up probe load only what their operations use.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from cartanq.gaussrat import GaussianRational
from cartanq.invariants import RigidSurface, is_spherical, weight3_invariance_suite
from cartanq.series import TruncatedSeries
from cartanq.surface import (
    SurfaceChart,
    cartan_r,
    cartan_s,
    divergence_form_residual,
    gauss_curvature,
    qisgauss_residuals,
)
from cartanq.transverse import (
    FiberPoint,
    PseudohermitianChart,
    check_qisgauss_trans,
    k_equals_2r_residual,
    q11_representative,
    q_representative,
    scalar_curvature_R,
    verify_bracket_identity,
)

HERE = Path(__file__).resolve().parent
REF = HERE / "ref"
OUT = HERE / "out"

DENSE_ORDER = 12


class Failure(Exception):
    """An operation gave a wrong result; the message is the reason."""


def direct(name, fn, *args):
    return fn(*args)


def require(ok, reason):
    if not ok:
        raise Failure(reason)


# -- generators (distributions of tests/conftest.py) ----------------------------


def random_series(rng, order, density):
    """Sparse random series with Gaussian-rational coefficients p/q, |p|, q <= 9."""
    coeffs = {}
    for k in range(order + 1):
        for l in range(order + 1 - k):
            if rng.random() < density:
                re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                im = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                coeffs[(k, l)] = GaussianRational(re, im)
    return TruncatedSeries(order, coeffs)


def random_positive_metric(rng, order):
    """Random real polynomial e^{2phi} (density 0.25) with positive constant term."""
    s = random_series(rng, order, 0.25)
    s = s + s.conjugate()
    bump = abs(s.constant_term.re) + Fraction(rng.randint(1, 5))
    return (s - TruncatedSeries.constant(s.constant_term, order)
            + TruncatedSeries.constant(bump, order))


def rigid_f_eps(eps, order):
    return TruncatedSeries(order, {(1, 1): GaussianRational(1), (4, 4): GaussianRational(eps)})


def _rat(q):
    return f"{q.numerator}/{q.denominator}"


def series_digest(named):
    """sha256 of the exact coefficients of several series, in a fixed layout."""
    h = hashlib.sha256()
    for name, s in named:
        h.update(f"{name} {s.order}\n".encode())
        for (k, l) in sorted(s.coeffs):
            c = s.coeffs[(k, l)]
            h.update(f"{k} {l} {_rat(c.re)} {_rat(c.im)}\n".encode())
    return h.hexdigest()


# -- stratified sampling -------------------------------------------------------------
#
# The time of one dense_exact or quadrature operation depends strongly on the
# input (0.1-2.4 s per chart, 1-4.5 s per profile), so inputs drawn at random
# would give a median that depends on the seed.  Both workloads therefore draw
# from a fixed universe of seeded inputs whose cost was recorded once
# (ref/*.json, written by record_refs.py): a run of n operations splits the
# universe, ranked by cost, into n strata of equal size and takes one member
# from each.  On a shared host the speed can wander by a quarter within
# seconds, so members of similar cost are spread over the whole run rather than
# run side by side: stratum j runs at position (j * g) mod n, g the integer next
# to n (3 - sqrt 5) / 2 that is prime to n.  The median and the tail then come
# from operations run at many moments, not from a few neighbouring seconds.
# The recorded costs only rank the members; the seed alone picks them.


def _stride(n):
    g = max(1, round(n * (3 - math.sqrt(5)) / 2))
    while math.gcd(g, n) != 1:
        g += 1
    return g


def stratified(costs, tag, count):
    """``count`` universe indices, one per cost stratum, in run order."""
    ranked = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    rng = random.Random(tag)
    picks = [rng.choice(ranked[j * len(ranked) // count:(j + 1) * len(ranked) // count])
             for j in range(count)]
    order = [None] * count
    g = _stride(count)
    for j, pick in enumerate(picks):
        order[j * g % count] = pick
    return order


def load_ref(workload):
    return json.loads((REF / f"{workload}.json").read_text())["members"]


# -- dense_exact ---------------------------------------------------------------------
#
# The references also hold the sha256 digest of each member's K, r and s, so
# every operation is checked against exact outputs recorded at a trusted commit.

DENSE_UNIVERSE = 256


def dense_member(index):
    rng = random.Random(f"dense_exact/{index}")
    w = random_positive_metric(rng, DENSE_ORDER)
    eps = Fraction(rng.randint(1, 9), rng.randint(10, 40))
    return {"index": index, "w": w, "eps": eps}


def dense_inputs(seed, count):
    members = load_ref("dense_exact")
    order = stratified([m["cost_s"] for m in members], f"dense_exact/seed/{seed}", count)
    items = []
    for index in order:
        item = dense_member(index)
        item["digest"] = members[index]["digest"]
        items.append(item)
    return items


def dense_op(item, stage=direct):
    """Whole chart pipeline on one metric: b, K, R, r, s, Q and Q;11 at lambda = 1,
    the six chart residuals, the bracket identity, weight-3 scaling and the
    sphericity verdict.  It opens no stage of its own: the tracer's
    ``surface.chart_build`` span is ``SurfaceChart.__init__``, as on every
    workload."""
    chart = SurfaceChart(item["w"])
    pchart = PseudohermitianChart(chart)
    K = gauss_curvature(chart)
    R = scalar_curvature_R(pchart)
    r = cartan_r(chart)
    s = cartan_s(chart)
    one = FiberPoint(GaussianRational(1))
    q = q_representative(pchart, one).constant_value()
    q11 = q11_representative(pchart, one).constant_value()
    g1, g2 = qisgauss_residuals(chart)
    t1, t2 = check_qisgauss_trans(pchart)
    residuals = {
        "qisgauss_identity_1": g1,
        "qisgauss_identity_2": g2,
        "qisgauss_trans_1": t1,
        "qisgauss_trans_2": t2,
        "divergence_form": divergence_form_residual(chart),
        "k_minus_2r": k_equals_2r_residual(pchart),
    }
    bracket = verify_bracket_identity()
    scaling = []
    for t, lam in ((Fraction(4), Fraction(2)), (Fraction(9, 4), Fraction(3, 2))):
        value = q11_representative(pchart, FiberPoint(GaussianRational(lam))).constant_value()
        scaling.append(value * GaussianRational(t ** 3) - q11)
    rigid = weight3_invariance_suite(RigidSurface(rigid_f_eps(item["eps"], DENSE_ORDER)))
    verdict = is_spherical(chart, r.order)
    return {"K": K, "R": R, "r": r, "s": s, "q": q, "q11": q11, "residuals": residuals,
            "bracket": bracket, "scaling": scaling, "rigid": rigid, "verdict": verdict}


def dense_check(item, out):
    for name, res in out["residuals"].items():
        require(res.is_zero, f"residual {name} is not exactly zero")
    require(out["bracket"].is_zero, "bracket identity residual is not zero")
    require(all(not res for res in out["scaling"]), "weight-3 scaling of Q;11 is not exact")
    require(all(check.exact for check in out["rigid"]), "weight3_invariance_suite not exact")
    require(out["q"] == out["r"].constant_term, "Q at lambda = 1 differs from r(0)")
    require(out["q11"] == out["s"].constant_term, "Q;11 at lambda = 1 differs from s(0)")
    verdict = out["verdict"]
    require(verdict.spherical == out["r"].is_zero, "sphericity verdict contradicts r")
    digest = series_digest((("K", out["K"]), ("r", out["r"]), ("s", out["s"])))
    require(digest == item["digest"], f"K/r/s digest differs from the reference "
            f"of universe member {item['index']}")


# -- quadrature ------------------------------------------------------------------------
#
# Profiles are polynomials only.  Non-polynomial profiles such as exp(u) - 1
# are silently truncated at this commit (a correctness defect, not a
# performance workload), so they are left out on purpose.


QUAD_UNIVERSE = 96


def quadrature_member(index):
    """Profile psi of degree 1 + index % 3 with psi(0) = 0, and a polynomial f."""
    rng = random.Random(f"quadrature/{index}")

    def rational(p, qmin, qmax):
        return Fraction(rng.choice([x for x in range(-p, p + 1) if x]), rng.randint(qmin, qmax))

    psi = [Fraction(0)] + [rational(3, 2, 10) for _ in range(1 + index % 3)]
    f = [Fraction(rng.randint(-3, 3), rng.randint(1, 5))]
    f += [rational(3, 1, 5) for _ in range(rng.randint(1, 2))]
    return {"index": index, "psi": psi, "f": f}


def quadrature_inputs(seed, count):
    """The profiles of a run.  It also imports cartanq.quadrature, and with it
    numpy and sympy, which every operation of this workload uses, so that the
    import is paid in set-up and not by the first timed operation."""
    import cartanq.quadrature  # noqa: F401

    costs = [m["cost_s"] for m in load_ref("quadrature")]
    return [quadrature_member(i)
            for i in stratified(costs, f"quadrature/seed/{seed}", count)]


def clear_sympy_cache():
    """Each quadrature operation starts from an empty sympy cache, as a fresh
    quadrature-check process does, so its cost does not depend on the
    operations before it."""
    import sympy

    sympy.core.cache.clear_cache()


def build_metric(psi):
    from cartanq.quadrature import CompactMetric

    metric = CompactMetric(psi)
    metric.k_zbar_zbar_z_z
    return metric


def quadrature_op(item, stage=direct):
    """Calabi identity on K and on a polynomial f, rigidity demo, and the
    Fubini-Study area."""
    from cartanq.quadrature import (
        CompactMetric,
        QuadratureScheme,
        calabi_identity_check,
        integrate_surface,
        rigidity_demo,
    )

    scheme = QuadratureScheme()
    metric = stage("quadrature.metric_build", build_metric, item["psi"])
    check_k = calabi_identity_check("K", metric, scheme)
    check_f = calabi_identity_check(item["f"], metric, scheme)
    demo = rigidity_demo(metric, scheme)
    area, _ = integrate_surface(_ones, CompactMetric(), scheme)
    return {"scheme": scheme, "K": check_k, "f": check_f, "demo": demo, "area": area}


def _ones(z):
    import numpy as np

    return np.ones(z.shape)


def quadrature_check(item, out):
    tol = out["scheme"].rel_tolerance
    require(out["K"].passes(tol), f"Calabi identity on K: relative residual "
            f"{out['K'].relative_residual:.3g} >= {tol}")
    require(out["f"].passes(tol), f"Calabi identity on f: relative residual "
            f"{out['f'].relative_residual:.3g} >= {tol}")
    require(out["demo"].consistent, "numeric and symbolic rigidity verdicts disagree")
    require(out["demo"].relative_gap < tol, "rigidity demo I2/I4 gap above tolerance")
    require(abs(out["area"] - math.pi) < 1e-10, f"Fubini-Study area {out['area']!r} != pi")


# -- cli_oneshot -------------------------------------------------------------------------
#
# Every operation is one fresh `python -m cartanq.cli ...` process.  The kinds
# cycle in a fixed order so that each run holds the same mix; orders and
# parameters are seeded.  One kind in ten is an invalid input that must end
# as exit 1 with a single `error:` line.


def _eps(rng):
    return Fraction(rng.randint(1, 9), rng.randint(10, 40))


def _rigid_expr(eps):
    return f"z*zb + {eps.numerator}/{eps.denominator}*z^4*zb^4"


ROUND = "(1+z*zb)^-2"
F44 = "z*zb + 1/10*z^4*zb^4"

INVALID = (
    ("sphericity", "--input-kind", "conformal_factor_e2phi", "--expr", "z*zb", "--order", "12"),
    ("curvature", "--input-kind", "conformal_factor_e2phi", "--expr", "1+z+*zb", "--order", "12"),
    ("invariants", "--input-kind", "line_bundle_metric_h", "--expr", "log(2+z*zb)", "--order", "12"),
    ("curvature", "--input-kind", "conformal_factor_e2phi", "--expr", ROUND, "--order", "3"),
    ("invariants", "--input-kind", "rigid_defining_F", "--expr", "z*zb + z^2*zb^2", "--order", "12"),
    ("calibrate-c", "--probes", "1/10,1/10,1/25"),
    ("sphericity", "--input-kind", "conformal_factor_e2phi", "--coeff-file",
     "perfbench/out/no-such-file.coeffs", "--order", "12"),
)

# Invocations that should also end as exit 1 with one `error:` line but print a
# raw ValueError traceback at this commit.  They run in every cli_oneshot run
# and are reported, but they are not part of the timed mix.
KNOWN_DEFECTS = (
    ("calibrate-c", "--order", "6"),
    ("curvature", "--input-kind", "conformal_factor_e2phi", "--expr", ROUND,
     "--order", "12", "--display-order", "-3"),
)

CLI_KINDS = ("curvature_rigid", "invariants_round", "sphericity_1pzzb",
             "invariants_line_bundle", "verify_rigid", "calibrate", "coeff_file",
             "golden_f44", "sphericity_round", "invalid")


def cli_inputs(seed, count):
    """Returns ``count`` cases {kind, argv, expect, files}; ``files`` maps a path
    relative to the checkout to the text the harness writes before the run."""
    rng = random.Random(f"cli_oneshot/{seed}")
    cases = []
    for j in range(count):
        kind = CLI_KINDS[j % len(CLI_KINDS)]
        order = str(rng.randint(12, 20))
        case = {"kind": kind, "files": {}, "expect": {}}
        if kind == "curvature_rigid":
            eps = _eps(rng)
            case["argv"] = ["curvature", "--input-kind", "rigid_defining_F",
                            "--expr", _rigid_expr(eps), "--order", order]
        elif kind == "invariants_round":
            case["argv"] = ["invariants", "--input-kind", "conformal_factor_e2phi",
                            "--expr", ROUND, "--order", order]
            case["expect"] = {"spherical": True}
        elif kind == "sphericity_1pzzb":
            case["argv"] = ["sphericity", "--input-kind", "conformal_factor_e2phi",
                            "--expr", "1+z*zb", "--order", order]
            case["expect"] = {"spherical": False,
                              "first_nonzero": {"at": [2, 0], "value": "5/2"}}
        elif kind == "invariants_line_bundle":
            a = Fraction(rng.randint(1, 9), rng.randint(2, 12))
            case["argv"] = ["invariants", "--input-kind", "line_bundle_metric_h",
                            "--expr", f"exp(-z*zb - {a.numerator}/{a.denominator}*z^2*zb^2)",
                            "--order", order]
        elif kind == "verify_rigid":
            case["argv"] = ["verify-identities", "--input-kind", "rigid_defining_F",
                            "--expr", _rigid_expr(_eps(rng)), "--order", order]
        elif kind == "calibrate":
            pool = [Fraction(1, d) for d in range(7, 41)]
            probes = rng.sample(pool, 3)
            case["argv"] = ["calibrate-c", "--probes", ",".join(_rat(p) for p in probes)]
            case["expect"] = {"c": "96"}
        elif kind == "coeff_file":
            eps = _eps(rng)
            path = f"perfbench/out/cli_{seed}_{j}.coeffs"
            case["files"][path] = (f"order {order}\n1 1 1/1 0/1\n"
                                   f"4 4 {_rat(eps)} 0/1\n")
            case["argv"] = ["invariants", "--input-kind", "rigid_defining_F",
                            "--coeff-file", path, "--order", order]
            case["expect"] = {"A0": {"4,4": _cli_rat(eps)}}
        elif kind == "golden_f44":
            case["argv"] = ["invariants", "--input-kind", "rigid_defining_F",
                            "--expr", F44, "--order", "12", "--lambda", "2"]
            case["expect"] = {"golden": True}
        elif kind == "sphericity_round":
            case["argv"] = ["sphericity", "--input-kind", "conformal_factor_e2phi",
                            "--expr", ROUND, "--order", order]
            case["expect"] = {"spherical": True}
        else:
            case["argv"] = list(rng.choice(INVALID))
            case["expect"] = {"exit": 1}
        cases.append(case)
    return cases


def _cli_rat(q):
    return str(q.numerator) if q.denominator == 1 else _rat(q)


def cli_check(case, code, out, err):
    """Check one finished CLI process: exit code, no traceback, report contents."""
    require("Traceback" not in err, "printed a traceback: " + _last_line(err))
    expect = case["expect"]
    if expect.get("exit") == 1:
        require(code == 1, f"invalid input exited {code}, expected 1")
        lines = [line for line in err.splitlines() if "error:" in line]
        require(len(lines) == 1, f"expected one 'error:' line, got {len(lines)}")
        return
    require(code == 0, f"exited {code}: {_last_line(err)}")
    report = json.loads(out)
    for name, entry in report.get("residuals", {}).items():
        require(entry.get("exact_zero") is True, f"residual {name} is not exact_zero")
    verdicts = report.get("verdicts", {})
    if "spherical" in expect:
        require(verdicts.get("spherical") is expect["spherical"],
                f"spherical is {verdicts.get('spherical')}, expected {expect['spherical']}")
    if "first_nonzero" in expect:
        require(verdicts.get("first_nonzero_r_coefficient") == expect["first_nonzero"],
                f"first nonzero r is {verdicts.get('first_nonzero_r_coefficient')}")
    if "c" in expect:
        require((report.get("calibration") or {}).get("c") == expect["c"],
                f"calibrate-c printed c = {(report.get('calibration') or {}).get('c')}")
    if "A0" in expect:
        require(verdicts.get("normal_form_coefficients_A0") == expect["A0"],
                "normal-form coefficients differ from the coefficient file")
    if expect.get("golden"):
        golden = json.loads((REF / "invariants_f44.json").read_text())
        report["version"] = golden["version"] = "X"
        require(report == golden, "F44 report differs from the golden JSON")


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# -- registry ---------------------------------------------------------------------------


def describe(workload, item):
    """One line naming an input, for failure reports and input fingerprints."""
    if workload == "dense_exact":
        return f"universe member {item['index']} (eps {_rat(item['eps'])})"
    if workload == "quadrature":
        return (f"universe member {item['index']}: psi={[_rat(q) for q in item['psi']]} "
                f"f={[_rat(q) for q in item['f']]}")
    return " ".join(item["argv"])


def fingerprint(workload, items):
    text = "\n".join(describe(workload, item) for item in items)
    return hashlib.sha256(text.encode()).hexdigest()


INPUTS = {
    "dense_exact": dense_inputs,
    "cli_oneshot": cli_inputs,
    "quadrature": quadrature_inputs,
}
OPS = {
    "dense_exact": (dense_op, dense_check),
    "quadrature": (quadrature_op, quadrature_check),
}
