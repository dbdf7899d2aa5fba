"""cartanq benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src`` is put on the path, nothing
needs to be installed.  Workloads (see BENCHMARK.json for why each exists):

  dense_exact   whole chart pipeline on dense random order-12 metrics
  cli_oneshot   one `python -m cartanq.cli ...` process per operation
  quadrature    Calabi identity and rigidity demo on a polynomial profile

Each run is a closed loop: one caller, one operation in flight.  Every
operation's output is checked; a raise, a wrong result, a wrong exit code or a
printed traceback is a failure.

With ``--trace 0`` the run measures a fixed number of operations and reports
the end-to-end metrics.  The number is ``--seconds`` divided by the workload's
reference cost per operation in ``OP_COST_S`` (at least ``MIN_OPS``), so it
depends on the seed's inputs and ``--seconds`` only: the input mix and the
percentile that ``latency_tail_s`` reports are the same on every commit, and
a faster program finishes the same work sooner.  One untimed operation runs
first, so that first-call costs fall outside the timing.  ``latency_p50_s`` and
``latency_tail_s`` are Harrell-Davis estimates over the run's latencies (see
``quantile``).  ``setup_s`` is the median of ``SETUP_REPEATS`` fresh processes
that start the interpreter, import cartanq and generate the run's inputs.

With ``--trace 1`` the run executes a fixed number of operations twice, first
untraced and then with the tracer of ``tracer.py`` installed, and reports the
per-layer metrics of the traced pass, per operation, plus the tracing
overhead.  A fixed count makes the call counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
a readable report.  A fuller result, with the environment, is written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every child
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("dense_exact", "cli_oneshot", "quadrature")
MIN_OPS = 11  # the tail percentile needs ten samples beyond it
# Seconds per operation, rounded, at the commit that defined the benchmark;
# they fix how many operations a run of --seconds holds.
OP_COST_S = {"dense_exact": 1.2, "cli_oneshot": 0.76, "quadrature": 2.4}
# A run stops after this long even if operations remain, so that a much
# slower program still ends within the run's time limit.
MAX_LOOP_S = 150
SETUP_REPEATS = 3
PROBE_REPEATS = 3
TRACE_OPS = {"dense_exact": 6, "cli_oneshot": 10, "quadrature": 3}
CHILD_TIMEOUT_S = 170

# Span names whose wrappers must fire on each workload; together they cover
# every span of the tracer.
MUST_FIRE = {
    "dense_exact": (
        "gaussrat.mul", "gaussrat.addsub", "series.mul", "series.construct",
        "series.addsub", "series.differentiate", "series.reciprocal",
        "surface.chart_build", "surface.gauss_curvature", "surface.cartan_r",
        "surface.cartan_s", "surface.covariant_derivative", "surface.qisgauss_residuals",
        "surface.divergence_form_residual", "transverse.pseudohermitian_chart",
        "transverse.scalar_curvature_R", "transverse.check_qisgauss_trans",
        "transverse.k_equals_2r_residual", "transverse.verify_bracket_identity",
        "multipoly.mul", "invariants.is_spherical", "invariants.weight3_invariance_suite",
        "invariants.rigid_surface",
    ),
    "cli_oneshot": (
        "cli.main", "invariants.is_spherical", "invariants.calibrate_c",
        "invariants.rigid_surface", "seriesfile.read_series", "seriesfile.loads",
        "expr.parse_expression", "surface.chart_build", "series.log1p",
    ),
    "quadrature": (
        "quadrature.metric_build", "quadrature.lambdify", "quadrature.integrate_surface",
        "quadrature.calabi_identity_check", "quadrature.taylor_chart",
        "quadrature.rigidity_demo", "series.exp",
    ),
}


class BenchmarkError(Exception):
    """The benchmark itself cannot run; it exits nonzero without a result."""


# -- processes ------------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion from the checkout root.

    Returns (exit code, stdout, stderr, wall seconds from spawn to exit, peak
    RSS in MB of that child).  Output goes through files so that a large
    report cannot block the child on a full pipe.
    """
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = out_path.read_text(errors="replace")
    err = err_path.read_text(errors="replace")
    return proc.returncode, out, err, seconds, usage.ru_maxrss / 1024.0


def cli_argv(args):
    return [sys.executable, "-m", "cartanq.cli", *args]


# -- loops ------------------------------------------------------------------------------


class Tally:
    """Latencies, failures and peak memory of one loop."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.child_rss_mb = 0.0
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def correct(self):
        return self.attempted - len(self.failures)


def run_op(workload, item, stage, tally, traced_cli=None):
    """Run and check one operation, appending to ``tally``."""
    from workloads import Failure, cli_check, describe

    reason = None
    if workload == "cli_oneshot":
        argv = traced_cli(item["argv"]) if traced_cli else cli_argv(item["argv"])
        code, out, err, seconds, rss = spawn(argv)
        tally.child_rss_mb = max(tally.child_rss_mb, rss)
        try:
            cli_check(item, code, out, err)
        except (Failure, ValueError) as exc:  # ValueError: stdout is not JSON
            reason = str(exc)
    else:
        from workloads import OPS, clear_sympy_cache

        op, check = OPS[workload]
        if workload == "quadrature":
            clear_sympy_cache()
        t0 = time.perf_counter()
        try:
            out = op(item, stage)
        except Failure as exc:
            reason = str(exc)
        except Exception as exc:  # a raise inside the program is a failed operation
            reason = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if reason is None:
            try:
                check(item, out)
            except Failure as exc:
                reason = str(exc)
    tally.latencies.append(seconds)
    if reason is not None:
        tally.failures.append((describe(workload, item), reason))


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds / OP_COST_S[workload]))


def measured_loop(workload, items):
    """Run one operation per item, after one untimed warm-up operation."""
    from workloads import direct

    # first-call costs fall on no timed operation; on the stratified workloads
    # the first input is the one of the cheapest stratum
    run_op(workload, items[0], direct, Tally())
    tally = Tally()
    start = time.perf_counter()
    for item in items:
        if time.perf_counter() - start > MAX_LOOP_S:
            print(f"stopped after {MAX_LOOP_S} s: {tally.attempted} of {len(items)} "
                  f"operations ran")
            break
        run_op(workload, item, direct, tally)
    tally.wall = time.perf_counter() - start
    return tally


def fixed_loop(workload, items, stage, traced_cli=None):
    tally = Tally()
    start = time.perf_counter()
    for item in items:
        run_op(workload, item, stage, tally, traced_cli)
    tally.wall = time.perf_counter() - start
    return tally


# -- end-to-end run -----------------------------------------------------------------------


def prepare(workload, seed, count):
    """Generate the inputs in this process and write any input files."""
    import workloads

    items = workloads.INPUTS[workload](seed, count)
    for item in items if workload == "cli_oneshot" else ():
        for rel, text in item["files"].items():
            (ROOT / rel).write_text(text)
    return items


def measure_setup(workload, seed, count, expected):
    times = []
    for _ in range(SETUP_REPEATS):
        code, out, err, seconds, _ = spawn(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(count)])
        if code != 0 or out.strip() != expected:
            raise BenchmarkError(f"set-up probe failed or generated other inputs: {err.strip()}")
        times.append(seconds)
    return statistics.median(times)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of the distribution ``values``
    were drawn from: a mean of all order statistics, weighted by the
    Beta(p (n + 1), (1 - p) (n + 1)) mass of the interval ((i - 1)/n, i/n)
    (Simpson's rule, 16 steps per interval).  It averages the samples next to
    the p-th one instead of taking a single one, so a run's median and tail
    depend less on which input happened to land there and on how fast the
    machine was at that moment."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)

    def density(x):  # unnormalized; the weights are normalized below
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 16
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        points = [density((i * steps + k) * h) for k in range(steps + 1)]
        weights.append(points[0] + points[-1] + 4 * sum(points[1:-1:2]) + 2 * sum(points[2:-1:2]))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    n = len(latencies)
    p = (n - 10) / n
    return quantile(latencies, p), 100.0 * p


def known_defects():
    """Run the known-defect invocations; returns [(argv, reason)] of those that fail."""
    from workloads import KNOWN_DEFECTS, Failure, cli_check

    failed = []
    for args in KNOWN_DEFECTS:
        code, out, err, _, _ = spawn(cli_argv(args))
        try:
            cli_check({"expect": {"exit": 1}}, code, out, err)
        except Failure as exc:
            failed.append((" ".join(args), str(exc)))
    return failed


def end_to_end(workload, seed, seconds, report):
    import workloads

    count = op_count(workload, seconds)
    items = prepare(workload, seed, count)
    setup_s = measure_setup(workload, seed, count, workloads.fingerprint(workload, items))
    tally = measured_loop(workload, items)
    tail_s, pct = tail(tally.latencies)
    if workload == "cli_oneshot":
        rss = tally.child_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "latency_p50_s": quantile(tally.latencies, 0.5),
        "latency_tail_s": tail_s,
        "throughput_ops_per_s": tally.correct / tally.wall,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    report["latency_tail"] = {"percentile": pct, "samples": tally.attempted,
                              "below_median": pct < 50}
    report["error_rate"] = len(tally.failures) / tally.attempted
    report["latencies_s"] = tally.latencies
    report["sample_median_s"] = statistics.median(tally.latencies)
    # ten samples beyond it: with fewer than 22 operations this is below p50
    note = (": below the median, too few operations in a run for a tail"
            if pct < 50 else "")
    print(f"latency_tail_s is p{pct:.1f} of {tally.attempted} samples{note}; "
          f"latency_p50_s and latency_tail_s are Harrell-Davis estimates "
          f"(sample median {report['sample_median_s']:.6g} s)")
    print(f"error_rate {report['error_rate']:.4f} "
          f"({len(tally.failures)} failed of {tally.attempted} attempted)")
    if workload == "cli_oneshot":
        defects = known_defects()
        report["known_defects"] = [{"argv": a, "reason": r} for a, r in defects]
        total = tally.attempted + len(workloads.KNOWN_DEFECTS)
        print(f"known-defect invocations (not timed): {len(defects)} of "
              f"{len(workloads.KNOWN_DEFECTS)} fail; error_rate counting them "
              f"{(len(tally.failures) + len(defects)) / total:.4f}")
        for args, reason in defects:
            print(f"  known defect: cartanq {args}: {reason}")
    return tally, metrics


# -- traced run --------------------------------------------------------------------------


def _module_self(tallies, module):
    prefix = module + "."
    return sum(v for k, v in tallies["self_ns"].items() if k.startswith(prefix)) / 1e9


def layer_values(names, tallies, n_ops, extra):
    """Per-layer metric values, per operation, from merged tracer tallies."""
    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name == "gaussrat.coeff_bits_max":
            values[name] = tallies["coeff_bits_max"]
        elif name == "series.mul.coeff_pairs":
            values[name] = tallies["mul_pairs"] / n_ops
        elif name == "series.mul.out_nnz":
            values[name] = tallies["mul_out_nnz"] / n_ops
        elif name.endswith(".self_s"):
            values[name] = _module_self(tallies, name[: -len(".self_s")]) / n_ops
        elif name.endswith(".calls"):
            values[name] = tallies["calls"][name[: -len(".calls")]] / n_ops
        elif name.endswith(".s"):
            values[name] = tallies["incl_ns"][name[: -len(".s")]] / 1e9 / n_ops
        else:
            raise BenchmarkError(f"no rule computes per-layer metric {name}")
    return values


def cli_startup_probes():
    """Interpreter start, import cost and the numpy/sympy share of it, in seconds."""
    interp, full, heavy = [], [], []
    for _ in range(PROBE_REPEATS):
        interp.append(spawn([sys.executable, "-c", "pass"])[3])
        full.append(spawn([sys.executable, "-c", "import cartanq"])[3])
        err = spawn([sys.executable, "-X", "importtime", "-c", "import cartanq"])[2]
        micros = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in ("numpy", "sympy"):
                micros += int(m.group(1))
        heavy.append(micros / 1e6)
    interpreter = statistics.median(interp)
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": statistics.median(full) - interpreter,
        "cli.import_numpy_sympy_s": statistics.median(heavy),
    }


def traced(workload, seed, layer_names, report):
    from tracer import BENCH_SPANS, SPANS, Tracer, merge_tallies
    from workloads import direct

    unassigned = (set(SPANS) | set(BENCH_SPANS)) - set(itertools.chain(*MUST_FIRE.values()))
    if unassigned:
        raise BenchmarkError(f"spans assigned to no workload: {sorted(unassigned)}")
    items = prepare(workload, seed, TRACE_OPS[workload])
    spans_path = OUT / f"spans_{workload}_{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    # one untimed operation first, so that one-time costs (sympy printers,
    # page cache) fall on neither pass of the overhead comparison
    run_op(workload, items[0], direct, Tally())
    plain = fixed_loop(workload, items, direct)
    extra = {}
    if workload == "cli_oneshot":
        tally_path = OUT / "child_tallies.jsonl"
        tally_path.unlink(missing_ok=True)

        def traced_cli(args):
            return [sys.executable, str(HERE / "cli_child.py"), str(tally_path),
                    str(spans_path), *args]

        tally = fixed_loop(workload, items, direct, traced_cli)
        parts = [json.loads(line) for line in tally_path.read_text().splitlines()]
        tallies = merge_tallies(parts)
        extra.update(cli_startup_probes())
    else:
        tracer = Tracer()
        tracer.install(quadrature=workload == "quadrature", also=("workloads",))
        try:
            tally = fixed_loop(workload, items, tracer.stage)
        finally:
            tracer.uninstall()
        tallies = tracer.tallies()
        tracer.write_spans(spans_path)
        for name in ("cli.interpreter_s", "cli.import_s", "cli.import_numpy_sympy_s"):
            extra[name] = 0.0
    extra["trace.overhead_s"] = quantile(tally.latencies, 0.5) - quantile(plain.latencies, 0.5)
    missing = [n for n in MUST_FIRE[workload] if not tallies["calls"].get(n)]
    if missing:
        raise BenchmarkError(f"wrappers never fired on {workload}: {', '.join(missing)}")
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["tallies"] = tallies
    report["untraced_p50_s"] = quantile(plain.latencies, 0.5)
    report["traced_p50_s"] = quantile(tally.latencies, 0.5)
    print(f"traced {len(items)} operations: p50 {report['traced_p50_s']:.6g} s traced, "
          f"{report['untraced_p50_s']:.6g} s untraced; spans in {report['spans_file']}")
    merged = Tally()
    merged.latencies = plain.latencies + tally.latencies
    merged.failures = plain.failures + tally.failures
    return merged, layer_values(layer_names, tallies, len(items), extra)


# -- environment and output -------------------------------------------------------------


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(seed):
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cartanq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sympy": _version("sympy"),
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "python_flint_present": importlib.util.find_spec("flint") is not None,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cartanq" / "__init__.py").is_file():
        raise BenchmarkError(f"no cartanq sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    e2e_units, layer_units = load_spec()

    env = environment(args.seed)
    print(f"cartanq benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + json.dumps(env))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}
    if args.trace:
        tally, values = traced(args.workload, args.seed, list(layer_units), report)
        units = layer_units
    else:
        tally, values = end_to_end(args.workload, args.seed, args.seconds, report)
        units = e2e_units
    if set(values) != set(units):
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for desc, reason in tally.failures:
        print(f"FAILED [{desc}]: {reason}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    report["result"] = result
    report["failures"] = [{"input": d, "reason": r} for d, r in tally.failures]
    out_file = OUT / f"result_{args.workload}_{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
