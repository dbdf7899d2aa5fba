"""The benchmark's span pins: every span that ``perfbench/run.py --trace 1``
requires on a workload still fires on the program.  The cli_oneshot cases run
through ``cli.main`` in this process rather than one child process each.

A refactor that renames or stops calling a traced function would otherwise
break only the traced benchmark run.  ``perfbench/`` is read, never changed.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    # run.py pins the BLAS thread counts at import; put them back afterwards
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer
    import workloads

    return run, tracer, workloads


def test_every_pinned_span_fires(bench):
    run, tracer, workloads = bench
    spy = tracer.Tracer()
    spy.install(quadrature=True, also=("workloads",))
    try:
        for workload in ("dense_exact", "quadrature"):
            tally = run.Tally()
            item = workloads.INPUTS[workload](1, 1)[0]
            run.run_op(workload, item, spy.stage, tally)
            assert tally.failures == [], workload
    finally:
        spy.uninstall()
    calls = spy.tallies()["calls"]
    pinned = set(run.MUST_FIRE["dense_exact"]) | set(run.MUST_FIRE["quadrature"])
    missing = sorted(n for n in pinned - set(tracer.BENCH_SPANS) if not calls.get(n))
    assert missing == []


def test_every_cli_pinned_span_fires(bench, capsys, tmp_path):
    """One case of each cli_oneshot kind, run through ``cli.main`` in this
    process, with its input files under ``tmp_path``."""
    run, tracer, workloads = bench
    from cartanq import cli  # bound before the tracer wraps its imports

    cases = workloads.cli_inputs(1, len(workloads.CLI_KINDS))
    assert sorted(case["kind"] for case in cases) == sorted(workloads.CLI_KINDS)
    spy = tracer.Tracer()
    spy.install()
    try:
        for case in cases:
            argv = list(case["argv"])
            for rel, text in case["files"].items():
                path = tmp_path / Path(rel).name
                path.write_text(text)
                argv = [str(path) if arg == rel else arg for arg in argv]
            try:
                code = spy.stage("cli.main", cli.main, argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            captured = capsys.readouterr()
            workloads.cli_check(case, code, captured.out, captured.err)
    finally:
        spy.uninstall()
    calls = spy.tallies()["calls"]
    pinned = set(run.MUST_FIRE["cli_oneshot"]) - set(tracer.BENCH_SPANS)
    missing = sorted(n for n in pinned if not calls.get(n))
    assert missing == []
