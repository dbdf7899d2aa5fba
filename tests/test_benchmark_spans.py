"""The benchmark's span pins: every span that ``perfbench/run.py --trace 1``
requires on the in-process workloads still fires on the program.

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
