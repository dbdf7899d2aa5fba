"""Record the references of the dense_exact and quadrature universes.

    PYTHONPATH=src python3 perfbench/record_refs.py dense_exact
    PYTHONPATH=src python3 perfbench/record_refs.py quadrature

For each universe member this runs the workload's operation ``REPEATS``
times in one process, checks it, and stores the fastest wall time, which only
ranks the members into cost strata for the benchmark's stratified sampling.
Run it on an otherwise idle machine: a second process running alongside
distorts the ranking.  For dense_exact it also stores the
sha256 digest of the member's K, r and s coefficients, against which the
benchmark checks every later commit.  The files are written once, from a
commit whose outputs are trusted, and then kept fixed, so that a seed always
selects the same inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

REPEATS = 2


def fastest(op, item, before=None):
    best, out = None, None
    for _ in range(REPEATS):
        if before is not None:
            before()
        t0 = time.perf_counter()
        out = op(item)
        seconds = time.perf_counter() - t0
        best = seconds if best is None else min(best, seconds)
    return out, best


def record_dense(index):
    item = workloads.dense_member(index)
    out, seconds = fastest(workloads.dense_op, item)
    item["digest"] = workloads.series_digest((("K", out["K"]), ("r", out["r"]), ("s", out["s"])))
    workloads.dense_check(item, out)
    return {"digest": item["digest"], "cost_s": round(seconds, 3)}


def record_quadrature(index):
    item = workloads.quadrature_member(index)
    out, seconds = fastest(workloads.quadrature_op, item, workloads.clear_sympy_cache)
    workloads.quadrature_check(item, out)
    return {"cost_s": round(seconds, 3)}


def main():
    universes = {
        "dense_exact": (record_dense, workloads.DENSE_UNIVERSE),
        "quadrature": (record_quadrature, workloads.QUAD_UNIVERSE),
    }
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(universes))
    args = parser.parse_args()
    record, size = universes[args.workload]
    results = [record(index) for index in range(size)]
    lines = ",\n".join(json.dumps(entry) for entry in results)
    (HERE / "ref" / f"{args.workload}.json").write_text(
        '{"members": [\n' + lines + "\n]}\n")


if __name__ == "__main__":
    main()
