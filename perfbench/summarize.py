"""Summarize benchmark results: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [RESULT_JSON ...] [--json OUT]

Reads the result files that run.py writes to perfbench/out/ (all of them by
default), groups them by workload and trace mode, and prints for every metric
the median over the runs, the first and third quartiles and the spread
(third minus first quartile, as a share of the median).  With --json the same
table, plus the environment of the first run, is written to OUT.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(paths):
    groups = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        key = (report["workload"], report["trace"])
        groups.setdefault(key, []).append(report)
    table = {}
    for (workload, trace), reports in sorted(groups.items()):
        entry = {"runs": len(reports), "seeds": sorted(r["seed"] for r in reports),
                 "attempted": sum(r["result"]["attempted"] for r in reports),
                 "failed": sum(r["result"]["failed"] for r in reports),
                 "metrics": {}}
        for name, metric in reports[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in reports]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            entry["metrics"][name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        table[f"{workload} trace={trace}"] = entry
    return table, groups


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*")
    parser.add_argument("--json", dest="json_out")
    args = parser.parse_args()
    paths = args.results or sorted(OUT.glob("result_*.json"))
    table, groups = summarize(paths)
    for key, entry in table.items():
        print(f"{key}: {entry['runs']} runs, {entry['failed']} of {entry['attempted']} "
              f"operations failed")
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:40s} {m['median']:.6g} {m['unit']} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {spread}")
    if args.json_out:
        first = next(iter(groups.values()))[0]
        environment = dict(first["environment"])
        environment.pop("seed")
        Path(args.json_out).write_text(
            json.dumps({"environment": environment, "results": table}, indent=1) + "\n")


if __name__ == "__main__":
    main()
