"""Traced CLI process: install the tracer, then run ``cartanq.cli.main(argv)``.

    python3 perfbench/cli_child.py TALLY_JSONL SPANS_JSONL ARG...

Behaves like ``python -m cartanq.cli ARG...`` (same output and exit code; an
uncaught exception still prints its traceback) and, on the way out,
appends its span tallies to TALLY_JSONL and its span records to SPANS_JSONL.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    tally_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    from cartanq import cli

    try:
        code = tracer.stage("cli.main", cli.main, argv)
    finally:
        sys.stdout.flush()
        with open(tally_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(tracer.tallies()) + "\n")
        tracer.write_spans(spans_path, mode="a")
    sys.exit(code)
