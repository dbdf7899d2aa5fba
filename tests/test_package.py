"""Package-level properties: import cost and checks that survive ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cartanq

PACKAGE_DIR = Path(cartanq.__file__).resolve().parent


def _run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return done.stdout


def test_exact_pipeline_imports_without_numpy_or_sympy():
    out = _run_python(
        "import sys, cartanq, cartanq.cli\n"
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n"
        "from cartanq import CompactMetric\n"
        "print(CompactMetric.__module__)\n"
    )
    assert out.splitlines() == ["[]", "cartanq.quadrature"]


def test_no_assert_statements_in_package():
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []
