"""Package-level properties: import cost and checks that survive ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cartanq

PACKAGE_DIR = Path(cartanq.__file__).resolve().parent


def _run_python(code: str, *flags: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE_DIR.parent)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return done.stdout


def test_exact_pipeline_imports_without_numpy_or_sympy():
    """Every CLI process pays for what ``cartanq.cli`` imports, so it loads
    neither numpy and sympy nor the standard library's heavy ``dataclasses``,
    ``inspect`` and ``typing``.  ``-S`` keeps the imports of site's ``.pth``
    files out of the count."""
    out = _run_python(
        "import sys, cartanq, cartanq.cli\n"
        "heavy = ('dataclasses', 'inspect', 'typing', 'numpy', 'sympy')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "print(hasattr(cartanq, 'CompactMetric'))\n",
        "-S",
    )
    assert out.splitlines() == ["[]", "False"]


def test_exact_closed_forms_run_without_numpy_or_sympy():
    """The closed forms of a compact metric, their Taylor chart and its exact
    verdict need neither numpy nor sympy, nor ``dataclasses``, ``inspect`` and
    ``typing``; only evaluating them needs numpy and sympy.  The package does
    not re-export the compact-metric names."""
    out = _run_python(
        "import sys\n"
        "from fractions import Fraction\n"
        "import cartanq, cartanq.radial\n"
        "from cartanq.invariants import is_spherical\n"
        "metric = cartanq.radial.CompactMetric([0, Fraction(1, 10), Fraction(-1, 10)])\n"
        "print(bool(metric.k_zbar_zbar_z_z.p))\n"
        "chart = metric.taylor_chart(12)\n"
        "print(is_spherical(chart, chart.order - 4).spherical)\n"
        "print(hasattr(cartanq, 'CompactMetric'))\n"
        "heavy = ('dataclasses', 'inspect', 'typing', 'numpy', 'sympy')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n",
        "-S",
    )
    assert out.splitlines() == ["True", "False", "False", "[]"]


def _imported_roots(tree):
    """The top-level package of every import in a module, at any level."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


# heavy import -> the only modules allowed to import it
ALLOWED_IMPORTERS = {
    "numpy": {"quadrature.py"},
    "sympy": {"quadrature.py"},
    "dataclasses": set(),
    "inspect": set(),
    "typing": set(),
}


def test_only_quadrature_imports_numpy_or_sympy():
    """numpy and sympy only in quadrature; dataclasses (which loads inspect),
    inspect and typing nowhere: plain classes and namedtuples need neither."""
    offenders = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}: {root}"
            for root in sorted(set(_imported_roots(tree)) & set(ALLOWED_IMPORTERS))
            if path.name not in ALLOWED_IMPORTERS[root]
        ]
    assert offenders == []


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


def _name(node):
    """The class name that a raise or a base refers to, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def test_every_error_class_is_raised_or_subclassed():
    """An error class that no module raises and no class extends is dead API."""
    errors = ast.parse((PACKAGE_DIR / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                used.update(map(_name, node.bases))
            elif isinstance(node, ast.Raise) and path.name != "errors.py":
                used.add(_name(node.exc))
    assert sorted(defined - used) == []


def test_star_import_resolves_every_exported_name():
    """A name left in ``__all__`` after its definition is deleted fails here."""
    out = _run_python(
        "import cartanq\n"
        "from cartanq import *\n"
        "print(sorted(set(cartanq.__all__) - set(globals())))\n"
    )
    assert out.splitlines() == ["[]"]
