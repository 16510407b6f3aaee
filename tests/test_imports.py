"""What importing the package loads: ``scipy.stats`` stays off the path."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _module_level_imports(tree: ast.AST):
    """Import nodes that run at import time (not inside a function)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            stack.append(child)


def _imports_scipy_stats(node: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(node, ast.Import):
        return any(
            a.name == "scipy.stats" or a.name.startswith("scipy.stats.")
            for a in node.names
        )
    module = node.module or ""
    if module == "scipy":
        return any(a.name == "stats" for a in node.names)
    return module == "scipy.stats" or module.startswith("scipy.stats.")


def test_no_module_level_scipy_stats_import():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree):
            if _imports_scipy_stats(node):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_scanner_sees_module_level_forms():
    source = (
        "import scipy.stats\n"
        "from scipy import stats\n"
        "from scipy.stats import norm\n"
        "try:\n    import scipy.stats as st\nexcept ImportError:\n    pass\n"
        "class C:\n    from scipy import stats\n"
        "def f():\n    from scipy import stats\n"
        "from scipy import special\n"
    )
    found = [n.lineno for n in _module_level_imports(ast.parse(source))
             if _imports_scipy_stats(n)]
    assert sorted(found) == [1, 2, 3, 5, 9]


def test_import_and_large_ks_test_leave_scipy_stats_unloaded():
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import repro\n"
        "assert 'scipy.stats' not in sys.modules, 'import repro'\n"
        "import repro.pipeline\n"
        "assert 'scipy.stats' not in sys.modules, 'import repro.pipeline'\n"
        "from repro.stats import exponentiality\n"
        "gaps = np.random.default_rng(0).exponential(1.0, 20_000)\n"
        "assert exponentiality(gaps).ks_method == 'asymptotic'\n"
        "assert 'scipy.stats' not in sys.modules, 'exponentiality'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    assert result.returncode == 0, result.stderr
