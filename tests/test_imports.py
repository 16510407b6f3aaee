"""What importing the package loads.

``scipy.stats``, ``scipy.optimize`` and ``networkx`` stay off the import
path: no module of ``src/`` imports them at module level (the functions
that need scipy import it on first use, and routing needs no networkx),
and ``repro`` resolves its subpackages and re-exported names lazily.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _imports(node: ast.Import | ast.ImportFrom, target: str) -> bool:
    """Whether ``node`` imports the dotted module ``target`` or below it."""
    if isinstance(node, ast.Import):
        return any(
            a.name == target or a.name.startswith(target + ".")
            for a in node.names
        )
    module = node.module or ""
    parent, _, leaf = target.rpartition(".")
    if parent and module == parent:
        return any(a.name == leaf for a in node.names)
    return module == target or module.startswith(target + ".")


def _imports_scipy_stats(node: ast.Import | ast.ImportFrom) -> bool:
    return _imports(node, "scipy.stats")


def _offenders(target: str) -> list[str]:
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _module_level_imports(tree):
            if _imports(node, target):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return offenders


def test_no_module_level_scipy_stats_import():
    assert _offenders("scipy.stats") == []


@pytest.mark.parametrize("target", ["scipy.optimize", "networkx"])
def test_no_module_level_optimize_or_networkx_import(target):
    assert _offenders(target) == []


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


def test_scanner_sees_optimize_and_networkx_forms():
    source = (
        "from scipy import optimize\n"
        "from scipy.optimize import brentq\n"
        "import scipy.optimize._minimize\n"
        "import networkx as nx\n"
        "from networkx.algorithms import shortest_paths\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n"
        "from scipy import special\n"
        "import networkxlike\n"
    )
    tree = ast.parse(source)
    found = {
        target: sorted(
            n.lineno for n in _module_level_imports(tree)
            if _imports(n, target)
        )
        for target in ("scipy.optimize", "networkx")
    }
    assert found == {"scipy.optimize": [1, 2, 3], "networkx": [4, 5]}


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )


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
    result = _run(script)
    assert result.returncode == 0, result.stderr


def test_import_pipeline_and_routing_leave_heavy_modules_unloaded():
    script = (
        "import sys\n"
        "heavy = ('networkx', 'scipy.optimize', 'repro.experiments')\n"
        "def loaded():\n"
        "    return [m for m in heavy if m in sys.modules]\n"
        "import repro\n"
        "assert loaded() == [], ('import repro', loaded())\n"
        "import repro.pipeline\n"
        "assert loaded() == [], ('import repro.pipeline', loaded())\n"
        "from repro.network import ECMPRouting, ShortestPathRouting, abilene\n"
        "topo = abilene()\n"
        "reduced = topo.without_links([topo.links[0]])\n"
        "for strategy in (ECMPRouting(), ShortestPathRouting()):\n"
        "    for sink in topo.routers[1:]:\n"
        "        strategy.route(topo, topo.routers[0], sink)\n"
        "        strategy.route(reduced, topo.routers[0], sink)\n"
        "assert loaded() == [], ('routing', loaded())\n"
    )
    result = _run(script)
    assert result.returncode == 0, result.stderr


def test_every_public_name_resolves_and_is_listed():
    listed = set(dir(repro))
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
