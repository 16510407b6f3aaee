"""Who opens worker pools, and for how long.

Every pool in ``src/`` is opened as a ``with`` item, so it is closed on
every exit path, and only the loop that maps on a pool opens it: the
engines, not the streams they drive.  ``StreamingMeasurement`` and
``StreamingSynthesis`` keep no pool and have no ``close``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: The stream classes, by the module that defines them.
STREAMS = {
    "measurement/streaming.py": "StreamingMeasurement",
    "synthesis/engine.py": "StreamingSynthesis",
}


def _is_make_pool(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "make_pool"


def _unscoped_pools(tree: ast.AST) -> list[int]:
    """Lines of ``make_pool(...)`` calls that are not a ``with`` item."""
    scoped = {
        id(item.context_expr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.With, ast.AsyncWith))
        for item in node.items
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if _is_make_pool(node) and id(node) not in scoped
    )


def _pool_ownership(cls: ast.ClassDef) -> list[str]:
    """What ``cls`` does to own a pool: a ``close`` method, a ``_pool``."""
    found = [
        f"defines {node.name}()"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "close"
    ]
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and node.attr == "_pool" and (
            isinstance(node.ctx, ast.Store)
        ):
            found.append(f"sets _pool (line {node.lineno})")
    return found


def test_every_make_pool_call_is_a_with_item():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.relative_to(SRC)}:{line}" for line in _unscoped_pools(tree)
        ]
    assert offenders == []


def test_streams_own_no_pool():
    owned = {}
    for module, name in STREAMS.items():
        tree = ast.parse((SRC / module).read_text())
        (cls,) = [
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        owned[name] = _pool_ownership(cls)
    assert owned == {name: [] for name in STREAMS.values()}


def test_scanner_sees_unscoped_forms():
    tree = ast.parse(
        "with make_pool('thread', 2) as pool:\n"
        "    pass\n"
        "with timer(), execution.make_pool('thread', 2) as pool:\n"
        "    pass\n"
        "pool = make_pool('thread', 2)\n"
        "with closing(make_pool('thread', 2)) as pool:\n"
        "    pass\n"
        "self._pool = execution.make_pool('thread', 2)\n"
    )
    assert _unscoped_pools(tree) == [5, 6, 8]
    (cls,) = ast.parse(
        "class Stream:\n"
        "    def update(self):\n"
        "        self._pool = None\n"
        "    def close(self):\n"
        "        pass\n"
    ).body
    assert _pool_ownership(cls) == ["defines close()", "sets _pool (line 3)"]
