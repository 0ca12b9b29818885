"""Source rules checked over the whole package.

A certification must not rest on ``assert``: ``python -O`` strips it, so a
check written that way silently stops checking.  Library code raises
instead; this test fails on any ``assert`` statement under ``src/latmax``.

The join kernel is pure numpy: ``systems`` and ``greedy`` import no
``scipy`` module, so neither the kernel nor the import time of every
system-building run depends on it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "latmax"


def test_library_code_has_no_assert_statements():
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources found under {SRC}"
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in library code: " + ", ".join(found)


def test_join_kernel_modules_import_no_scipy():
    found = []
    for name in ("systems.py", "greedy.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno} {mod}" for mod in modules
                      if mod == "scipy" or mod.startswith("scipy.")]
    assert not found, "scipy imports in the join kernel: " + ", ".join(found)
