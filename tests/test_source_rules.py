"""Source rules checked over the whole package.

A certification must not rest on ``assert``: ``python -O`` strips it, so a
check written that way silently stops checking.  Library code raises
instead; this test fails on any ``assert`` statement under ``src/latmax``.
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
