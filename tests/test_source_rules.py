"""Source rules checked over the whole package.

A certification must not rest on ``assert``: ``python -O`` strips it, so a
check written that way silently stops checking.  Library code raises
instead; this test fails on any ``assert`` statement under ``src/latmax``.

No module of the package imports ``scipy`` in any form: the join kernel
and the spectral norms (one numpy Lanczos) are pure numpy, the manifest
reads scipy's installed version from its dist-info directory, and
importing the CLI stays cheap.  scipy is a test dependency only.

Kernels read a system's stored sparse rows, never its dense views.

The join kernel's table is reduced in one place: ``_column_scan`` and
``_scatter`` are called only from ``systems._joins`` (the abs-max of every
join) and ``typewriter.pass_profile`` (its high and low marks).

Single precision stays in ``constructions/hadamard.py``: its float32 Walsh
transforms are exact only because their inputs are +/-1 rows, whose every
partial sum is an integer below 2^24.
"""

import ast
import os
import subprocess
import sys
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


def test_no_module_reads_the_dense_system_views():
    # a system stores its rows sparse; .vectors and .functionals are dense
    # views for callers outside the package, and only _run_rademacher, which
    # sums |x_k| over every coordinate, reads one.  A WitnessBundle's
    # .vectors is a dict of named elements, always indexed by a string.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_run_rademacher"
                  for node in ast.walk(fn)}
        exempt |= {id(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Subscript)
                   and isinstance(node.slice, ast.Constant)
                   and isinstance(node.slice.value, str)}
        found += [f"{path.relative_to(SRC.parent)}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("vectors", "functionals")
                  and id(node) not in exempt]
    assert not found, "dense system views read in the package: " + ", ".join(found)


def test_column_scan_is_reduced_only_by_joins_and_the_typewriter_pass():
    callers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # ast.walk is breadth first, so a nested function's name wins
        inside = {id(node): fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
        callers |= {(str(path.relative_to(SRC)), inside.get(id(node)))
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    in ("_column_scan", "_scatter")}
    assert callers == {("systems.py", "_joins"),
                       ("constructions/typewriter.py", "pass_profile")}, callers


def test_float32_appears_only_in_the_hadamard_module():
    found = [f"{path.relative_to(SRC.parent)}:{number}"
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "constructions" / "hadamard.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "float32" in line]
    assert not found, "float32 outside the Hadamard sign sweep: " + ", ".join(found)


_HEAVY_SCIPY = ("scipy.sparse", "scipy.linalg", "scipy.fft")
_DYNAMIC_IMPORTS = ("import_module", "__import__")


def _is_heavy_scipy(module):
    return any(module == m or module.startswith(m + ".") for m in _HEAVY_SCIPY)


def _is_scipy(module):
    return module == "scipy" or module.startswith("scipy.")


def _imports(path):
    """(line, module) for every module a file names in an import: each
    ``import a.b``, ``from a import b`` as both ``a`` and ``a.b``, and the
    string argument of an ``import_module`` or ``__import__`` call."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in _DYNAMIC_IMPORTS):
            modules = [node.args[0].value]
        else:
            continue
        found += [(node.lineno, mod) for mod in modules]
    return found


def test_join_kernel_modules_import_no_scipy():
    found = [f"{name}:{line} {mod}" for name in ("systems.py", "greedy.py")
             for line, mod in _imports(SRC / name) if _is_scipy(mod)]
    assert not found, "scipy imports in the join kernel: " + ", ".join(found)


def test_no_module_imports_scipy_sparse_linalg_or_fft():
    found = [f"{path.relative_to(SRC.parent)}:{line} {mod}"
             for path in sorted(SRC.rglob("*.py"))
             for line, mod in _imports(path) if _is_heavy_scipy(mod)]
    assert not found, "scipy submodule imports: " + ", ".join(found)


def test_no_module_imports_scipy():
    found = [f"{path.relative_to(SRC.parent)}:{line} {mod}"
             for path in sorted(SRC.rglob("*.py"))
             for line, mod in _imports(path) if _is_scipy(mod)]
    assert not found, "scipy imports in the package: " + ", ".join(found)


def test_import_rule_sees_every_form(tmp_path):
    source = tmp_path / "forms.py"
    source.write_text("import scipy\n"
                      "import numpy, scipy.sparse as sp\n"
                      "from scipy import linalg\n"
                      "import importlib\n"
                      "importlib.import_module('scipy.fft')\n"
                      "__import__('scipy')\n"
                      "from latmax import systems\n")
    assert [mod for _, mod in _imports(source) if _is_scipy(mod)] == \
        ["scipy", "scipy.sparse", "scipy", "scipy.linalg", "scipy.fft", "scipy"]


def test_cli_import_loads_no_scipy_submodules():
    script = ("import sys, latmax.cli\n"
              "print('\\n'.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    loaded = [m for m in proc.stdout.split() if _is_scipy(m)]
    assert not loaded, "import latmax.cli loads " + ", ".join(loaded)


def test_cli_import_loads_no_mpmath():
    # only lorentz's Euler-Maclaurin tail calls mpmath, and imports it there
    script = "import sys, latmax.cli\nprint('mpmath' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
