"""Source rules checked over the whole package.

A certification must not rest on ``assert``: ``python -O`` strips it, so a
check written that way silently stops checking.  Library code raises
instead; this test fails on any ``assert`` statement under ``src/latmax``.

No module of the package imports ``scipy`` in any form: the join kernel
and the spectral norms (one numpy Lanczos) are pure numpy, the manifest
reads scipy's installed version from its dist-info directory, and
importing the CLI stays cheap.  scipy is a test dependency only.

No module of the package reads a system's dense views: kernels and
runners read its stored sparse rows.

The join kernel's marks pass has two callers.  ``_column_scan`` folds
each occupied cell's running sum into its high and low marks, and
``_mark_join`` is the one rule that turns marks into a join; they and
``_scatter`` are called only from ``systems._joins`` (every ordered join)
and ``typewriter.pass_profile`` (its marks and their join).  A scan
plan's term layout is known only in ``systems.py``: no other module reads
a ``_ScanPlan`` field.

An index outside [0, n) is rejected in one place: the only "index out of
range" raise in ``systems.py`` is in ``_gather``, which every kernel reads
its rows through.

Every batch and every cut is sized by one rule: only
``systems._batch_size`` reads ``_WORKING_SET``, the entries one batch may
hold across every array it keeps alive, so each caller states what an item
costs.  Tests may still patch the constant.

Whether a spectral norm takes the dense SVD is ``spectral_norm``'s own
decision: no module but ``estimation.py`` names ``_DENSE_SVD_CUTOFF``.

Single precision stays in ``constructions/hadamard.py``: its float32 Walsh
transforms are exact only because their inputs are +/-1 rows, whose every
partial sum is an integer below 2^24.

There is one +/-1 row stream: ``np.unpackbits`` is called once in the
package, in ``hadamard._sign_rows``, which turns both the sign cube's
counters and the sampled words into rows by one bits-to-signs step.

A ``Csr`` position's column is read in one place.  Position p holds column
cols[p % len(cols)], which is cols[p] only when every position stores its
own column; on rows that share one stored row of columns a stray
``x[cols]`` or ``cols[pos]`` reads the wrong columns.  So only
``Csr.columns`` subscripts the stored columns or indexes with them, and
only the ``Csr`` class and ``_as_rows`` (which validates the stored arrays
as given) read them at all.  A ``Csr`` does not unpack into its arrays.
"""

import ast
import dataclasses
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
    # views for callers outside the package
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno} .{node.attr}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute)
             and node.attr in ("vectors", "functionals")]
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
                    in ("_column_scan", "_scatter", "_mark_join")}
    assert callers == {("systems.py", "_joins"),
                       ("constructions/typewriter.py", "pass_profile")}, callers


def test_no_module_outside_systems_reads_a_plan_field():
    # the field names are unique in the package, so reading one anywhere
    # else is reading a plan
    from latmax.systems import _ScanPlan
    fields = {f.name for f in dataclasses.fields(_ScanPlan)}
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno} .{node.attr}"
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "systems.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in fields]
    assert not found, "plan fields read outside systems.py: " + ", ".join(found)


def test_only_gather_raises_index_out_of_range_in_systems():
    tree = ast.parse((SRC / "systems.py").read_text())
    # ast.walk is breadth first, so a nested function's name wins
    inside = {id(node): fn.name for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)}
    raisers = [inside.get(id(node)) for node in ast.walk(tree)
               if isinstance(node, ast.Raise)
               and "index out of range" in ast.unparse(node)]
    assert raisers == ["_gather"], raisers


def test_float32_appears_only_in_the_hadamard_module():
    found = [f"{path.relative_to(SRC.parent)}:{number}"
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "constructions" / "hadamard.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "float32" in line]
    assert not found, "float32 outside the Hadamard sign sweep: " + ", ".join(found)


def test_one_sign_row_stream_unpacks_bits():
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unpackbits"]
    assert [f.rsplit(":", 1)[0] for f in found] == ["latmax/constructions/hadamard.py"], found


# scopes that may read a Csr's stored columns, each with its reason
_COLUMN_SCOPES = {
    "Csr.columns": "the rule itself: position p holds column cols[p % len(cols)]",
    "_as_rows": "validates the stored arrays as given, before any position is read",
}


def _scopes(tree) -> dict:
    """id(node) -> the dotted class and function names around it."""
    scope_of, stack = {}, []

    def visit(node):
        named = isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        if named:
            stack.append(node.name)
        scope_of[id(node)] = ".".join(stack)
        for child in ast.iter_child_nodes(node):
            visit(child)
        if named:
            stack.pop()

    visit(tree)
    return scope_of


def _column_reads(tree) -> list:
    """(line, scope, what) of every read of a Csr's stored columns the rule
    forbids: a .cols read outside the Csr class, and a subscript of the
    columns or by them, also through a name bound from them."""
    scope_of, found = _scopes(tree), []
    reads = lambda node: any(isinstance(n, ast.Attribute) and n.attr == "cols"
                             and isinstance(n.ctx, ast.Load) for n in ast.walk(node))
    # a name bound from the columns, not from their length
    bound = {(scope_of[id(node)], t.id) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and reads(node.value)
             and getattr(getattr(node.value, "func", None), "id", None) != "len"
             for target in node.targets for t in ast.walk(target)
             if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        scope = scope_of[id(node)]
        if scope in _COLUMN_SCOPES:
            continue
        if (isinstance(node, ast.Attribute) and node.attr == "cols"
                and isinstance(node.ctx, ast.Load) and not scope.startswith("Csr.")):
            found.append((node.lineno, scope, "reads .cols"))
        if isinstance(node, ast.Subscript) and (reads(node) or any(
                isinstance(n, ast.Name) and (scope, n.id) in bound for n in ast.walk(node))):
            found.append((node.lineno, scope, "subscripts the columns"))
    return found


def test_only_the_column_accessor_subscripts_a_csrs_columns():
    found = [f"{path.relative_to(SRC.parent)}:{line} {scope} {what}"
             for path in sorted(SRC.rglob("*.py"))
             for line, scope, what in _column_reads(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, "Csr columns read outside Csr.columns: " + ", ".join(found)


def test_column_rule_sees_every_form():
    tree = ast.parse("def f(V, per_col, pos):\n"              # 1
                     "    a = V.cols[pos]\n"                  # 2
                     "    b = per_col[V.cols]\n"              # 3
                     "    t = V.cols\n"                       # 4
                     "    c = t[pos]\n"                       # 5
                     "class Csr:\n"                           # 6
                     "    def columns(self, pos):\n"          # 7
                     "        return self.cols[pos]\n"        # 8
                     "    def slice(self, lo):\n"             # 9
                     "        L = len(self.cols)\n"           # 10
                     "        table = self.cols\n"            # 11
                     "        head = self.vals[L:]\n"         # 12
                     "        return table[lo:]\n")           # 13
    assert sorted({(line, what) for line, _, what in _column_reads(tree)}) == [
        (2, "reads .cols"), (2, "subscripts the columns"),
        (3, "reads .cols"), (3, "subscripts the columns"),
        (4, "reads .cols"), (5, "subscripts the columns"),
        (13, "subscripts the columns")]


def _working_set_reads(tree) -> list:
    """(line, scope) of every read of _WORKING_SET, as a name or an attribute."""
    scope_of = _scopes(tree)
    return [(node.lineno, scope_of[id(node)]) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and getattr(node, "id", getattr(node, "attr", None)) == "_WORKING_SET"
            and isinstance(node.ctx, ast.Load)]


def test_only_batch_size_reads_the_working_set():
    found = [f"{path.relative_to(SRC.parent)}:{line} {scope}"
             for path in sorted(SRC.rglob("*.py"))
             for line, scope in _working_set_reads(
                 ast.parse(path.read_text(), filename=str(path)))
             if (path, scope) != (SRC / "systems.py", "_batch_size")]
    assert found == [] and _working_set_reads(
        ast.parse("def f():\n    return g(systems._WORKING_SET, _WORKING_SET)\n")) == [
            (2, "f"), (2, "f")], "working set read outside _batch_size: " + ", ".join(found)


def test_only_estimation_names_the_dense_svd_cutoff():
    found = [f"{path.relative_to(SRC.parent)}:{number}"
             for path in sorted(SRC.rglob("*.py"))
             if path != SRC / "estimation.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if "_DENSE_SVD_CUTOFF" in line]
    assert not found, "the dense SVD cutoff named outside estimation: " + ", ".join(found)


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
