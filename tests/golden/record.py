#!/usr/bin/env python3
"""Golden artifacts: the seed-0 files that tests/test_golden.py pins.

Two sets of runs are pinned.  ``defaults/`` holds every catalog entry at
its default parameters.  ``quick/<workload>/`` holds every benchmark entry
at its quick size, with the parameters read from ``benchmarks/run.py``.
Each run keeps its values file, its growth file if it writes one, and its
manifest without the fields that differ from run to run (``VOLATILE``).
``host.json`` records what the bytes depend on besides the code: the
Python, numpy and mpmath versions, the BLAS build, the machine and the CPU
features numpy dispatches on.

A change that means to move values rewrites the files with::

    python3 tests/golden/record.py

which records the package under ``src/`` beside it and prints every moved
cell, so the change can list them.
"""

import csv
import importlib.util
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parents[1]
RUN_PY = ROOT / "benchmarks" / "run.py"
HOST = GOLDEN / "host.json"

# the comparison off the recorded host, as in benchmarks/run.py
REL_TOL = 1e-9
ABS_TOL = 1e-12

# manifest keys whose values change from run to run, as (section, key)
VOLATILE = ((None, "wall_time_seconds"), (None, "peak_rss_mb"),
            ("config", "output_dir"))

# the files a run may write, by role and suffix
_NAMES = ("values.csv", "values.json", "growth.json", "manifest.json")

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")


def _workloads():
    """benchmarks/run.py's WORKLOADS, loaded by path.  run.py imports its
    sibling tracer.py, so the benchmarks directory is on sys.path while it
    loads."""
    sys.path.insert(0, str(RUN_PY.parent))
    try:
        spec = importlib.util.spec_from_file_location("benchmark_run", RUN_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(RUN_PY.parent))
        sys.modules.pop("tracer", None)
    return module.WORKLOADS


def entries():
    """(group, label, experiment, params) for every pinned run."""
    from latmax.experiments import list_experiments
    runs = [("defaults", name, name, {}) for name, _, _ in list_experiments()]
    for workload, group in sorted(_workloads().items()):
        runs += [(f"quick/{workload}", e.label, e.experiment, dict(e.quick))
                 for e in group]
    return runs


def host():
    import mpmath
    import numpy
    from numpy._core import _multiarray_umath as umath
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine(),
            "cpu_dispatch": sorted(f for f in umath.__cpu_dispatch__
                                   if umath.__cpu_features__.get(f))}


def _strip(manifest: dict) -> dict:
    for section, key in VOLATILE:
        (manifest[section] if section else manifest).pop(key, None)
    return manifest


def artifacts(experiment, params, out_dir) -> dict:
    """{role + suffix: bytes} of one seed-0 run, the manifest stripped of
    VOLATILE and written as run() writes it."""
    from latmax.experiments import ExperimentConfig, run
    result = run(ExperimentConfig(experiment, params=params, output_dir=str(out_dir)))
    files = {}
    for role, path in result.files.items():
        path = Path(path)
        data = path.read_bytes()
        if role == "manifest":
            data = (json.dumps(_strip(json.loads(data)), indent=2) + "\n").encode()
        files[role + path.suffix] = data
    return files


def golden(group, label) -> dict:
    """The recorded files of one run, keyed as artifacts() keys them."""
    return {name: path.read_bytes() for name in _NAMES
            if (path := GOLDEN / group / f"{label}-{name}").is_file()}


def _same_number(a, b, tol) -> bool:
    if tol == 0.0 or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return math.isclose(a, b, rel_tol=tol, abs_tol=ABS_TOL) or (
        math.isnan(a) and math.isnan(b))


def _same_text(a: str, b: str, tol) -> bool:
    """Equal strings, or at tol > 0 strings whose numbers match at tol and
    whose text between the numbers is equal."""
    if a == b or tol == 0.0:
        return a == b
    pa, pb = _NUMBER.split(a), _NUMBER.split(b)
    return len(pa) == len(pb) and all(
        _same_number(float(x), float(y), tol) if i % 2 else x == y
        for i, (x, y) in enumerate(zip(pa, pb)))


def _moved_json(got, want, tol, where):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(want)} -> {sorted(got)}"]
        return [m for key in want
                for m in _moved_json(got[key], want[key], tol, f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: {len(want)} items -> {len(got)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _moved_json(g, w, tol, f"{where}[{i}]")]
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers):
        same = _same_number(got, want, tol)
    elif isinstance(want, str) and isinstance(got, str):
        same = _same_text(got, want, tol)
    else:
        same = got == want
    return [] if same else [f"{where}: {want!r} -> {got!r}"]


def moved(name, got: bytes, want: bytes, tol=0.0, drop=()):
    """The cells of file `name` that differ between the recorded bytes `want`
    and the new bytes `got`: exactly at tol = 0, else beyond rel tol.  A
    JSON file's top-level keys in `drop` are not compared."""
    if name.endswith(".csv"):
        rows_got = list(csv.reader(got.decode().splitlines()))
        rows_want = list(csv.reader(want.decode().splitlines()))
        if len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]:
            return [f"{name}: table shape or columns moved"]
        header = rows_want[0]
        out = []
        for i, (g, w) in enumerate(zip(rows_got[1:], rows_want[1:]), start=1):
            if len(g) != len(w):
                out.append(f"{name} row {i}: {len(w)} cells -> {len(g)}")
                continue
            out += [f"{name} row {i} {col}: {b} -> {a}"
                    for col, a, b in zip(header, g, w) if not _same_text(a, b, tol)]
        return out
    tree_got, tree_want = json.loads(got), json.loads(want)
    for key in drop:
        tree_got.pop(key, None)
        tree_want.pop(key, None)
    return _moved_json(tree_got, tree_want, tol, name)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (group, label, experiment, params) in enumerate(entries()):
            files = artifacts(experiment, params, Path(tmp) / str(i))
            old = golden(group, label)
            folder = GOLDEN / group
            folder.mkdir(parents=True, exist_ok=True)
            for name in sorted(set(old) | set(files)):
                shown = f"{group}/{label}-{name}"
                if name not in files:
                    (folder / f"{label}-{name}").unlink()
                    print(f"{shown}: removed")
                elif name not in old:
                    print(f"{shown}: added")
                elif files[name] != old[name]:
                    for line in moved(shown, files[name], old[name]):
                        print(line)
                else:
                    continue
                changed += 1
                if name in files:
                    (folder / f"{label}-{name}").write_bytes(files[name])
    record = json.dumps(host(), indent=2) + "\n"
    if not HOST.is_file() or HOST.read_text() != record:
        print(f"host.json: {record.strip()}")
        HOST.write_text(record)
    print(f"{changed} golden files changed")


if __name__ == "__main__":
    main()
