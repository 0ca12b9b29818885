"""Tests of the benchmark itself, at the tiny sizes of --quick.

Run from the repository root::

    python3 -m pytest benchmarks/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--quick", "--seed", "0",
                  "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)
    text = "\n".join(lines[:-1])
    for name, unit in list(expected) + [("failed_frac", "fraction")]:
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}\b", text,
                         re.M), name
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "structured-scale":
        # greedy is bypassed; sup_search's budget overrun stays visible
        assert metrics["greedy.calls"] == 0
        assert metrics["estimation.sup_search.evals_per_budget"] == 2026 / 2000
        assert metrics["estimation.spectral_norm.calls_arpack"] > 0
    if trace and workload == "dense-join":
        assert metrics["constructions.hadamard.calls"] == 0
        assert metrics["constructions.lindenstrauss.calls"] == 0
        assert metrics["estimation.sup_search.evals"] == 0
        assert metrics["greedy.kvee.evals"] > 0


def _quick_dense_join(tmp_path, monkeypatch, seed, entries, reference_dir):
    monkeypatch.chdir(ROOT)
    return run.run_workload("dense-join", entries, seed, 0, 0, quick=True,
                            reference_dir=reference_dir,
                            work_root=tmp_path / "work")


def test_tampered_reference_value_counts_as_failure(tmp_path, monkeypatch):
    ref = tmp_path / "quick" / "dense-join"
    shutil.copytree(run.REFERENCE_DIR / "quick" / "dense-join", ref)
    table = ref / "haar-kvee-values.csv"
    rows = table.read_text().splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    rows[1] = ",".join(cells)
    table.write_text("\n".join(rows) + "\n")
    report = _quick_dense_join(tmp_path, monkeypatch, 0,
                               run.WORKLOADS["dense-join"], tmp_path)
    failed = [r for runs in report["passes"] for r in runs if r.error]
    assert {r.label for r in failed} == {"haar-kvee"}
    assert report["failed"] == len(report["passes"])
    assert report["failed_frac"] > 0
    assert "reference" in failed[0].error


def test_nonzero_exit_counts_as_failure(tmp_path, monkeypatch):
    # J=2 is below the runner's range: a usage error, exit code 2
    bad = run.Entry("bad", "haar-kvee", quick=(("J", 2),))
    entries = run.WORKLOADS["dense-join"] + (bad,)
    report = _quick_dense_join(tmp_path, monkeypatch, 1, entries,
                               run.REFERENCE_DIR)
    failed = [r for runs in report["passes"] for r in runs if r.error]
    assert {r.label for r in failed} == {"bad"}
    assert failed[0].error == "exit code 2"
    assert report["failed_frac"] == len(failed) / report["attempted"] > 0


def test_install_wraps_every_binding():
    script = (
        "import sys, latmax.cli, tracer\n"
        "mods = tracer._latmax_modules()\n"
        "origs = [getattr(sys.modules[m], a) for m, a, _ in tracer.SPANS + tracer.COUNTERS"
        " if '.' not in a]\n"
        "tracer.install(tracer.Recorder('x'))\n"
        "left = [(m.__name__, k) for m in mods for k, v in vars(m).items()"
        " if any(v is o for o in origs)]\n"
        "assert not left, left\n"
        "import latmax.experiments as e, latmax.constructions.triangular as t\n"
        "assert e.kvee_estimate.__wrapped__ is not None\n"
        "assert t.spectral_norm is sys.modules['latmax.estimation'].spectral_norm\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dense-join",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
