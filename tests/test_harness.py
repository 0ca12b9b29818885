"""Experiment catalog and CLI contract tests."""

import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latmax import experiments
from latmax.constructions import lindenstrauss as _lindenstrauss
from latmax.constructions import lorentz as _lorentz
from latmax.constructions import orlicz as _orlicz
from latmax.constructions import rademacher as _rademacher
from latmax.constructions import triangular as _triangular
from latmax.cli import main
from latmax.experiments import ExperimentConfig, UsageError, list_experiments, run


# ---------------------------------------------------------------- catalog

def test_catalog_is_alphabetized_and_complete():
    entries = list_experiments()
    names = [name for name, _, _ in entries]
    assert names == sorted(names)
    assert len(names) == 12
    assert "hadamard-mixed" in names
    assert "haar-branch" in names
    for _, summary, defaults in entries:
        assert summary and isinstance(defaults, dict) and defaults


def test_unknown_experiment_rejected_before_output(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(UsageError, match="unknown experiment"):
        run(ExperimentConfig("no-such-thing", output_dir=str(out)))
    assert not out.exists()


def test_unknown_and_malformed_params_rejected(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(UsageError, match="unknown parameter"):
        run(ExperimentConfig("trace-dual", params={"bogus": 1},
                             output_dir=str(out)))
    with pytest.raises(UsageError, match="expects an integer"):
        run(ExperimentConfig("trace-dual", params={"n_max": "many"},
                             output_dir=str(out)))
    with pytest.raises(UsageError, match="format"):
        run(ExperimentConfig("trace-dual", format="xml", output_dir=str(out)))
    assert not out.exists()


def test_out_of_range_params_rejected(tmp_path):
    bad = [("haar-bibasis", {"J": 40}),
           ("rademacher-l1", {"m_max": 4}),
           ("lorentz-blocking", {"n": 64}),
           ("greedy-uniform-bound", {"blocks": 9})]
    for name, params in bad:
        with pytest.raises(UsageError):
            run(ExperimentConfig(name, params=params, output_dir=str(tmp_path)))


def test_every_experiment_round_trips_with_defaults(tmp_path):
    start = time.perf_counter()
    for name, _, defaults in list_experiments():
        result = run(ExperimentConfig(name, output_dir=str(tmp_path)))
        assert result.passed, (name, [c for c in result.checks if not c["passed"]])
        assert result.rows and result.columns
        manifest = json.loads((tmp_path / f"{name}-manifest.json").read_text())
        assert manifest["failed"] is False
        assert manifest["config"]["params"] == defaults
        assert manifest["config"]["seed"] == 0
        assert manifest["wall_time_seconds"] >= 0.0
        assert manifest["versions"]["numpy"] == np.__version__
        values = (tmp_path / f"{name}-values.csv").read_text().splitlines()
        assert values[0].split(",") == list(result.columns)
        assert len(values) == len(result.rows) + 1
        if result.fits:
            growth = json.loads((tmp_path / f"{name}-growth.json").read_text())
            assert set(growth) == set(result.fits)
            for fit in growth.values():
                assert fit["model"] == "c * n^a * log(n)^b"
    assert time.perf_counter() - start < 60.0


# per experiment, quick-size parameters and two admissible values of each
# parameter; rademacher-l1's n moves only its check detail, which at 10
# trials differs between n = 8 and n = 10 (not between 4 and 6)
_SETTINGS = {
    "greedy-uniform-bound": ({}, {"blocks": (1, 2)}),
    "haar-bibasis": ({"J": 3, "samples": 4}, {"J": (2, 3), "samples": (2, 4)}),
    "haar-branch": ({"J_min": 2, "J_max": 4},
                    {"J_min": (2, 3), "J_max": (3, 4), "p": (2.0, 3.0)}),
    "haar-kvee": ({"J": 3, "budget": 10}, {"J": (3, 4), "budget": (10, 20)}),
    "hadamard-mixed": ({"n": 3, "samples": 10, "alphas": 10},
                       {"n": (2, 3), "samples": (10, 20), "alphas": (10, 20)}),
    "lindenstrauss-witness": ({}, {"depth": (2, 3)}),
    "lorentz-blocking": ({"n": 512},
                         {"p": (4.0, 3.0), "q": (2.0, 1.5), "n": (512, 1024)}),
    "orlicz-orderbound": ({}, {"K": (4, 8)}),
    "rademacher-l1": ({"n": 8, "trials": 10, "m_max": 8},
                      {"n": (8, 10), "trials": (10, 20), "m_max": (8, 10)}),
    "trace-dual": ({"n_min": 32, "n_max": 512},
                   {"n_min": (32, 64), "n_max": (256, 512)}),
    "triangular": ({"p": 3.0, "n_min": 2, "n_max": 8, "extremes_at": 4},
                   {"p": (3.0, 4.0), "n_min": (2, 4), "n_max": (4, 8),
                    "extremes_at": (2, 4)}),
    "typewriter": ({}, {"J": (1, 2)}),
}


def _outputs(experiment, params, out):
    """A run's values and growth bytes, and its manifest without the fields
    that echo the config or the host."""
    result = run(ExperimentConfig(experiment, params=params, output_dir=str(out)))
    got = {role: Path(path).read_bytes() for role, path in result.files.items()}
    manifest = json.loads(got.pop("manifest"))
    for key in ("config", "versions", "wall_time_seconds", "peak_rss_mb"):
        del manifest[key]
    return got, manifest


def test_every_parameter_selects_something(tmp_path):
    # a parameter whose two values write the same values, growth and
    # manifest is a setting that selects nothing
    assert {(name, key) for name, (_, pairs) in _SETTINGS.items() for key in pairs} == {
        (name, key) for name, _, defaults in list_experiments() for key in defaults}
    for name, (quick, pairs) in _SETTINGS.items():
        for key, (a, b) in pairs.items():
            runs = [_outputs(name, {**quick, key: value}, tmp_path / str(value))
                    for value in (a, b)]
            assert runs[0] != runs[1], (name, key)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units")
def test_manifest_records_the_peak_rss(tmp_path):
    run(ExperimentConfig("typewriter", params={"J": 3}, output_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "typewriter-manifest.json").read_text())
    # the interpreter and numpy alone take more than 10 MB
    assert 10.0 < manifest["peak_rss_mb"] < 1e6
    keys = list(manifest)
    assert keys.index("peak_rss_mb") == keys.index("wall_time_seconds") + 1


def test_manifest_records_the_installed_mpmath_or_null(tmp_path, monkeypatch):
    import mpmath
    run(ExperimentConfig("typewriter", output_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "typewriter-manifest.json").read_text())
    assert manifest["versions"]["mpmath"] == mpmath.__version__
    # no module imports scipy, so the manifest does not name it
    assert "scipy" not in manifest["versions"]
    # a distribution whose name extends mpmath's is not mpmath
    (tmp_path / "site" / "mpmath_stubs-1.0.dist-info").mkdir(parents=True)
    (tmp_path / "site" / "mpmath-stubs-2.0.dist-info").mkdir()
    monkeypatch.setattr(sys, "path", [str(tmp_path / "site")])
    assert experiments._installed_version("mpmath") is None
    run(ExperimentConfig("typewriter", output_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "typewriter-manifest.json").read_text())
    assert manifest["versions"]["mpmath"] is None


def test_growth_json_only_where_a_fit_applies(tmp_path):
    run(ExperimentConfig("greedy-uniform-bound", output_dir=str(tmp_path)))
    assert not (tmp_path / "greedy-uniform-bound-growth.json").exists()
    run(ExperimentConfig("trace-dual", output_dir=str(tmp_path)))
    growth = json.loads((tmp_path / "trace-dual-growth.json").read_text())
    assert abs(growth["pairing"]["a"] - 1.0) <= 0.05
    assert abs(growth["pairing"]["b"] - 1.0) <= 0.25


def test_value_columns_byte_identical_across_reruns(tmp_path):
    for name in ("haar-kvee", "hadamard-mixed", "haar-bibasis"):
        a = tmp_path / "a"
        b = tmp_path / "b"
        params = {"samples": 500} if name == "haar-bibasis" else {}
        run(ExperimentConfig(name, params=params, output_dir=str(a)))
        run(ExperimentConfig(name, params=params, output_dir=str(b)))
        left = (a / f"{name}-values.csv").read_bytes()
        right = (b / f"{name}-values.csv").read_bytes()
        assert left == right


def test_json_values_format(tmp_path):
    result = run(ExperimentConfig("trace-dual", format="json",
                                  output_dir=str(tmp_path)))
    payload = json.loads((tmp_path / "trace-dual-values.json").read_text())
    assert payload["columns"] == list(result.columns)
    assert payload["rows"][0][0] == 64
    assert not (tmp_path / "trace-dual-values.csv").exists()


def test_manifest_logs_search_seed_and_budget(tmp_path):
    run(ExperimentConfig("haar-bibasis", params={"samples": 50}, seed=7,
                         output_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "haar-bibasis-manifest.json").read_text())
    assert manifest["search"] == {"seed": 7, "budget": 50}


def test_seed_moves_samples_but_not_certified_values(tmp_path):
    rows = {}
    for seed in (0, 1):
        out = tmp_path / str(seed)
        rows[seed] = run(ExperimentConfig("hadamard-mixed", seed=seed,
                                          output_dir=str(out))).rows
    # modulus-sum norms are closed-form; the sampled sign sweep may move
    for r0, r1 in zip(rows[0], rows[1]):
        assert r0[4] == r1[4]


def test_failed_check_still_writes_artifacts(tmp_path, monkeypatch):
    def runner(params, seed):
        return experiments._Table(
            ("k", "v"), [(1, 0.5)],
            [{"name": "forced", "passed": False, "detail": "stub"}])
    entry = experiments._Entry("stub", {"k": 1}, runner)
    monkeypatch.setitem(experiments._CATALOG, "stub-fail", entry)
    result = run(ExperimentConfig("stub-fail", output_dir=str(tmp_path)))
    assert not result.passed
    manifest = json.loads((tmp_path / "stub-fail-manifest.json").read_text())
    assert manifest["failed"] is True
    assert (tmp_path / "stub-fail-values.csv").read_text().startswith("k,v")


_chain_prefix_join = _lindenstrauss.chain_prefix_join
_chain_level = _lindenstrauss._level


def _off_by_one_join(depth):
    join_norms, x_norms, telescopes = _chain_prefix_join(depth)
    return [v + 1.0 for v in join_norms], x_norms, telescopes


def _walk_off_the_chain(d, running, join, norms):
    # the level rule, with one coordinate of the first level's nodes window
    # moved off the chain once the level's norms are taken
    _chain_level(d, running, join, norms)
    if d == 0:
        running[0][-1] += 1.0


@pytest.mark.parametrize("experiment, module, name, stub, check", [
    ("orlicz-orderbound", _orlicz, "luxemburg_norm",
     lambda x: 1.0 / len(x), "norms_strictly_increase"),
    ("trace-dual", _triangular, "tau_singular_values", np.zeros, "_floor_holds"),
    ("lindenstrauss-witness", _lindenstrauss, "chain_prefix_join", _off_by_one_join,
     "final_join_norm"),
    ("lindenstrauss-witness", _lindenstrauss, "_level", _walk_off_the_chain,
     "chain_telescopes"),
    # at ||S|| = 1 the inverse bound is inf, not a ZeroDivisionError
    ("triangular", _triangular, "spectral_norm", lambda S: 1.0,
     "perturbation_inverse_norm"),
], ids=["orlicz-orderbound", "trace-dual", "lindenstrauss-witness",
        "lindenstrauss-telescopes", "triangular"])
def test_a_broken_certification_fails_its_manifest_check(
        tmp_path, monkeypatch, capsys, experiment, module, name, stub, check):
    # the construction returns what it computed, and the runner's check
    # judges it: values and a failed manifest are written, and the CLI exits 1
    monkeypatch.setattr(module, name, stub)
    result = run(ExperimentConfig(experiment, output_dir=str(tmp_path / "lib")))
    assert not result.passed
    manifest = json.loads((tmp_path / "lib" / f"{experiment}-manifest.json").read_text())
    assert manifest["failed"] is True
    failed = [c["name"] for c in manifest["checks"] if not c["passed"]]
    assert any(c.endswith(check) for c in failed), failed
    assert (tmp_path / "lib" / f"{experiment}-values.csv").exists()
    assert main(["run", "--experiment", experiment, "--out", str(tmp_path / "cli")]) == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------- contracts

def test_lindenstrauss_rows_match_the_documented_shape(tmp_path):
    result = run(ExperimentConfig("lindenstrauss-witness", output_dir=str(tmp_path)))
    assert len(result.rows) == 6
    assert all(abs(r[1] - 2.0) < 1e-12 for r in result.rows)
    assert abs(result.rows[-1][2] - 7.0) < 1e-12


def test_typewriter_oscillation_column(tmp_path):
    result = run(ExperimentConfig("typewriter", params={"J": 6},
                                  output_dir=str(tmp_path)))
    assert all(r[1] >= 1.0 - 1e-9 for r in result.rows)
    assert abs(result.derived["join_norm"] - 2.0) <= 1e-9


def test_triangular_manifest_records_each_gauge_route(tmp_path):
    result = run(ExperimentConfig("triangular",
                                  params={"n_max": 1024, "extremes_at": 64},
                                  output_dir=str(tmp_path)))
    manifest = json.loads((tmp_path / "triangular-manifest.json").read_text())
    routes = manifest["derived"]["kernel_gauge_routes"]
    assert [r["n"] for r in routes] == [row[0] for row in result.rows]
    assert [r["route"] for r in routes] == ["fft_lanczos"] * 5
    for route, row in zip(routes, result.rows):
        gauge = row[1]
        # the gauge is low by at most residual / (2 gauge^2), inside alpha's shave
        assert 0 < route["residual"] / (2 * gauge ** 2) <= 1e-9
        assert 0 < route["steps"] <= 1000


def test_uniform_bound_rows_keep_half_ratio(tmp_path):
    result = run(ExperimentConfig("greedy-uniform-bound", output_dir=str(tmp_path)))
    for _, _, mod, _, ratio, margin in result.rows:
        assert abs(mod - 1.0) < 1e-12
        assert ratio >= 0.5 - 1e-12
        assert margin >= -1e-12


# ---------------------------------------------------------------- cli

def test_cli_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    positions = [out.index(name) for name, _, _ in list_experiments()]
    assert positions == sorted(positions)
    assert "hadamard-mixed" in out


def test_cli_exit_codes(tmp_path, capsys):
    ok = main(["run", "--experiment", "greedy-uniform-bound",
               "--out", str(tmp_path)])
    assert ok == 0
    assert main(["run", "--experiment", "nope", "--out", str(tmp_path)]) == 2
    assert main(["run", "--experiment", "trace-dual", "--param", "junk",
                 "--out", str(tmp_path)]) == 2
    assert main(["run", "--out", str(tmp_path)]) == 2          # no experiment
    assert main(["run", "--experiment", "trace-dual", "--seed", "-3",
                 "--out", str(tmp_path)]) == 2
    assert main([]) == 2
    # the chain's system size and the typewriter's exponent select nothing,
    # so they are not parameters
    for name, param in (("lindenstrauss-witness", "ambient=10"),
                        ("typewriter", "p=3.0")):
        never = tmp_path / "never"
        assert main(["run", "--experiment", name, "--param", param,
                     "--out", str(never)]) == 2
        assert "unknown parameter" in capsys.readouterr().err
        assert not never.exists()
    # bad sizes are usage errors, not tracebacks: the exact flat mean
    # overflows past m = 1019
    assert main(["run", "--experiment", "rademacher-l1", "--param", "m_max=1020",
                 "--out", str(tmp_path)]) == 2
    # the perturbation extremes take a dense kernel of size 2 to 512
    for extremes_at in ("1", "0", "-1", "513"):
        assert main(["run", "--experiment", "triangular",
                     "--param", f"extremes_at={extremes_at}",
                     "--out", str(tmp_path)]) == 2
    # haar-bibasis goes as deep as haar-branch: J 2..12
    assert main(["run", "--experiment", "haar-bibasis", "--param", "J=13",
                 "--out", str(tmp_path)]) == 2
    assert main(["run", "--experiment", "haar-bibasis", "--param", "J=11",
                 "--param", "samples=2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


def test_every_integer_parameter_rejects_zero_and_negative(tmp_path, capsys):
    swept = 0
    for name, _, defaults in list_experiments():
        for key, default in defaults.items():
            if type(default) is not int:
                continue
            for value in (0, -1):
                code = main(["run", "--experiment", name,
                             "--param", f"{key}={value}", "--out", str(tmp_path)])
                assert code == 2, (name, key, value, code)
                swept += 1
    assert swept >= 2 * 12
    capsys.readouterr()


def test_cli_assertion_failure_exits_one(tmp_path, monkeypatch, capsys):
    def runner(params, seed):
        return experiments._Table(
            ("k",), [(1,)],
            [{"name": "forced", "passed": False, "detail": "stub"}])
    entry = experiments._Entry("stub", {}, runner)
    monkeypatch.setitem(experiments._CATALOG, "stub-fail", entry)
    assert main(["run", "--experiment", "stub-fail", "--out", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# demo config\nexperiment = lindenstrauss-witness\n"
                   "depth = 4\nseed = 3\nout = {}\n".format(tmp_path / "o1"))
    assert main(["run", "--config", str(cfg)]) == 0
    manifest = json.loads(
        (tmp_path / "o1" / "lindenstrauss-witness-manifest.json").read_text())
    assert manifest["config"]["params"]["depth"] == 4
    assert manifest["config"]["seed"] == 3

    # flags beat the file
    assert main(["run", "--config", str(cfg), "--param", "depth=5",
                 "--seed", "9", "--out", str(tmp_path / "o2")]) == 0
    manifest = json.loads(
        (tmp_path / "o2" / "lindenstrauss-witness-manifest.json").read_text())
    assert manifest["config"]["params"]["depth"] == 5
    assert manifest["config"]["seed"] == 9
    capsys.readouterr()


def test_cli_malformed_config_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment lindenstrauss-witness\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_console_script_wiring(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "latmax.cli", "run", "--experiment",
         "greedy-uniform-bound", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_cli_usage_errors_exit_two_with_the_message_on_stderr(tmp_path, capsys):
    out = tmp_path / "never"
    cases = (["--format", "xml"], ["--seed", "abc"], ["--no-such-flag"],
             ["--param", "p=abc"])
    for extra in cases:
        code = main(["run", "--experiment", "triangular", "--out", str(out)]
                    + extra)
        err = capsys.readouterr().err
        assert code == 2, (extra, code)
        assert "error:" in err, (extra, err)
    assert "expects a number" in err
    assert not out.exists()
    assert main(["run", "--help"]) == 0
    assert "--experiment" in capsys.readouterr().out


def test_library_run_rejects_a_seed_outside_uint64(tmp_path):
    out = tmp_path / "never"
    for seed in (-1, 2 ** 64):
        with pytest.raises(UsageError, match="seed"):
            run(ExperimentConfig("haar-bibasis", seed=seed, output_dir=str(out)))
    assert not out.exists()


@pytest.mark.parametrize("seed", [1.7, True, float("nan"), np.True_],
                         ids=["float", "bool", "nan", "numpy-bool"])
def test_library_run_rejects_a_seed_that_is_not_an_integer(tmp_path, seed):
    # int() would truncate 1.7 and True to 1, and raise ValueError on nan
    out = tmp_path / "never"
    with pytest.raises(UsageError, match="seed must be an integer"):
        run(ExperimentConfig("trace-dual", seed=seed, output_dir=str(out)))
    assert not out.exists()


_FLOAT_PARAMS = [(name, key) for name, _, defaults in list_experiments()
                 for key, value in defaults.items() if isinstance(value, float)]


@pytest.mark.parametrize("value", [True, np.False_], ids=["bool", "numpy-bool"])
@pytest.mark.parametrize("name, key", _FLOAT_PARAMS,
                         ids=[f"{name}-{key}" for name, key in _FLOAT_PARAMS])
def test_library_run_rejects_a_bool_for_a_float_parameter(tmp_path, name, key, value):
    # float(True) is 1.0: lorentz-blocking q=True would run with q = 1
    out = tmp_path / "never"
    with pytest.raises(UsageError, match=f"parameter {key} expects a number"):
        run(ExperimentConfig(name, params={key: value}, output_dir=str(out)))
    assert not out.exists()


def test_library_run_keeps_a_numpy_integer_seed(tmp_path):
    run(ExperimentConfig("haar-bibasis", params={"samples": 20}, seed=np.int64(5),
                         output_dir=str(tmp_path / "np")))
    run(ExperimentConfig("haar-bibasis", params={"samples": 20}, seed=5,
                         output_dir=str(tmp_path / "int")))
    manifest = json.loads((tmp_path / "np" / "haar-bibasis-manifest.json").read_text())
    assert manifest["config"]["seed"] == 5 and type(manifest["config"]["seed"]) is int
    assert ((tmp_path / "np" / "haar-bibasis-values.csv").read_bytes()
            == (tmp_path / "int" / "haar-bibasis-values.csv").read_bytes())


# counts cost time, not memory, so they alone have no finite cap
_UNCAPPED = {("haar-bibasis", "samples"), ("haar-kvee", "budget"),
             ("hadamard-mixed", "samples"), ("hadamard-mixed", "alphas"),
             ("rademacher-l1", "trials")}


def test_every_declared_range_end_is_enforced_through_main(tmp_path, capsys):
    out = tmp_path / "never"
    uncapped = set()
    swept = 0
    for name, entry in sorted(experiments._CATALOG.items()):
        for key, default in entry.defaults.items():
            low, high = entry.bounds.get(key, (None, math.inf))
            if type(default) is int and high == math.inf:
                uncapped.add((name, key))
            if key not in entry.bounds:
                continue
            if type(default) is float:
                values = [low, high]
            else:
                values = [low - 1]
                if high != math.inf:
                    values += [high + 1, 2 ** 62]
            for value in values:
                code = main(["run", "--experiment", name, "--param",
                             f"{key}={value}", "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 2, (name, key, value, code)
                assert f"{name}: parameter {key} must lie in" in err, err
                swept += 1
    assert not out.exists()
    assert uncapped == _UNCAPPED
    assert swept >= 50


def test_trace_dual_range_corners_pass(tmp_path, capsys):
    low, high = (experiments._CATALOG["trace-dual"].bounds[k]
                 for k in ("n_min", "n_max"))
    for n_min in low:
        for n_max in high:
            if n_min > n_max:
                continue
            code = main(["run", "--experiment", "trace-dual", "--param",
                         f"n_min={n_min}", "--param", f"n_max={n_max}",
                         "--out", str(tmp_path)])
            assert code == 0, (n_min, n_max, capsys.readouterr().out)


def test_trace_dual_n_min_16_exits_two(tmp_path, capsys):
    # the fit's checks fail on grids that start below 32
    code = main(["run", "--experiment", "trace-dual", "--param", "n_min=16",
                 "--out", str(tmp_path / "never")])
    assert code == 2
    assert "trace-dual: parameter n_min must lie in 32..512" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_lorentz_float_range_rule_fires_before_any_lookup(tmp_path, monkeypatch, capsys):
    # at (p, q) = (4, 2), sigma of the 2048-block sum would pass 2^1000
    assert main(["run", "--experiment", "lorentz-blocking", "--param", "n=1024",
                 "--out", str(tmp_path / "ok")]) == 0
    calls = []
    monkeypatch.setattr(_lorentz, "_sigma_exact", lambda *args: calls.append(args))
    assert main(["run", "--experiment", "lorentz-blocking", "--param", "n=2048",
                 "--out", str(tmp_path / "never")]) == 2
    assert "past the float range of sigma" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "never").exists()


def test_lorentz_n_must_be_a_power_of_two(tmp_path, capsys):
    # both grids stop at 2^floor(log2 n): n = 600 wrote the bytes of n = 512
    assert main(["run", "--experiment", "lorentz-blocking", "--param", "n=600",
                 "--out", str(tmp_path / "never")]) == 2
    assert "n = 600 is not a power of two" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_rerun_leaves_only_the_files_its_manifest_names(tmp_path, monkeypatch):
    params = {"n": 4, "trials": 10, "m_max": 8}
    for fmt in ("csv", "json", "csv"):
        run(ExperimentConfig("rademacher-l1", params, str(tmp_path), fmt))
        manifest = json.loads((tmp_path / "rademacher-l1-manifest.json").read_text())
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["rademacher-l1-manifest.json", *manifest["files"].values()])
    assert (tmp_path / "rademacher-l1-growth.json").exists()
    # a rerun whose table has no fit drops the growth file of the last one
    entry = experiments._CATALOG["rademacher-l1"]
    monkeypatch.setitem(experiments._CATALOG, "rademacher-l1", experiments._Entry(
        entry.summary, entry.defaults,
        lambda params, seed: experiments._Table(("k",), [(1,)], [])))
    run(ExperimentConfig("rademacher-l1", params, str(tmp_path)))
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "rademacher-l1-manifest.json", "rademacher-l1-values.csv"]


def test_rademacher_memory_is_flat_in_trials(tmp_path):
    params = {"n": 4, "trials": 200000}
    run(ExperimentConfig("rademacher-l1", params={"trials": 1},
                         output_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        result = run(ExperimentConfig("rademacher-l1", params=params,
                                      output_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    # the 200000 x 4 draw alone takes 6.4 MB
    assert peak < 4e6, peak


def test_lindenstrauss_runner_holds_under_two_and_a_half_vectors(tmp_path):
    # a loose bound in full-length vectors; wrapping the join in an Element
    # and taking norms over every coordinate at each level took about 4.3
    # (the windowed walk holds none, see the test below)
    run(ExperimentConfig("lindenstrauss-witness", params={"depth": 2},
                         output_dir=str(tmp_path)))
    depth = 16
    n = 3 * 2 ** (depth - 1)
    tracemalloc.start()
    try:
        result = run(ExperimentConfig("lindenstrauss-witness", params={"depth": depth},
                                      output_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    vector, witness = 8 * (2 * n + 2), 8 * n  # y's coefficients are the witness
    assert peak < 2.5 * vector + witness, peak / vector


def test_lindenstrauss_runner_holds_no_full_length_vector(tmp_path):
    # the windowed walk holds two tree levels: at depth 19 the last level's
    # 2^19 kids (running sum and join), its 2^18 nodes and one abs copy,
    # 16 MiB measured; a vector of length 2n + 2 alone is 12 MiB, and the
    # full-length walk with y's closed form took 34 MiB
    run(ExperimentConfig("lindenstrauss-witness", params={"depth": 2},
                         output_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        result = run(ExperimentConfig("lindenstrauss-witness", params={"depth": 19},
                                      output_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 20 * 2 ** 20, peak


def test_rademacher_runner_holds_one_product_and_one_sub_batch(monkeypatch):
    # with the system built before tracing, the runner holds one 16-row
    # product and one 2^18-cell sub-batch of norms (10.2 MiB at n = 16); a
    # dense copy of |x_k| and norms of the whole product took 24.3 MiB
    n = 16
    sysm = _rademacher.rademacher_l1(n)
    monkeypatch.setattr(_rademacher, "rademacher_l1", lambda size: sysm)
    tracemalloc.start()
    try:
        table = experiments._run_rademacher({"n": n, "trials": 1000, "m_max": 8}, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.checks[0]["passed"]
    product, sub_batch = 16 * 2 ** n * 8, 2 ** 18 * 8
    assert peak < product + sub_batch + 2 ** 20, peak


def test_rademacher_modulus_sums_stay_small_at_n14(tmp_path):
    run(ExperimentConfig("rademacher-l1", params={"trials": 1},
                         output_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        result = run(ExperimentConfig("rademacher-l1",
                                      params={"n": 14, "trials": 256},
                                      output_dir=str(tmp_path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    # building the system peaks near 11 MB; modulus sums formed 64 trials
    # at a time (64 x 2^14 floats and their np.abs copy) took 18.8 MB
    assert peak < 15e6, peak
