#!/usr/bin/env python3
"""Benchmark of the latmax experiment harness.

Usage, from the repository root (children import the package from ./src)::

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
                              [--quick] [--record]

Load model: a closed loop with one client.  A workload is a fixed list of
``latmax run`` invocations.  Each runs in its own child process (child.py),
and the next child starts only after the previous one has exited; a pass
runs the whole list once.  With ``--trace 0`` the benchmark makes as many
passes as fit in S seconds, at least two, and reports each end-to-end
metric as a median over passes.  With ``--trace 1`` it makes one untraced
and one traced pass, and reports the per-layer metrics of tracer.py from
the traced pass; ``trace.overhead_s`` is traced minus untraced wall_s.

Correctness, per child run: the exit code is 0; the values file is
byte-identical to the first pass's (same seed); and at seed 0 every value
lies within REL_TOL of the table stored under reference/.  A miss counts as
a failed run.  ``--quick`` runs each workload at tiny sizes, against the
tables under reference/quick/; ``--record`` (seed 0 only) rewrites the
tables from the first pass.

The report goes to stdout: machine facts, one line per child run, one line
per metric with its unit, and last a JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = Path(".bench_work")

# One BLAS thread: the host is shared, and a fixed single-threaded baseline
# keeps wall_s comparable between runs; cpu_s shows any other parallelism.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the experiments' own checks hold values to 1e-9; the tables are
# byte-deterministic, so this only absorbs last-digit BLAS differences
REL_TOL = 1e-9
ABS_TOL = 1e-12

CHILD_TIMEOUT_S = 170
# no pass beyond the first MIN_PASSES may end later than this
PASS_DEADLINE_S = 120
MIN_PASSES = 2


@dataclass(frozen=True)
class Entry:
    """One ``latmax run`` of a workload.  The label is unique in the
    workload and names its per-experiment metrics."""

    label: str
    experiment: str
    params: tuple = ()     # (key, value) pairs passed as --param
    quick: tuple = ()      # the params at tiny sizes, for --quick


def _default(experiment, *quick):
    return Entry(experiment, experiment, (), quick)


WORKLOADS = {
    # every catalog id at its defaults: per-call overhead and set-up dominate
    "catalog-default": (
        _default("greedy-uniform-bound", ("blocks", 2)),
        _default("haar-bibasis", ("J", 4), ("samples", 5)),
        _default("haar-branch", ("J_min", 2), ("J_max", 5)),
        _default("haar-kvee", ("J", 4), ("budget", 20)),
        _default("hadamard-mixed", ("n", 4), ("samples", 100), ("alphas", 10)),
        _default("lindenstrauss-witness", ("depth", 3)),
        _default("lorentz-blocking", ("n", 512)),
        _default("orlicz-orderbound"),
        _default("rademacher-l1", ("n", 4), ("trials", 10), ("m_max", 8)),
        _default("trace-dual"),
        _default("triangular", ("n_max", 128), ("extremes_at", 64)),
        _default("typewriter", ("J", 4)),
    ),
    # the dense prefix join, walked along few long prefixes (bibasis, branch)
    # and many short subset prefixes (kvee)
    "dense-join": (
        Entry("haar-bibasis", "haar-bibasis", (("J", 10), ("samples", 200)),
              (("J", 5), ("samples", 5))),
        Entry("haar-kvee", "haar-kvee", (("J", 9), ("budget", 1000)),
              (("J", 4), ("budget", 20))),
        Entry("haar-branch", "haar-branch", (("J_min", 2), ("J_max", 12)),
              (("J_min", 2), ("J_max", 5))),
    ),
    # construction kernels, estimation and memory at the largest sizes the
    # runners accept; greedy does no work here
    "structured-scale": (
        Entry("lindenstrauss-witness", "lindenstrauss-witness", (("depth", 19),),
              (("depth", 4),)),
        Entry("hadamard-mixed", "hadamard-mixed", (("n", 12),),
              (("n", 5), ("samples", 100), ("alphas", 10))),
        Entry("typewriter", "typewriter", (("J", 12),), (("J", 5),)),
        Entry("rademacher-l1", "rademacher-l1", (("n", 16),),
              (("n", 5), ("trials", 10))),
        Entry("triangular-p3", "triangular", (("p", 3.0),),
              (("p", 3.0), ("n_max", 128), ("extremes_at", 64))),
        # n = 1024 and 2048 take the ARPACK branch of spectral_norm
        Entry("triangular-arpack", "triangular",
              (("n_max", 2048), ("extremes_at", 512)),
              (("n_max", 1024), ("extremes_at", 64))),
    ),
}

LABELS = sorted({e.label for entries in WORKLOADS.values() for e in entries})

END_TO_END = (
    ("wall_s", "s"),           # sum over experiments of time inside cli.main
    ("wall_geomean_s", "s"),   # geometric mean of the per-experiment times
    ("cpu_s", "s"),            # user + system CPU of the children
    ("setup_s", "s"),          # child start until import latmax.cli returns
    ("peak_rss_mb", "MB"),     # largest child peak RSS
    ("rss_sum_mb", "MB"),      # sum of the children's peak RSS
)

PER_LAYER = (
    ("spaces.norms_s", "s"),
    ("spaces.norms.calls", "count"),
    ("spaces.norms.rows", "count"),
    ("spaces.norms.bytes", "bytes"),
    ("spaces.element.calls", "count"),
    ("systems.build_s", "s"),
    ("systems.build.calls", "count"),
    ("systems.dense_bytes", "bytes"),
    ("systems.coefficients_s", "s"),
    ("systems.coefficients.calls", "count"),
    ("greedy.ordered_projection_maximal_s", "s"),
    ("greedy.join_s", "s"),
    ("greedy.join.rows", "count"),
    ("greedy.join.bytes", "bytes"),
    ("greedy.kvee_estimate_s", "s"),
    ("greedy.kvee.evals", "count"),
    ("greedy.kvee.evals_per_budget", "ratio"),
    ("estimation.spectral_norm_s", "s"),
    ("estimation.spectral_norm.calls_dense", "count"),
    ("estimation.spectral_norm.calls_arpack", "count"),
    ("estimation.pnorm_bounds_s", "s"),
    ("estimation.sup_search_s", "s"),
    ("estimation.sup_search.evals", "count"),
    ("estimation.sup_search.evals_per_budget", "ratio"),
    ("estimation.growth_fit_s", "s"),
    ("constructions.hadamard.fwht_rows_s", "s"),
    ("constructions.hadamard.fwht.rows", "count"),
    ("constructions.hadamard.fwht.bytes", "bytes"),
    ("constructions.hadamard.sign_pattern_sweep_s", "s"),
    ("constructions.hadamard.hadamard_mixed_s", "s"),
    ("constructions.lindenstrauss.chain_prefix_join_s", "s"),
    ("constructions.lindenstrauss.chain.steps", "count"),
    ("constructions.lindenstrauss.witness_s", "s"),
    ("constructions.typewriter.frame_s", "s"),
    ("constructions.typewriter.pass_profile_s", "s"),
    ("constructions.triangular.kernel_gauge_s", "s"),
    ("constructions.triangular.operator_extremes_s", "s"),
    ("constructions.rademacher.rademacher_l1_s", "s"),
    ("constructions.lorentz.block_series_s", "s"),
    ("constructions.lorentz.weight_sum_log2.calls", "count"),
    ("constructions.orlicz.luxemburg_norm_s", "s"),
    ("constructions.haar.haar_system_s", "s"),
    ("experiments.run_s", "s"),
    ("experiments.write_s", "s"),
    ("experiments.artifact_bytes", "bytes"),
    ("cli.main_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((f"{layer}.calls", "count") for layer in tracer.LAYERS) + tuple(
    (f"experiments.{label}.{name}", unit) for label in LABELS
    for name, unit in (("wall_s", "s"), ("peak_rss_mb", "MB")))

# per-layer ratios: (metric, numerator counter, denominator counter)
RATIOS = (
    ("greedy.kvee.evals_per_budget", "greedy.kvee.evals", "greedy.kvee.budget"),
    ("estimation.sup_search.evals_per_budget", "estimation.sup_search.evals",
     "estimation.sup_search.budget"),
)


@dataclass
class ChildRun:
    label: str
    pass_no: int
    code: int
    cpu_s: float
    rss_mb: float
    values: bytes = None
    setup_s: float = None
    wall_s: float = None
    versions: dict = None
    error: str = None


# ---------------------------------------------------------------- children


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def run_child(entry, params, seed, pass_no, work, trace_path=None):
    """Run one experiment in a fresh interpreter and wait for it to exit."""
    out = work / f"pass{pass_no}" / entry.label
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cli_args = ["run", "--experiment", entry.experiment, "--out", str(out),
                "--seed", str(seed)]
    for key, value in params:
        cli_args += ["--param", f"{key}={value}"]
    with open(out / "child.log", "w") as log:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spawn_ns), str(result_path),
             str(trace_path) if trace_path else "-", entry.label] + cli_args,
            stdout=log, stderr=subprocess.STDOUT, env=_child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            # wait4 reaps the child and returns its own resource usage
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = ChildRun(entry.label, pass_no, proc.returncode,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if result_path.is_file():
        result = json.loads(result_path.read_text())
        run.setup_s, run.wall_s = result["setup_s"], result["wall_s"]
        run.versions = result["versions"]
    values_path = out / f"{entry.experiment}-values.csv"
    if values_path.is_file():
        run.values = values_path.read_bytes()
    return run


# ---------------------------------------------------------------- checks


def _close(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def compare_values(values, reference):
    """None when the two CSV tables agree within REL_TOL, else the first miss."""
    got = list(csv.reader(values.decode().splitlines()))
    want = list(csv.reader(reference.decode().splitlines()))
    if not got or got[0] != want[0]:
        return "columns differ from the reference table"
    if len(got) != len(want):
        return f"{len(got) - 1} rows, reference has {len(want) - 1}"
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), 1):
        if len(row) != len(ref):
            return f"row {i} has {len(row)} cells, reference has {len(ref)}"
        for column, a, b in zip(want[0], row, ref):
            if not _close(a, b):
                return f"row {i} {column}: {a} vs reference {b}"
    return None


def check_run(run, first_values, reference):
    """Why the run failed, or None.  reference is None off seed 0."""
    if run.code != 0:
        return f"exit code {run.code}"
    if run.values is None:
        return "no values file"
    if first_values is not None and run.values != first_values:
        return "values file differs from the first pass at the same seed"
    if reference is not None:
        if not reference.is_file():
            return f"no reference table {reference}"
        return compare_values(run.values, reference.read_bytes())
    return None


# ---------------------------------------------------------------- metrics


def end_to_end(passes):
    """Each end-to-end metric as (median, sample count, what was sampled)."""
    walls = [[r.wall_s for r in runs if r.wall_s is not None] for runs in passes]
    walls = [w for w in walls if w]
    per_pass = {
        "wall_s": [sum(w) for w in walls],
        "wall_geomean_s": [math.exp(statistics.fmean(map(math.log, w)))
                           for w in walls],
        "cpu_s": [sum(r.cpu_s for r in runs) for runs in passes],
        "peak_rss_mb": [max(r.rss_mb for r in runs) for runs in passes],
        "rss_sum_mb": [sum(r.rss_mb for r in runs) for runs in passes],
    }
    out = {name: (statistics.median(v), len(v), "passes")
           for name, v in per_pass.items()}
    setups = [r.setup_s for runs in passes for r in runs if r.setup_s is not None]
    out["setup_s"] = (statistics.median(setups), len(setups), "child starts")
    return out


def per_layer(traces, untraced, traced):
    """Every PER_LAYER metric: traced-pass spans and counters, plus the
    per-experiment wall time and peak RSS of the untraced pass."""
    self_s, calls, counts = tracer.aggregate(traces)
    span_names = {name for _m, _a, name in tracer.SPANS}
    values = {f"{layer}.calls": calls[layer] for layer in tracer.LAYERS}
    for name, num, den in RATIOS:
        values[name] = counts[num] / counts[den] if counts[den] else 0.0
    values["experiments.write_s"] = counts["experiments.write_ns"] / 1e9
    values["trace.overhead_s"] = (sum(r.wall_s or 0.0 for r in traced)
                                  - sum(r.wall_s or 0.0 for r in untraced))
    for label in LABELS:
        run = next((r for r in untraced if r.label == label), None)
        values[f"experiments.{label}.wall_s"] = (run.wall_s or 0.0) if run else 0.0
        values[f"experiments.{label}.peak_rss_mb"] = run.rss_mb if run else 0.0
    for name, _unit in PER_LAYER:
        if name in values:
            continue
        if name.endswith("_s") and name[:-2] in span_names:
            values[name] = float(self_s[name[:-2]])
        else:
            values[name] = counts[name]
    return {name: values[name] for name, _unit in PER_LAYER}


# ---------------------------------------------------------------- machine


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts(versions):
    versions = versions or {}
    mem = _read("/proc/meminfo") or ""
    mem_kb = next((int(line.split()[1]) for line in mem.splitlines()
                   if line.startswith("MemTotal:")), None)
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            l3 = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": versions.get("blas"),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_THREAD_VARS},
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "l3": l3,
        **{k: v for k, v in versions.items() if k != "blas"},
    }


# ---------------------------------------------------------------- driver


def run_workload(name, entries, seed, seconds, trace, quick=False,
                 reference_dir=REFERENCE_DIR, record=False, work_root=WORK_ROOT):
    """Run one workload and return its report as a dict (see report_lines)."""
    ref_dir = Path(reference_dir) / ("quick" if quick else "") / name
    if record:
        ref_dir.mkdir(parents=True, exist_ok=True)
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    passes, traces, failures = [], [], []
    first_values = {}
    try:
        start = time.monotonic()
        while True:
            elapsed = time.monotonic() - start
            if trace:
                if len(passes) == 2:
                    break
            elif len(passes) >= MIN_PASSES:
                # start no pass that would end past the measuring time
                ends = elapsed + elapsed / len(passes)
                if ends > seconds or ends > PASS_DEADLINE_S:
                    break
            pass_no = len(passes)
            traced = bool(trace) and pass_no == 1
            runs = []
            for entry in entries:
                trace_path = work / f"trace-{pass_no}-{entry.label}.json" \
                    if traced else None
                params = entry.quick if quick else entry.params
                run = run_child(entry, params, seed, pass_no, work, trace_path)
                ref = ref_dir / f"{entry.label}-values.csv"
                if record and pass_no == 0 and run.values is not None:
                    ref.write_bytes(run.values)
                run.error = check_run(run, first_values.get(entry.label),
                                      ref if seed == 0 else None)
                first_values.setdefault(entry.label, run.values)
                if run.error:
                    failures.append(run)
                if trace_path is not None and trace_path.is_file():
                    traces.append(json.loads(trace_path.read_text()))
                runs.append(run)
            passes.append(runs)
        if traces:
            (work_root / f"spans-{name}.json").write_text(json.dumps(traces))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(runs) for runs in passes)
    versions = next((r.versions for runs in passes for r in runs if r.versions),
                    None)
    report = {"workload": name, "seed": seed, "trace": trace, "quick": quick,
              "facts": machine_facts(versions), "passes": passes,
              "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted}
    if trace:
        report["metrics"] = per_layer(traces, passes[0], passes[1])
    else:
        samples = end_to_end(passes)
        report["metrics"] = {name: samples[name][0] for name, _unit in END_TO_END}
        report["samples"] = samples
    return report


def report_lines(report):
    """The human-readable report; the last line is the JSON result."""
    lines = [
        f"latmax benchmark: workload {report['workload']}, seed {report['seed']}, "
        f"trace {report['trace']}" + (", quick sizes" if report["quick"] else ""),
        "load model: closed loop, 1 client; one experiment per child process, "
        "the next starts after the previous exits",
        "machine: " + json.dumps(report["facts"], sort_keys=True),
    ]
    for runs in report["passes"]:
        for r in runs:
            wall = f"{r.wall_s:9.3f}" if r.wall_s is not None else "        -"
            setup = f"{r.setup_s:6.3f}" if r.setup_s is not None else "     -"
            lines.append(
                f"  pass {r.pass_no}  {r.label:<22} wall {wall} s  setup {setup} s"
                f"  cpu {r.cpu_s:8.3f} s  rss {r.rss_mb:8.1f} MB  "
                + (f"FAIL: {r.error}" if r.error else "ok"))
    units = dict(PER_LAYER if report["trace"] else END_TO_END)
    samples = report.get("samples", {})
    for name, value in report["metrics"].items():
        note = ""
        if name in samples:
            note = f"  median of {samples[name][1]} {samples[name][2]}"
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<48} {shown:>18} {units[name]}{note}")
    lines.append(f"{'failed_frac':<48} {report['failed_frac']:>18.6f} fraction"
                 f"  {report['failed']} of {report['attempted']} runs")
    result = {"correct": report["failed"] == 0, "attempted": report["attempted"],
              "failed": report["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in report["metrics"].items()}}
    lines.append(json.dumps(result))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for testing the benchmark itself")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the seed-0 reference tables")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if not Path("src/latmax/__init__.py").is_file():
        print("error: run from the repository root; src/latmax not found",
              file=sys.stderr)
        return 2
    if args.record and args.seed != 0:
        print("error: --record needs --seed 0", file=sys.stderr)
        return 2
    report = run_workload(args.workload, WORKLOADS[args.workload], args.seed,
                          args.seconds, args.trace, quick=args.quick,
                          record=args.record)
    print("\n".join(report_lines(report)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
