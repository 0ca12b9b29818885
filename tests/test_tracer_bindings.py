"""The names the benchmark tracer wraps still resolve in the package.

``benchmarks/tracer.py`` wraps package functions and methods by name and
fails on any it cannot find, so deleting or renaming one breaks every
traced benchmark run.  Its hooks also read parameters by name and
attributes of results, so those are pinned here too.  The tracer imports
only the standard library at module level, so it loads here as it is,
without the benchmark harness.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("modname, attr", sorted(
    {(modname, attr) for modname, attr, _ in tracer.SPANS + tracer.COUNTERS}))
def test_every_wrapped_name_resolves(modname, attr):
    owner = importlib.import_module(modname)
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        # install replaces the method in the class's own namespace
        assert name in vars(getattr(owner, cls_name)), attr
    else:
        assert callable(getattr(owner, name)), attr


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_the_hooks_and_rebindings_the_benchmark_reads():
    # the greedy.join hook unpacks (sys, a, perm) from the positional
    # arguments, the systems.build hook reads the dense vector view, and
    # the benchmark's own tests expect these bindings to be rewrapped
    from latmax import estimation, experiments, greedy, spaces
    from latmax.constructions import haar, lindenstrauss, triangular
    from latmax.systems import BiorthogonalSystem
    assert _parameters(greedy._ordered_join) == ["sys", "a", "perm"]
    assert "vectors" in vars(BiorthogonalSystem)
    assert triangular.spectral_norm is estimation.spectral_norm
    assert experiments.kvee_estimate is greedy.kvee_estimate
    # the other hooks bind "budget" and "depth" by name, take spectral_norm's
    # matrix as args[0] or M and a norms batch as args[1] or rows, and read
    # .evaluations, .budget, .wall_time and .files off the results
    assert "budget" in _parameters(estimation.sup_search)
    assert estimation.sup_search(lambda w: float(w[0]), 2, 1, 1).evaluations == 1
    assert "budget" in _parameters(greedy.kvee_estimate)
    assert greedy.kvee_estimate(haar.haar_system(2, 2.0), 1, 3).budget <= 3
    assert "depth" in _parameters(lindenstrauss.chain_prefix_join)
    assert _parameters(estimation.spectral_norm)[0] == "M"
    assert type(estimation._DENSE_SVD_CUTOFF) is int
    for cls in (spaces.LpBlock, spaces.SupBlock, spaces.DirectSum):
        assert _parameters(cls.norms)[:2] == ["self", "rows"], cls
    fields = {f.name for f in dataclasses.fields(experiments.RunResult)}
    assert {"wall_time", "files"} <= fields
