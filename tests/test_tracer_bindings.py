"""The names the benchmark tracer wraps still resolve in the package.

``benchmarks/tracer.py`` wraps package functions and methods by name and
fails on any it cannot find, so deleting or renaming one breaks every
traced benchmark run.  The tracer imports only the standard library at
module level, so it loads here as it is, without the benchmark harness.
"""

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


def test_the_hooks_and_rebindings_the_benchmark_reads():
    # the greedy.join hook unpacks (sys, a, perm) from the positional
    # arguments, the systems.build hook reads the dense vector view, and
    # the benchmark's own tests expect these bindings to be rewrapped
    from latmax import estimation, experiments, greedy
    from latmax.constructions import triangular
    from latmax.systems import BiorthogonalSystem
    assert list(inspect.signature(greedy._ordered_join).parameters) == ["sys", "a", "perm"]
    assert "vectors" in vars(BiorthogonalSystem)
    assert triangular.spectral_norm is estimation.spectral_norm
    assert experiments.kvee_estimate is greedy.kvee_estimate
