"""One benchmark child: import latmax.cli, then make one latmax.cli.main call.

Usage::

    python3 child.py SPAWN_NS RESULT_JSON TRACE_JSON|- LABEL CLI_ARG...

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so setup_s covers interpreter start plus the imports.  With a
trace path, the layer wrappers of tracer.py are installed before the run and
the spans are written there after it.  The result JSON holds setup and wall
times and the library versions; the process exits with the CLI's code.
An exception from the run propagates, so the exit code is nonzero and no
result is written.
"""

import json
import sys
import time


def _versions():
    import platform

    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv):
    spawn_ns, result_path, trace_path, label = argv[:4]
    import latmax.cli
    setup_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9
    recorder = None
    if trace_path != "-":
        import tracer
        recorder = tracer.Recorder(label)
        tracer.install(recorder)
    start = time.perf_counter()
    code = latmax.cli.main(argv[4:])
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.dump(trace_path)
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "code": code,
                   "versions": _versions()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
