"""Command-line front end for the experiment harness.

Usage::

    latmax run --experiment <id> [--param k=v ...] [--out DIR]
               [--format csv|json] [--seed N] [--config FILE]
    latmax list

Exit status: 0 when every check of the experiment passes, 1 when a check
fails (artifacts are still written, flagged in the manifest), 2 for usage
errors such as an unknown experiment or a malformed parameter.

A config file holds ``key = value`` lines (``#`` comments allowed); the
keys ``experiment``, ``out``, ``format`` and ``seed`` configure the run
itself and every other key is an experiment parameter.  Command-line
flags take precedence over the file, which takes precedence over the
experiment's defaults.
"""

import argparse
import sys
from pathlib import Path

from .experiments import ExperimentConfig, UsageError, list_experiments, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmax", description="numerical experiments over the lattice "
                                   "greedy/maximal construction gallery")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--experiment", help="experiment id (see: latmax list)")
    runp.add_argument("--param", action="append", default=[], metavar="K=V",
                      help="override one experiment parameter; repeatable")
    runp.add_argument("--out",
                      help=f"output directory (default {ExperimentConfig.output_dir})")
    runp.add_argument("--format", choices=("csv", "json"),
                      help=f"value table format (default {ExperimentConfig.format})")
    runp.add_argument("--seed", type=int,
                      help=f"search seed (default {ExperimentConfig.seed})")
    runp.add_argument("--config", help="key=value config file")
    sub.add_parser("list", help="print the experiment catalog")
    return parser


def _read_config(path: str) -> dict:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    out = {}
    for ln, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{ln}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"--param expects K=V, got {pair!r}")
        params[key] = value
    return params


def _cmd_list() -> int:
    for name, summary, defaults in list_experiments():
        schema = ", ".join(f"{k}={v}" for k, v in sorted(defaults.items()))
        print(f"{name}  [{schema}]")
        print(f"    {summary}")
    return 0


def _cmd_run(args) -> int:
    file_conf = _read_config(args.config) if args.config else {}
    # reserved keys configure the run itself; anything left is a parameter
    reserved = {key: file_conf.pop(key, None)
                for key in ("experiment", "out", "format", "seed")}
    experiment = args.experiment or reserved["experiment"]
    if not experiment:
        raise UsageError("no experiment selected; pass --experiment or put "
                         "experiment=<id> in the config file")
    # only the values given are passed on: ExperimentConfig holds the defaults
    given = {"output_dir": args.out or reserved["out"] or None,
             "format": args.format or reserved["format"] or None, "seed": args.seed}
    if args.seed is None and reserved["seed"] is not None:
        try:
            given["seed"] = int(reserved["seed"])
        except ValueError:
            raise UsageError("config seed must be an integer")
    params = dict(file_conf)
    params.update(_parse_params(args.param))

    result = run(ExperimentConfig(experiment, params, **{
        key: value for key, value in given.items() if value is not None}))
    for check in result.checks:
        mark = "ok  " if check["passed"] else "FAIL"
        print(f"  {mark} {check['name']}: {check['detail']}")
    verdict = "pass" if result.passed else "FAIL"
    print(f"{experiment}: {verdict} ({len(result.rows)} rows, "
          f"{result.wall_time:.2f}s)")
    for role in sorted(result.files):
        print(f"  {role}: {result.files[role]}")
    return 0 if result.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        # argparse prints usage and error on stderr and exits 2 (0 for --help)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        parser.print_usage(sys.stderr)
        print("error: expected a command (run or list)", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
