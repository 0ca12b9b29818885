"""Seed-0 artifacts against the golden files under tests/golden/.

Every catalog entry at its defaults and every quick-size benchmark entry is
rerun through ``experiments.run``, and its values, growth and manifest files
are compared with the recorded ones (tests/golden/record.py says which
fields of a manifest are left out, and how to rewrite the files).  On the
host the files were recorded on (tests/golden/host.json) the comparison is
byte for byte.  Anywhere else BLAS and SIMD code may round differently, so
each number must lie within REL_TOL of its recorded value and the library
versions are not compared.  Each failure message names the arm that ran.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from latmax.experiments import list_experiments

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_record():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _load_record()
ENTRIES = record.entries()
BYTE_ARM = record.host() == json.loads(record.HOST.read_text())
ARM = "byte arm" if BYTE_ARM else f"REL_TOL arm ({record.REL_TOL:g}, host differs)"


@pytest.mark.parametrize("group, label, experiment, params", ENTRIES,
                         ids=[f"{g}/{label}" for g, label, _, _ in ENTRIES])
def test_seed_zero_artifacts_match_the_golden_files(tmp_path, group, label,
                                                    experiment, params):
    _assert_golden(tmp_path, group, label, experiment, params)


HADAMARD = [e for e in ENTRIES if e[2] == "hadamard-mixed"]


@pytest.mark.parametrize("group, label, experiment, params", HADAMARD,
                         ids=[f"{g}/{label}" for g, label, _, _ in HADAMARD])
def test_hadamard_artifacts_match_the_golden_files_on_two_task_threads(
        tmp_path, two_task_threads, group, label, experiment, params):
    # the suite runs with BLAS unpinned, where the runner is serial
    _assert_golden(tmp_path, group, label, experiment, params)


def _assert_golden(tmp_path, group, label, experiment, params):
    got = record.artifacts(experiment, params, tmp_path)
    want = record.golden(group, label)
    assert sorted(got) == sorted(want), f"{ARM}: {group}/{label} files"
    for name in sorted(want):
        if BYTE_ARM:
            moved = [] if got[name] == want[name] else (
                record.moved(name, got[name], want[name]) or ["bytes differ"])
        else:
            moved = record.moved(name, got[name], want[name], record.REL_TOL,
                                 drop=("versions",))
        assert not moved, f"{ARM}: {group}/{label}: " + "; ".join(moved)


def test_the_golden_set_is_every_default_and_every_quick_entry():
    defaults = [label for group, label, _, _ in ENTRIES if group == "defaults"]
    assert defaults == [name for name, _, _ in list_experiments()]
    # and nothing else is recorded
    named = {f"{group}/{label}-{name}" for group, label, _, _ in ENTRIES
             for name in record.golden(group, label)}
    stored = {str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*")
              if p.is_file() and p.name not in ("record.py", "host.json")
              and "__pycache__" not in p.parts}
    assert stored == named


def test_the_tolerance_arm_flags_a_moved_number_and_only_that():
    csv_want = b"m,ratio,tag\n1,1.5,y3 at 0.25\n"
    near = b"m,ratio,tag\n1,1.5000000000001,y3 at 0.25000000000001\n"
    far = b"m,ratio,tag\n1,1.500001,y3 at 0.25\n"
    assert record.moved("v.csv", near, csv_want, record.REL_TOL) == []
    assert record.moved("v.csv", near, csv_want) != []
    assert record.moved("v.csv", far, csv_want, record.REL_TOL) == [
        "v.csv row 1 ratio: 1.5 -> 1.500001"]
    want = json.dumps({"derived": {"x": 2.0}, "checks": [{"detail": "2.0 vs 2"}],
                       "versions": {"numpy": "1"}}).encode()
    got = json.dumps({"derived": {"x": 2.0 + 1e-14}, "checks": [{"detail": "2.0 vs 2"}],
                      "versions": {"numpy": "2"}}).encode()
    assert record.moved("m.json", got, want, record.REL_TOL, drop=("versions",)) == []
    assert len(record.moved("m.json", got, want)) == 2
    moved_detail = got.replace(b"2.0 vs 2", b"2.5 vs 2")
    assert record.moved("m.json", moved_detail, want, record.REL_TOL,
                        drop=("versions",)) == ["m.json.checks[0].detail: '2.0 vs 2' -> '2.5 vs 2'"]
