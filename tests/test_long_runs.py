"""Opt-in long enumerations with recorded reference counts.

These exceed the desk-scale acceptance budgets; enable with YBX_RUN_LONG=1.
A checkpoint directory makes interrupted runs resumable:

    YBX_RUN_LONG=1 pytest tests/test_long_runs.py -v -s
"""

import hashlib
import os
from pathlib import Path

import pytest
from conftest import classes_of
from oracles import labeled_involutive_count, orbit_sum

from yangbaxter import enumeration
from yangbaxter.cli import main
from yangbaxter.enumeration import EnumerationTask, enumerate_solutions

RUN_LONG = os.environ.get("YBX_RUN_LONG") == "1"

pytestmark = pytest.mark.skipif(
    not RUN_LONG, reason="long run; set YBX_RUN_LONG=1 to enable"
)

# recorded reference counts for the opt-in sizes
INVOLUTIVE_REFERENCE = {7: 3456}
# SHA-256 of the sorted canonical forms of the involutive classes of size 7,
# the same with jobs 1 and 2
INVOLUTIVE_7_DIGEST = "bfe466ea0f7f4db78d6f15353140b880b47c4df8aab14b6b8798305e1798850f"
# SHA-256 of the sorted canonical forms of all mode at size 6, the same with
# jobs 1 and 2
ALL_6_DIGEST = "ad4a45b72ab11f2d023dd8429c7e9e29cf08acd39db334eefaacf0a5c71e6fdd"
# SHA-256 of the stream file of `ybx enumerate --size 6 --cap 6 --out F`
# (18,119,947 bytes), the same with --jobs 1 and 2
ALL_6_STREAM_DIGEST = "62d78be6597e421b53b6e11fb89cd85d0e9de65378ccde3f05386463598ccba4"


def _run_and_resume(tmp_path, monkeypatch, **task):
    """The run with one job per core and a checkpoint directory, which holds
    one log per process when it starts empty; a second run over it, in one
    process, loads every task, searches none and gives the same classes."""
    directory = Path(os.environ.get("YBX_CHECKPOINT_DIR", tmp_path))
    fresh = not directory.exists() or not any(directory.iterdir())
    jobs = os.cpu_count() or 2
    result = enumerate_solutions(EnumerationTask(jobs=jobs, checkpoint_dir=directory, **task))
    if fresh:
        logs = directory.glob(f"n{task['size']}-v{enumeration.CHECKPOINT_VERSION}-*.log")
        assert len(list(logs)) == len(list(directory.iterdir())) == jobs
    searched = []
    search = enumeration._search

    def spy(n, rack, prefix, deadline, stop=None, reach=None):
        if stop is None:
            searched.append((rack, prefix))
        return search(n, rack, prefix, deadline, stop, reach)

    monkeypatch.setattr(enumeration, "_search", spy)
    again = enumerate_solutions(EnumerationTask(jobs=1, checkpoint_dir=directory, **task))
    assert searched == []
    assert again.canonicals == result.canonicals
    return result


def test_involutive_size_7(tmp_path, monkeypatch):
    # about 20 s with 2 jobs, and a resume
    result = _run_and_resume(tmp_path, monkeypatch, size=7, mode="involutive", cap=7)
    assert result.total == INVOLUTIVE_REFERENCE[7]
    assert hashlib.sha256(b"".join(sorted(result.canonicals))).hexdigest() == INVOLUTIVE_7_DIGEST


def test_all_mode_size_6(tmp_path, monkeypatch):
    # about 30 s with 2 jobs, and a resume; 100,071 non-involutive classes,
    # as in the table of Akguen-Mereb-Vendramin (Math. Comp. 91 (2022)),
    # and the 595 involutive ones
    result = _run_and_resume(tmp_path, monkeypatch, size=6, mode="all", cap=6)
    assert result.counts() == {
        "involutive": 595, "non_involutive": 100071, "total": 100666
    }
    assert hashlib.sha256(b"".join(sorted(result.canonicals))).hexdigest() == ALL_6_DIGEST


def test_all_mode_size_6_stream(tmp_path, capsys):
    # about 30 s with 2 jobs; every class is written from the bytes its leaf
    # verified, without a second verify
    out = tmp_path / "all-6.txt"
    assert main(["enumerate", "--size", "6", "--cap", "6", "--jobs", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total: 100666"
    assert out.stat().st_size == 18_119_947
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_6_STREAM_DIGEST


def test_labeled_count_is_the_orbit_sum_size_5():
    result = enumerate_solutions(EnumerationTask(size=5, mode="involutive", jobs=2))
    assert labeled_involutive_count(5) == 2640
    assert orbit_sum(classes_of(result)) == 2640
