"""Opt-in long enumerations with recorded reference counts.

These exceed the desk-scale acceptance budgets; enable with YBX_RUN_LONG=1.
A checkpoint directory makes interrupted runs resumable:

    YBX_RUN_LONG=1 pytest tests/test_long_runs.py -v -s
"""

import hashlib
import os

import pytest
from oracles import labeled_involutive_count, orbit_sum

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
# SHA-256 of the sorted canonical forms of all mode at size 5, the same with
# jobs 1 and 2
ALL_5_DIGEST = "01e4699efe65d52adce846bc5317aba38133278b5fbcf79d80d1f6eae48107cf"


def test_involutive_size_7(tmp_path):
    # about a minute with 2 jobs
    result = enumerate_solutions(
        EnumerationTask(
            size=7,
            mode="involutive",
            cap=7,
            jobs=os.cpu_count() or 2,
            checkpoint_dir=os.environ.get("YBX_CHECKPOINT_DIR", tmp_path),
        )
    )
    assert result.total == INVOLUTIVE_REFERENCE[7]
    assert hashlib.sha256(b"".join(sorted(result.canonicals))).hexdigest() == INVOLUTIVE_7_DIGEST


def test_all_mode_size_5(tmp_path):
    # the reference value 3519 counts the strictly non-involutive classes;
    # with the 88 involutive ones the total is 3607
    result = enumerate_solutions(
        EnumerationTask(
            size=5,
            mode="all",
            cap=5,
            jobs=os.cpu_count() or 2,
            checkpoint_dir=os.environ.get("YBX_CHECKPOINT_DIR", tmp_path),
        )
    )
    counts = result.counts()
    assert counts["non_involutive"] == 3519
    assert counts["total"] == 3607
    assert hashlib.sha256(b"".join(sorted(result.canonicals))).hexdigest() == ALL_5_DIGEST


def test_labeled_count_is_the_orbit_sum_size_5():
    result = enumerate_solutions(EnumerationTask(size=5, mode="involutive", jobs=2))
    assert labeled_involutive_count(5) == 2640
    assert orbit_sum(result.classes) == 2640
