"""Opt-in long enumerations with recorded reference counts.

These exceed the desk-scale acceptance budgets; enable with YBX_RUN_LONG=1.
A checkpoint directory makes interrupted runs resumable:

    YBX_RUN_LONG=1 pytest tests/test_long_runs.py -v -s
"""

import hashlib
import os

import pytest
from conftest import classes_of
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
# SHA-256 of the sorted canonical forms of all mode at size 6, the same with
# jobs 1 and 2
ALL_6_DIGEST = "ad4a45b72ab11f2d023dd8429c7e9e29cf08acd39db334eefaacf0a5c71e6fdd"


def test_involutive_size_7(tmp_path):
    # about 20 s with 2 jobs
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


def test_all_mode_size_6(tmp_path):
    # about 30 s with 2 jobs; 100,071 non-involutive classes, as in the
    # table of Akguen-Mereb-Vendramin (Math. Comp. 91 (2022)), and the 595
    # involutive ones
    result = enumerate_solutions(
        EnumerationTask(
            size=6,
            mode="all",
            cap=6,
            jobs=os.cpu_count() or 2,
            checkpoint_dir=os.environ.get("YBX_CHECKPOINT_DIR", tmp_path),
        )
    )
    assert result.counts() == {
        "involutive": 595, "non_involutive": 100071, "total": 100666
    }
    assert hashlib.sha256(b"".join(sorted(result.canonicals))).hexdigest() == ALL_6_DIGEST


def test_labeled_count_is_the_orbit_sum_size_5():
    result = enumerate_solutions(EnumerationTask(size=5, mode="involutive", jobs=2))
    assert labeled_involutive_count(5) == 2640
    assert orbit_sum(classes_of(result)) == 2640
