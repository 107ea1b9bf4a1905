"""What the benchmark and the demos rely on from the library."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_function_exists():
    # the benchmark wraps these names in place; a missing one breaks traced runs
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _, _ in tracer.TRACED:
        found = getattr(importlib.import_module(f"yangbaxter.{module}"), attr, None)
        assert callable(found), f"yangbaxter.{module}.{attr} is gone"


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_import_leaves_numpy_unloaded():
    # a fresh interpreter, so no other test's imports are counted
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, yangbaxter; print('numpy' in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "demo", ["solutions_tour.py", "braces_tour.py", "growth_and_unique_products.py"]
)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
