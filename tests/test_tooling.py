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


@pytest.mark.parametrize(
    "demo", ["solutions_tour.py", "braces_tour.py", "growth_and_unique_products.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
