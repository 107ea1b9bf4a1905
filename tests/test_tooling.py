"""What the benchmark, the demos and the README rely on from the library."""

import argparse
import ast
import importlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from yangbaxter import cli

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


def _traced_run(workload: str) -> dict:
    """One 1 s traced perfbench run of `workload` that passed its checks."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result


def test_traced_all_mode_run_reads_its_tasks():
    # the per-layer task count and listing time cover all mode too
    result = _traced_run("all-4")
    assert result["metrics"]["enumeration.subtrees"]["value"] > 0


def test_traced_growth_run_passes_its_checks():
    # the ball search against perfbench's lattice-ball and relabeling checks
    result = _traced_run("growth")
    assert result["metrics"]["structgroup.ball_elements"]["value"] > 0


def test_traced_braces_run_passes_its_checks():
    # the brace search's leaf rule against perfbench's brace checks: 47
    # classes, 27 of abelian type, pairwise non-isomorphic
    result = _traced_run("braces-8")
    assert result["metrics"]["enumeration.brace_search_self_s"]["value"] > 0


def test_traced_involutive_run_passes_its_checks():
    # the one workload that forks --jobs helpers: its --jobs 2 operation's
    # stream must be byte-identical to the serial ones
    result = _traced_run("involutive-5")
    assert result["metrics"]["enumeration.subtrees"]["value"] == 132


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _loaded_by_import(module: str) -> bool:
    # a fresh interpreter, so no other test's imports are counted
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, yangbaxter; print({module!r} in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_import_leaves_numpy_unloaded():
    assert not _loaded_by_import("numpy")


def test_import_leaves_the_process_pool_unloaded():
    # a run with jobs > 1 forks its helpers with os.fork, and neither module
    # is needed: they cost every process about 0.5 to 1.5 MB of RSS
    assert not _loaded_by_import("concurrent.futures.process")
    assert not _loaded_by_import("multiprocessing")


@pytest.mark.parametrize(
    "demo",
    ["solutions_tour.py", "braces_tour.py", "enumeration_tour.py",
     "growth_and_unique_products.py"],
)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_quick_start_values():
    # every expression that ends in "# value" must have that repr; text
    # after a colon in the comment explains the value
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(code).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown, want = repr(value), comments[stmt.end_lineno]
            assert want == shown or want.startswith(shown + ":"), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 9


def test_readme_cli_lines_parse():
    # every command in the README's command block parses, and every flag the
    # prose names in backticks belongs to some subcommand
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    subcommands = next(a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("ybx ")]
    assert len(commands) >= 10
    for argv in commands:
        try:
            full = parser.parse_args(argv[1:])
            alone = cli.build_parser(argv[1]).parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
        # the parser main builds for the command alone reads it the same way
        assert alone == full, shlex.join(argv)
    options = {opt for sub in subcommands.values() for a in sub._actions
               for opt in a.option_strings}
    named = set(re.findall(r"`(--[a-z][a-z-]*)", readme))
    assert named and named <= options, sorted(named - options)
