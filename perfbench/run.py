"""The yangbaxter benchmark: one workload, closed loop, one operation at a time.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation runs in a fresh process (perfbench/op.py), so no cache
carries over between operations.  Operations start one after another until
S seconds have passed.  Every operation's output is checked by the
benchmark's own code (perfbench/checks.py), outside the timed part.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A record of the run
(machine, source revision, seed, samples) goes to .perfbench/runs/, and a
traced run writes its spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 120

import checks  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import layers  # noqa: E402
import selftest  # noqa: E402

WORKLOADS = ("involutive-5", "all-4", "braces-8", "growth")

# the `ybx upp` words, in the generators of the size-4 solution
UPP_WORDS = ("1 2'", "1 3'")

EXPECTED = {
    # Etingof-Schedler-Soloviev (1999): 88 involutive classes of size 5
    "involutive-5": {"involutive": 88, "total": 88},
    # 23 involutive + 230 non-involutive classes of size 4
    "all-4": {"involutive": 23, "total": 253},
    # Guarnieri-Vendramin (2017): 47 skew braces of order 8, 27 of abelian type
    "braces-8": {"abelian": 27, "total": 47},
}


# ---------------------------------------------------------------------------
# Inputs


def _relabel_word(word: str, f) -> str:
    """Map each generator index of a word such as "1 2'" through f."""
    tokens = []
    for token in word.split():
        index = token.rstrip("'")
        tokens.append(str(f[int(index) - 1] + 1) + token[len(index):])
    return " ".join(tokens)


def op_spec(workload: str, rng: random.Random, opdir: Path, jobs: int) -> dict:
    """Commands and input files of one operation; growth draws a relabeling."""
    stream = str(opdir / "stream.txt")
    if workload == "involutive-5":
        cmds = [["enumerate", "--size", "5", "--involutive", "--jobs", str(jobs),
                 "--out", stream]]
        return {"commands": cmds, "inputs": {}, "stream": stream, "jobs": jobs}
    if workload == "all-4":
        cmds = [["enumerate", "--size", "4", "--jobs", "1", "--out", stream]]
        return {"commands": cmds, "inputs": {}, "stream": stream, "jobs": 1}
    if workload == "braces-8":
        return {"commands": [], "inputs": {}, "jobs": 1}
    f4 = list(range(4))
    f8 = list(range(8))
    rng.shuffle(f4)
    rng.shuffle(f8)
    p4, p8 = str(opdir / "sol4.txt"), str(opdir / "sol8.txt")
    inputs = {
        p4: (4, *checks.relabel_solution(*checks.solution_from_cycles(checks.SOL4), f4)),
        p8: (8, *checks.relabel_solution(*checks.solution_from_cycles(checks.SOL8), f8)),
    }
    x, y = (_relabel_word(w, f4) for w in UPP_WORDS)
    cmds = [
        ["growth", p4, "--radius", "12", "--guess"],
        ["growth", p8, "--radius", "7"],
        ["upp", p4, "--x", x, "--y", y],
    ]
    return {"commands": cmds, "inputs": inputs, "jobs": 1}


# ---------------------------------------------------------------------------
# Running one operation


def run_op(workload: str, index: int, spec: dict, trace: bool, opdir: Path) -> dict | None:
    """Spawn one operation and return its result, or None if it failed."""
    spec = dict(spec, workload=workload, op=index, trace=trace, src=str(SRC),
                result=str(opdir / "result.json"))
    spec_path = opdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "op.py"), str(spec_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"operation {index} timed out after {OP_TIMEOUT_S}s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        return None
    result = json.loads(Path(spec["result"]).read_text())
    if any(c["code"] != 0 for c in result["commands"]):
        print(f"operation {index}: a command exited non-zero", file=sys.stderr)
        return None
    result["setup"] = result["ready"] - spawned
    if "stream" in spec:
        result["stream"] = Path(spec["stream"]).read_text(encoding="utf-8")
    result["op"] = index
    result["trace"] = trace
    result["jobs"] = spec["jobs"]
    return result


# ---------------------------------------------------------------------------
# Output checks (outside the timed part)


class CheckFailure(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def check_stream(workload: str, result: dict) -> None:
    """Full independent check of one enumeration operation's output."""
    from yangbaxter.solutions import Solution, find_isomorphism

    want = EXPECTED[workload]
    header, records = checks.parse_stream(result["stream"])
    _require(int(header.get("count", -1)) == len(records) == want["total"],
             f"{workload}: {len(records)} records, header {header.get('count')}, "
             f"expected {want['total']}")
    sols = []
    involutive = 0
    for n, sigma, tau in records:
        problem = checks.solution_problem(n, sigma, tau)
        _require(problem is None, f"{workload}: emitted non-solution: {problem}")
        involutive += checks.is_involutive(n, sigma, tau)
        sols.append(Solution(n, tuple(map(tuple, sigma)), tuple(map(tuple, tau))))
    _require(involutive == want["involutive"],
             f"{workload}: {involutive} involutive classes, expected {want['involutive']}")
    printed = result["commands"][0]["stdout"].split()
    if workload == "involutive-5":
        expected = [str(want["total"])]
    else:
        expected = ["involutive:", str(want["involutive"]), "non-involutive:",
                    str(want["total"] - want["involutive"]), "total:", str(want["total"])]
    _require(printed == expected, f"{workload}: printed counts {printed}")
    for i, s in enumerate(sols):
        for t in sols[i + 1:]:
            _require(find_isomorphism(s, t) is None,
                     f"{workload}: two emitted classes are isomorphic")


def check_braces(result: dict) -> None:
    from yangbaxter.braces import SkewBrace, find_brace_isomorphism

    want = EXPECTED["braces-8"]
    found = result["braces"]
    _require(len(found) == want["total"], f"braces-8: {len(found)} classes")
    for add, mul in found:
        problem = checks.brace_problem(add, mul)
        _require(problem is None, f"braces-8: emitted non-brace: {problem}")
    abelian = sum(checks.is_abelian(add) for add, _ in found)
    _require(abelian == want["abelian"], f"braces-8: {abelian} of abelian type")
    objs = [SkewBrace(len(a), tuple(map(tuple, a)), tuple(map(tuple, m)))
            for a, m in found]
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            _require(find_brace_isomorphism(a, b) is None,
                     "braces-8: two emitted braces are isomorphic")


def check_growth(result: dict) -> str:
    """Checks one growth operation; returns its relabeling-invariant output."""
    g4, g8, upp = (c["stdout"].splitlines() for c in result["commands"])
    for lines, n, radius in ((g4, 4, 12), (g8, 8, 7)):
        values = [tuple(map(int, line.split())) for line in lines[: radius + 1]]
        # the translation part is a bijection onto Z^n under which every
        # generator or inverse moves by one unit vector, so the Cayley ball
        # is the l1 ball of Z^n
        want = [(k, checks.lattice_ball(n, k)) for k in range(radius + 1)]
        _require(values == want, f"growth n={n}: {values} != lattice {want}")
    guess = [line for line in g4 if line.startswith("guess (conjecture): ")]
    _require(len(guess) == 1, "growth: no series guess printed")
    num, den = checks.parse_series(guess[0].split(": ", 1)[1])
    expanded = checks.expand_series(num, den, 13)
    _require(expanded == [checks.lattice_ball(4, k) for k in range(13)],
             "growth: the series guess does not re-expand to the values")
    _require(upp[0].startswith("words: ") and "FALSIFIED" in upp[2],
             f"upp: unexpected verdict {upp[:3]}")
    # the words line names relabeled generators; the rest must not change
    return "\n".join(g4 + g8 + upp[1:])


def check_all(workload: str, results: list[dict]) -> list[str]:
    """Every operation checked; returns the property checks that ran."""
    first = results[0]
    done = []
    if workload in ("involutive-5", "all-4"):
        check_stream(workload, first)
        for r in results[1:]:
            _require(r["stream"] == first["stream"]
                     and r["commands"][0]["stdout"] == first["commands"][0]["stdout"],
                     f"{workload}: operation output differs between runs "
                     f"(jobs {first['jobs']} vs {r['jobs']})")
        jobs = sorted({r["jobs"] for r in results})
        if len(jobs) > 1:
            done.append(f"stream byte-identical for --jobs {jobs}")
    elif workload == "braces-8":
        check_braces(first)
        for r in results[1:]:
            _require(r["braces"] == first["braces"], "braces-8: output differs")
    else:
        outputs = {check_growth(r) for r in results}
        _require(len(outputs) == 1, "growth: output depends on the relabeling")
        if len(results) > 1:
            done.append(f"growth and upp identical under {len(results)} relabelings")
    return done


# ---------------------------------------------------------------------------
# Run record


def _git_sha() -> str | None:
    """HEAD of the checkout's .git, read directly (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "yangbaxter" / "__init__.py").is_file():
        print(f"error: no yangbaxter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]

    # a checker that fails its self-test cannot vouch for any output
    failures = selftest.run_all()
    for line in failures:
        print(f"check failed: self-test {line}", file=sys.stderr)

    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    trace = bool(args.trace)
    # the traced run keeps the search in one process so its spans are visible;
    # its untraced twin uses the same --jobs so the difference is the tracing
    jobs = 1 if trace or args.workload != "involutive-5" else 2
    results: list[dict] = []
    attempted = failed = 0

    def attempt(traced: bool, jobs: int) -> None:
        nonlocal attempted, failed
        opdir = work / f"op{attempted}"
        opdir.mkdir()
        spec = op_spec(args.workload, rng, opdir, jobs)
        result = run_op(args.workload, attempted, spec, traced, opdir)
        shutil.rmtree(opdir)
        attempted += 1
        if result is None:
            failed += 1
        else:
            results.append(result)

    try:
        started = time.monotonic()
        while True:
            attempt(trace and attempted % 2 == 1, jobs)
            if time.monotonic() - started >= args.seconds and (not trace or attempted >= 2):
                break
        if trace and args.workload == "involutive-5":
            # one more operation at --jobs 2, whose stream must be
            # byte-identical to the --jobs 1 streams above
            attempt(False, 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not results:
        print(f"error: all {attempted} operations failed", file=sys.stderr)
        return 1
    correct = not failures
    properties: list[str] = []
    try:
        properties = check_all(args.workload, results)
    except (CheckFailure, LookupError, ValueError) as exc:  # or unparsable output
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    if trace:
        try:
            values = layers.per_layer(results)
        except ValueError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct, values = False, None
        spans_dir = state / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans = [s for r in results for s in r["spans"]]
        (spans_dir / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    else:
        values = {
            "setup_s": statistics.median(r["setup"] for r in results),
            "wall_s": statistics.median(r["wall"] for r in results),
            "cpu_s": statistics.median(r["cpu"] for r in results),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
        }
    # names and units as BENCHMARK.json lists them
    metrics = {} if values is None else {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in listed
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "machine": machine(),
        "attempted": attempted,
        "failed": failed,
        "property_checks": properties,
        "samples": [
            {k: r[k] for k in ("setup", "wall", "cpu", "rss_kb", "trace", "jobs")}
            for r in results
        ],
    }
    runs_dir = state / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({k: v for k, v in record.items() if k != "samples"}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
