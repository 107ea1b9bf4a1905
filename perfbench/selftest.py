"""Self-tests for the benchmark's checkers.

Usage: python3 perfbench/selftest.py   (exit code 0 when every test passes)

run.py runs these before measuring, so a checker that accepts everything
cannot pass a run.  Each checker must accept a known-good input and reject
the same input with one swapped table entry.
"""

from __future__ import annotations

import sys
from itertools import permutations, product
from pathlib import Path

import checks
from checks import SOL4, solution_from_cycles
from tracer import span_problem

ROOT = Path(__file__).resolve().parent.parent

# a size-3 solution that is not involutive
SOL3 = (["(23)", "(23)", "(23)"], ["id", "(132)", "(123)"])


def _swap(table, i, a, b):
    out = [list(row) for row in table]
    out[i][a], out[i][b] = out[i][b], out[i][a]
    return out


def _s3_table():
    elems = list(permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(p[q[k]] for k in range(3))] for q in elems] for p in elems]


def test_solution_checker():
    n, sigma, tau = solution_from_cycles(SOL4)
    assert checks.solution_problem(n, sigma, tau) is None
    assert checks.is_involutive(n, sigma, tau)
    assert checks.solution_problem(n, _swap(sigma, 1, 0, 1), tau) is not None
    assert checks.solution_problem(n, sigma, _swap(tau, 2, 0, 3)) is not None
    degenerate = [list(row) for row in sigma]
    degenerate[0][0] = degenerate[0][1]
    assert "degenerate" in checks.solution_problem(n, degenerate, tau)
    n, sigma, tau = solution_from_cycles(SOL3)
    assert checks.solution_problem(n, sigma, tau) is None
    assert not checks.is_involutive(n, sigma, tau)


def test_relabeling_keeps_a_solution():
    n, sigma, tau = solution_from_cycles(SOL4)
    s2, t2 = checks.relabel_solution(n, sigma, tau, [2, 0, 3, 1])
    assert checks.solution_problem(n, s2, t2) is None
    assert (s2, t2) != (sigma, tau)


def test_stream_parser_round_trip():
    n, sigma, tau = solution_from_cycles(SOL4)
    text = ("kind: enumeration-stream\nschema: 1\nsize: 4\nmode: all\ncount: 2\n\n"
            + checks.solution_text(n, sigma, tau) + "\n"
            + checks.solution_text(n, tau, sigma))
    header, records = checks.parse_stream(text)
    assert header["count"] == "2"
    assert records == [(n, sigma, tau), (n, tau, sigma)]


def test_brace_checker():
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert checks.brace_problem(z4, z4) is None
    assert checks.brace_problem(z4, _swap(z4, 1, 1, 2)) is not None
    assert checks.brace_problem(_swap(z4, 3, 2, 3), z4) is not None
    # almost trivial brace on S3: a o b = b + a, additive group non-abelian
    s3 = _s3_table()
    opposite = [[s3[b][a] for b in range(6)] for a in range(6)]
    assert checks.brace_problem(s3, opposite) is None
    assert not checks.is_abelian(s3) and checks.is_abelian(z4)
    assert checks.brace_problem(s3, _swap(opposite, 4, 1, 5)) is not None
    # two groups with identity 0 that fail only the compatibility axiom
    z6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    assert "compatibility" in checks.brace_problem(s3, z6)


def test_lattice_ball():
    for n, k in product(range(1, 4), range(0, 5)):
        brute = sum(
            1 for v in product(range(-k, k + 1), repeat=n) if sum(map(abs, v)) <= k
        )
        assert checks.lattice_ball(n, k) == brute, (n, k)


def test_lattice_ball_matches_free_abelian_growth():
    # the trivial solution's structure group is exactly Z^n
    from yangbaxter import ball_sizes, make_trivial

    for n in range(1, 4):
        got = list(ball_sizes(make_trivial(n), 6).values)
        assert got == [checks.lattice_ball(n, k) for k in range(7)], (n, got)


def test_series_tools():
    num, den = checks.parse_series("(1 + t) / (1 - 2*t + t^2)")
    assert (num, den) == ([1, 1], [1, -2, 1])
    assert checks.expand_series(num, den, 6) == [1, 3, 5, 7, 9, 11]
    assert checks.parse_poly("-3*t^4 - t + 12") == [12, -1, 0, 0, -3]
    for bad in ("2t", "t^", "", "1 +", "3*"):
        try:
            checks.parse_poly(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")


def test_span_checker():
    def span(name, start, end, parent):
        return {"name": name, "start": start, "end": end, "parent": parent}

    good = [span("bench.op", 0.0, 10.0, None), span("a", 1.0, 4.0, 0),
            span("b", 2.0, 3.0, 1), span("c", 5.0, 9.0, 0)]
    assert span_problem(good, "bench.op") is None
    # a child that outlives its parent
    late = [dict(s) for s in good]
    late[2]["end"] = 4.5
    assert "outside" in span_problem(late, "bench.op")
    # siblings that overlap leave their parent a negative self time
    overlap = good + [span("d", 1.0, 9.5, 0)]
    assert "negative" in span_problem(overlap, "bench.op")
    # a second root, or a root of another name
    assert span_problem(good + [span("e", 11.0, 12.0, None)], "bench.op") is not None
    assert span_problem(good, "cli.main") is not None


TESTS = [v for k, v in sorted(globals().items()) if k.startswith("test_")]


def run_all() -> list[str]:
    """Names and messages of the failing tests; empty when all pass."""
    failures = []
    for test in TESTS:
        try:
            test()
        except Exception as exc:  # report every failing test, not just the first
            failures.append(f"{test.__name__}: {type(exc).__name__}: {exc}")
    return failures


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    failed = run_all()
    for line in failed:
        print("FAIL", line)
    print(f"{len(TESTS) - len(failed)}/{len(TESTS)} checker self-tests passed")
    sys.exit(1 if failed else 0)
