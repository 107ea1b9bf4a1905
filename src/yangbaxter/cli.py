"""The ybx command line.

Subcommands: verify, analyze, enumerate, repr, growth, upp and the brace
group (verify | analyze | solution | ring).  Exit codes: 0 success, 1 the
input is invalid or fails a required property, 2 I/O or parse errors.
Structured output mode emits one JSON object per line, schema-versioned.
Indices in files are 0-based; human-facing flags accept 1-based cycle
notation and 1-based words.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import braces as braces_mod
from . import enumeration, fileio, solutions, structgroup
from .braces import FiniteRing, SkewBrace
from .solutions import Solution

STRUCTURED_SCHEMA = 1


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "format", "text") == "structured":
        payload = {"schema": STRUCTURED_SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _report_text(report: dict) -> str:
    return "\n".join(f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
                     for k, v in report.items())


def _load_or_emit(args):
    """(record, None), or (None, exit code) once the failure went through _emit."""
    try:
        return fileio.parse_file(args.path), None
    except fileio.ParseError as exc:
        _emit(args, {"ok": False, "error": str(exc)}, f"parse error: {exc}")
        return None, 2
    except (solutions.InvalidSolutionError, braces_mod.InvalidBraceError,
            braces_mod.InvalidRingError) as exc:
        _emit(args, {"ok": False, "diagnostic": str(exc)}, f"invalid: {exc}")
        return None, 1


def _load_involutive_solution(args):
    """(solution, None), or (None, exit code) once the failure went to stderr."""
    try:
        record = fileio.parse_file(args.path)
        if not isinstance(record, Solution):
            raise ValueError("this command expects a solution file")
        if not record.involutive:
            raise ValueError("this command requires an involutive solution")
    except fileio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return None, 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    return record, None


def cmd_verify(args) -> int:
    record, code = _load_or_emit(args)
    if code is not None:
        return code
    if isinstance(record, Solution):
        _emit(
            args,
            {"ok": True, "kind": "solution", "size": record.size,
             "involutive": record.involutive},
            f"valid solution of size {record.size}\ninvolutive: "
            f"{str(record.involutive).lower()}",
        )
        return 0
    if isinstance(record, SkewBrace):
        _emit(
            args,
            {"ok": True, "kind": "brace", "size": record.size,
             "abelian_type": record.is_abelian_type},
            f"valid brace of size {record.size}\nabelian type: "
            f"{str(record.is_abelian_type).lower()}",
        )
        return 0
    if isinstance(record, FiniteRing):
        radical = braces_mod.is_radical_ring(record)
        _emit(
            args,
            {"ok": True, "kind": "ring", "size": record.size, "radical": radical},
            f"valid ring of size {record.size}\nradical: {str(radical).lower()}",
        )
        return 0
    _emit(args, {"ok": False, "error": "unsupported record"}, "unsupported record")
    return 1


def cmd_analyze(args) -> int:
    record, code = _load_or_emit(args)
    if code is not None:
        return code
    if isinstance(record, Solution):
        kind, report = "solution", solutions.analyze(record).as_dict()
    elif isinstance(record, SkewBrace):
        kind, report = "brace", braces_mod.analyze_brace(record).as_dict()
    else:
        _emit(args, {"ok": False, "error": "analyze expects a solution or brace"},
              "analyze expects a solution or brace")
        return 1
    _emit(args, {"ok": True, "kind": kind, **report}, _report_text(report))
    return 0


def cmd_enumerate(args) -> int:
    checkpoint = args.checkpoint or os.environ.get("YBX_CHECKPOINT_DIR")
    task = enumeration.EnumerationTask(
        size=args.size,
        mode="involutive" if args.involutive else "all",
        jobs=args.jobs,
        cap=args.cap,
        time_budget=args.time_budget,
        checkpoint_dir=checkpoint,
    )
    try:
        result = enumeration.enumerate_solutions(task)
    except enumeration.EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except enumeration.CheckpointMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except enumeration.PartialResultError as exc:
        print(f"error: partial result: {exc}", file=sys.stderr)
        return 1

    meta = {}
    if args.seed is not None:
        meta["seed"] = f"{args.seed} (no-op)"
        print(f"seed: {args.seed} (no-op)")
    counts = result.counts()
    if args.involutive:
        print(counts["involutive"])
    else:
        print(f"involutive: {counts['involutive']}")
        print(f"non-involutive: {counts['non_involutive']}")
        print(f"total: {counts['total']}")
    if args.count_only:
        return 0
    header = fileio.StreamHeader(
        size=result.size, mode=result.mode, count=result.total, meta=meta
    )
    text = fileio.stream_to_text(header, result.classes)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    elif args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, sol in enumerate(result.classes):
            (out_dir / f"{result.mode}-n{result.size}-{i:05d}.txt").write_text(
                fileio.solution_to_text(sol), encoding="utf-8"
            )
    else:
        sys.stdout.write(text)
    return 0


def cmd_repr(args) -> int:
    record, code = _load_involutive_solution(args)
    if code is not None:
        return code
    gens = structgroup.affine_representation(record)
    for i, g in enumerate(gens):
        print(f"x_{i + 1}:")
        for row in g.to_matrix():
            print("  " + " ".join(str(v) for v in row))
    return 0


def cmd_growth(args) -> int:
    record, code = _load_involutive_solution(args)
    if code is not None:
        return code
    growth = structgroup.ball_sizes(record, args.radius)
    for k, v in enumerate(growth.values):
        print(f"{k} {v}")
    if growth.truncated:
        print("truncated: true (memory cap reached)")
        return 1
    if args.guess:
        if len(growth.values) < 6:
            print("guess: need radius >= 5 for a series guess")
        else:
            guess = structgroup.guess_rational_series(growth.values)
            if guess is None:
                print("guess: none")
            else:
                print(f"guess (conjecture): {guess}")
    return 0


def cmd_upp(args) -> int:
    record, code = _load_involutive_solution(args)
    if code is not None:
        return code
    try:
        wx = structgroup.parse_word(args.x)
        wy = structgroup.parse_word(args.y)
        gens = structgroup.affine_representation(record)
        x = structgroup.eval_word(gens, wx)
        y = structgroup.eval_word(gens, wy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    S = structgroup.promislow_set(x, y)
    verdict = structgroup.upp_falsify(S)
    print(f"words: x = {args.x!r}, y = {args.y!r}")
    print(f"set size: {verdict.set_size}")
    print(verdict)
    print("multiplicity table (factorizations -> products):")
    for mult, count in verdict.multiplicity_histogram:
        print(f"  {mult} -> {count}")
    return 0


def cmd_brace(args) -> int:
    try:
        record = fileio.parse_file(args.path)
    except fileio.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (braces_mod.InvalidBraceError, braces_mod.InvalidRingError,
            solutions.InvalidSolutionError) as exc:
        if args.action == "verify":
            print(f"invalid: {exc}")
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.action == "verify":
        if isinstance(record, SkewBrace):
            print(f"valid brace of size {record.size}")
            return 0
        print("error: not a brace file", file=sys.stderr)
        return 1
    if args.action == "analyze":
        if not isinstance(record, SkewBrace):
            print("error: not a brace file", file=sys.stderr)
            return 1
        print(_report_text(braces_mod.analyze_brace(record).as_dict()))
        return 0
    if args.action == "solution":
        if not isinstance(record, SkewBrace):
            print("error: not a brace file", file=sys.stderr)
            return 1
        sol = braces_mod.associated_solution(record)
        sys.stdout.write(fileio.solution_to_text(sol))
        return 0
    if args.action == "ring":
        if isinstance(record, SkewBrace):
            try:
                ring = braces_mod.ring_from_two_sided(record)
            except braces_mod.InvalidBraceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            sys.stdout.write(fileio.ring_to_text(ring))
            return 0
        if isinstance(record, FiniteRing):
            try:
                brace = braces_mod.brace_from_radical_ring(record)
            except braces_mod.InvalidRingError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            sys.stdout.write(fileio.brace_to_text(brace))
            return 0
        print("error: ring action expects a brace or ring file", file=sys.stderr)
        return 1
    print(f"error: unknown brace action {args.action}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Verify, classify and enumerate braid-identity solutions "
        "and finite skew braces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a solution/brace/ring file")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="full report for a solution or brace")
    p.add_argument("path")
    p.add_argument("--format", choices=["text", "structured"], default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("enumerate", help="isomorph-free enumeration by size")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--involutive", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cap", type=int, default=None,
                   help="raise the default size cap for long runs")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget in seconds; partial results error out")
    p.add_argument("--checkpoint", default=None,
                   help="directory for resumable subtree results "
                   "(env: YBX_CHECKPOINT_DIR)")
    p.add_argument("--out", default=None, help="write one multi-record stream file")
    p.add_argument("--out-dir", default=None, help="write one file per class")
    p.add_argument("--seed", type=int, default=None,
                   help="recorded in output metadata; currently a no-op")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("repr", help="print the affine generator matrices")
    p.add_argument("path")
    p.set_defaults(func=cmd_repr)

    p = sub.add_parser("growth", help="Cayley ball sizes and a series guess")
    p.add_argument("path")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--guess", action="store_true")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("upp", help="unique-product falsifier on a word pair")
    p.add_argument("path")
    p.add_argument("--x", required=True, help="word, e.g. \"1 2'\"")
    p.add_argument("--y", required=True, help="word, e.g. \"1 3'\"")
    p.set_defaults(func=cmd_upp)

    p = sub.add_parser("brace", help="brace-specific operations")
    p.add_argument("action", choices=["verify", "analyze", "solution", "ring"])
    p.add_argument("path")
    p.set_defaults(func=cmd_brace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
