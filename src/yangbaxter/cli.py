"""The ybx command line.

Subcommands: verify, analyze, enumerate, repr, growth, upp and the brace
group (verify | analyze | solution | ring), where `brace verify` and
`brace analyze` are `verify` and `analyze` taking brace files only.  Exit
codes: 0 success, 1 the input is invalid or fails a required property, 2
I/O or parse errors.  Failures follow one rule: the subcommands that take
`--format` (verify, analyze) report them on standard output, as a JSON
object with `ok: false` in structured mode; every other subcommand reports
them on standard error.  Structured output mode emits one JSON object per
line, schema-versioned.  Indices in files are 0-based; human-facing flags
accept 1-based cycle notation and 1-based words.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

from . import braces as braces_mod
from . import enumeration, fileio, solutions, structgroup
from .braces import FiniteRing, SkewBrace
from .solutions import Solution

STRUCTURED_SCHEMA = 1

# per kind of record: its name, and the property `verify` reports with its reader
_KINDS = {
    Solution: ("solution", "involutive", lambda s: s.involutive),
    SkewBrace: ("brace", "abelian type", lambda A: A.is_abelian_type),
    FiniteRing: ("ring", "radical", braces_mod.is_radical_ring),
}

# what a subcommand says of a file that holds a record of another kind,
# keyed by the kinds it takes
_WRONG_KIND = {
    (Solution, SkewBrace, FiniteRing): "unsupported record",
    (Solution, SkewBrace): "analyze expects a solution or brace",
    (Solution,): "error: this command expects a solution file",
    (SkewBrace,): "error: not a brace file",
    (SkewBrace, FiniteRing): "error: ring action expects a brace or ring file",
}


class _Failure(Exception):
    """A failed subcommand: its exit code, structured payload and text line."""

    def __init__(self, code: int, payload: dict, text: str):
        super().__init__(text)
        self.code, self.payload, self.text = code, payload, text


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "format", "text") == "structured":
        payload = {"schema": STRUCTURED_SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load(args, involutive: bool = False):
    """The record in `args.path`, which must be of one of the kinds `args.kinds`.

    Raises _Failure with exit code 2 when the file is missing or malformed,
    and 1 when its record is invalid, of another kind or, where `involutive`
    is asked for, a non-involutive solution.
    """
    try:
        record = fileio.parse_file(args.path)
    except fileio.ParseError as exc:
        raise _Failure(2, {"error": str(exc)}, f"parse error: {exc}") from None
    except ValueError as exc:
        raise _Failure(1, {"diagnostic": str(exc)}, f"invalid: {exc}") from None
    if not isinstance(record, args.kinds):
        text = _WRONG_KIND[args.kinds]
        raise _Failure(1, {"error": text}, text)
    if involutive and not record.involutive:
        text = "error: this command requires an involutive solution"
        raise _Failure(1, {"error": text}, text)
    return record


def cmd_verify(args) -> int:
    record = _load(args)
    kind, prop, read = _KINDS[type(record)]
    value = read(record)
    _emit(
        args,
        {"ok": True, "kind": kind, "size": record.size, prop.replace(" ", "_"): value},
        f"valid {kind} of size {record.size}\n{prop}: {str(value).lower()}",
    )
    return 0


def cmd_analyze(args) -> int:
    record = _load(args)
    analyze = solutions.analyze if isinstance(record, Solution) else braces_mod.analyze_brace
    report = analyze(record).as_dict()
    _emit(args, {"ok": True, "kind": _KINDS[type(record)][0], **report},
          "\n".join(f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
                    for k, v in report.items()))
    return 0


def cmd_enumerate(args) -> int:
    task = enumeration.EnumerationTask(
        size=args.size,
        mode="involutive" if args.involutive else "all",
        jobs=args.jobs,
        cap=args.cap,
        time_budget=args.time_budget,
        checkpoint_dir=args.checkpoint,
    )
    try:
        # an unwritable output path fails before the search; appending leaves
        # an existing --out file whole if the run fails later
        if args.out:
            open(args.out, "a").close()
        if args.out_dir:
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        result = enumeration.enumerate_solutions(task)
    except (OSError, enumeration.CheckpointMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except enumeration.EnumerationCapError as exc:
        print(f"error: {exc} with --cap {args.size}", file=sys.stderr)
        return 1
    except enumeration.PartialResultError as exc:
        print(f"error: partial result: {exc}", file=sys.stderr)
        return 1

    counts = result.counts()
    if args.involutive:
        print(counts["involutive"])
    else:
        print(f"involutive: {counts['involutive']}")
        print(f"non-involutive: {counts['non_involutive']}")
        print(f"total: {counts['total']}")
    if args.count_only:
        return 0
    # each class is rebuilt, and so verified, just before its record is written
    classes = (solutions.solution_from_canonical(blob) for blob in result.canonicals)
    if args.out_dir:
        for i, sol in enumerate(classes):
            (Path(args.out_dir) / f"{result.mode}-n{result.size}-{i:05d}.txt").write_text(
                fileio.solution_to_text(sol), encoding="utf-8"
            )
        return 0
    header = fileio.StreamHeader(size=result.size, mode=result.mode, count=result.total)
    sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with sink as out:
        out.writelines(fileio.stream_chunks(header, classes))
    return 0


def cmd_repr(args) -> int:
    gens = structgroup.affine_representation(_load(args, involutive=True))
    for i, g in enumerate(gens):
        print(f"x_{i + 1}:")
        for row in g.to_matrix():
            print("  " + " ".join(str(v) for v in row))
    return 0


def cmd_growth(args) -> int:
    growth = structgroup.ball_sizes(_load(args, involutive=True), args.radius)
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
    record = _load(args, involutive=True)
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
    """`brace solution` and `brace ring`; the other two actions are verify and analyze."""
    record = _load(args)
    if args.action == "solution":
        sys.stdout.write(fileio.solution_to_text(braces_mod.associated_solution(record)))
        return 0
    if isinstance(record, SkewBrace):
        convert, to_text = braces_mod.ring_from_two_sided, fileio.ring_to_text
    else:
        convert, to_text = braces_mod.brace_from_radical_ring, fileio.brace_to_text
    try:
        converted = convert(record)
    except (braces_mod.InvalidBraceError, braces_mod.InvalidRingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(to_text(converted))
    return 0


def _int_from(low: int):
    """The argparse type of an integer flag whose least value is low: a
    smaller value is a usage error (exit 2), as a non-integer is."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybx",
        description="Verify, classify and enumerate braid-identity solutions "
        "and finite skew braces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(group, name, func, kinds, summary):
        """A subcommand that reads one record file of the given kinds."""
        p = group.add_parser(name, help=summary)
        p.add_argument("path")
        p.set_defaults(func=func, kinds=kinds)
        return p

    for name, func, kinds, summary in [
        ("verify", cmd_verify, (Solution, SkewBrace, FiniteRing),
         "validate a solution/brace/ring file"),
        ("analyze", cmd_analyze, (Solution, SkewBrace),
         "full report for a solution or brace"),
    ]:
        p = file_command(sub, name, func, kinds, summary)
        p.add_argument("--format", choices=["text", "structured"], default="text")

    p = sub.add_parser("enumerate", help="isomorph-free enumeration by size")
    p.add_argument("--size", type=_int_from(1), required=True)
    p.add_argument("--involutive", action="store_true")
    p.add_argument("--jobs", type=_int_from(1), default=1)
    p.add_argument("--cap", type=int, default=None,
                   help="raise the default size cap for long runs")
    p.add_argument("--time-budget", type=float, default=None,
                   help="wall-clock budget in seconds; partial results error out")
    p.add_argument("--checkpoint", default=None,
                   help="directory for resumable subtree results")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--count-only", action="store_true")
    output.add_argument("--out", default=None, help="write one multi-record stream file")
    output.add_argument("--out-dir", default=None, help="write one file per class")
    p.set_defaults(func=cmd_enumerate)

    file_command(sub, "repr", cmd_repr, (Solution,),
                 "print the affine generator matrices")

    p = file_command(sub, "growth", cmd_growth, (Solution,),
                     "Cayley ball sizes and a series guess")
    p.add_argument("--radius", type=_int_from(0), required=True)
    p.add_argument("--guess", action="store_true")

    p = file_command(sub, "upp", cmd_upp, (Solution,),
                     "unique-product falsifier on a word pair")
    p.add_argument("--x", required=True, help="word, e.g. \"1 2'\"")
    p.add_argument("--y", required=True, help="word, e.g. \"1 3'\"")

    actions = sub.add_parser("brace", help="brace-specific operations").add_subparsers(
        dest="action", required=True)
    file_command(actions, "verify", cmd_verify, (SkewBrace,), "verify, brace files only")
    file_command(actions, "analyze", cmd_analyze, (SkewBrace,), "analyze, brace files only")
    file_command(actions, "solution", cmd_brace, (SkewBrace,), "the associated solution")
    file_command(actions, "ring", cmd_brace, (SkewBrace, FiniteRing),
                 "two-sided brace <-> radical ring")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        if hasattr(args, "format"):
            _emit(args, {"ok": False, **failure.payload}, failure.text)
        else:
            print(failure.text, file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    sys.exit(main())
