"""Self-describing text container for solutions, braces, rings and streams.

Every record starts with a `kind:` line followed by `key: value` metadata
and named table sections whose rows are whitespace-separated 0-based
indices.  Records in a stream are separated by blank lines; `#` starts a
comment.  Whatever this module writes, it parses back identically.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .braces import FiniteRing, SkewBrace, verify_brace, verify_ring
from .groups import table_identity
from .perms import relabel_table
from .solutions import Solution, verify

SCHEMA_VERSION = 1


class ParseError(ValueError):
    pass


@dataclass
class StreamHeader:
    size: int
    mode: str
    count: int
    meta: dict = field(default_factory=dict)


@dataclass
class SolutionStream:
    header: StreamHeader
    solutions: list[Solution]


def _record_text(kind: str, size: int, sections) -> str:
    """A record: its kind and size, then each (name, table) section."""
    lines = [f"kind: {kind}", f"size: {size}"]
    for name, table in sections:
        lines.append(f"{name}:")
        lines += [" ".join(str(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def solution_to_text(s: Solution) -> str:
    return _record_text("solution", s.size, (("sigma", s.sigma), ("tau", s.tau)))


def brace_to_text(A: SkewBrace) -> str:
    return _record_text("brace", A.size, (("add", A.add), ("mul", A.mul)))


def ring_to_text(R: FiniteRing) -> str:
    return _record_text("ring", R.size, (("add", R.add), ("prod", R.prod)))


def stream_chunks(header: StreamHeader, sols) -> Iterator[str]:
    """The stream text piece by piece: the header, then one record per
    solution, each taken from `sols` only when its record is due."""
    lines = [
        "kind: enumeration-stream",
        f"schema: {SCHEMA_VERSION}",
        f"size: {header.size}",
        f"mode: {header.mode}",
        f"count: {header.count}",
    ]
    for key in sorted(header.meta):
        lines.append(f"{key}: {header.meta[key]}")
    yield "\n".join(lines) + "\n"
    for s in sols:
        yield "\n" + solution_to_text(s)


def stream_to_text(header: StreamHeader, sols) -> str:
    return "".join(stream_chunks(header, sols))


def _record_blocks(text: str) -> list[list[str]]:
    blocks: list[list[str]] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line.strip())
    if current:
        blocks.append(current)
    return blocks


def _parse_block(lines: list[str]):
    meta: dict[str, str] = {}
    tables: dict[str, list[tuple[int, ...]]] = {}
    section: str | None = None
    for line in lines:
        if ":" in line and not line.split(":", 1)[1].strip() and not line[0].isdigit():
            section = line.split(":", 1)[0].strip()
            tables[section] = []
            continue
        if ":" in line and not line[0].isdigit():
            key, value = (part.strip() for part in line.split(":", 1))
            meta[key] = value
            section = None
            continue
        if section is None:
            raise ParseError(f"table row outside any section: {line!r}")
        try:
            tables[section].append(tuple(int(tok) for tok in line.split()))
        except ValueError as exc:
            raise ParseError(f"bad table row {line!r}") from exc

    kind = meta.get("kind")
    if kind is None:
        raise ParseError("record is missing its kind")
    try:
        size = int(meta["size"])
    except (KeyError, ValueError) as exc:
        raise ParseError("record is missing a valid size") from exc

    def table(name: str) -> list[tuple[int, ...]]:
        rows = tables.get(name)
        if rows is None or len(rows) != size:
            raise ParseError(f"section {name!r} must have exactly {size} rows")
        return rows

    if kind == "solution":
        return verify(size, table("sigma"), table("tau"))
    if kind == "brace":
        add, mul = table("add"), table("mul")
        shared = table_identity(add)
        if shared not in (None, 0) and shared == table_identity(mul):
            # swap labels 0 and the shared identity
            swap = list(range(size))
            swap[0], swap[shared] = shared, 0
            add, mul = relabel_table(add, swap), relabel_table(mul, swap)
        return verify_brace(add, mul)
    if kind == "ring":
        return verify_ring(size, table("add"), table("prod"), require_radical=False)
    if kind == "enumeration-stream":
        if meta.get("schema") != str(SCHEMA_VERSION):
            raise ParseError(
                f"stream schema {meta.get('schema')!r} is not {SCHEMA_VERSION}"
            )
        mode = meta.get("mode")
        if mode not in ("involutive", "all"):
            raise ParseError(f"stream mode {mode!r} is not involutive or all")
        known = {"kind", "schema", "size", "mode", "count"}
        extra = {k: v for k, v in meta.items() if k not in known}
        try:
            count = int(meta["count"])
        except (KeyError, ValueError) as exc:
            raise ParseError("stream header is missing a valid count") from exc
        return StreamHeader(size=size, mode=mode, count=count, meta=extra)
    raise ParseError(f"unknown record kind {kind!r}")


def parse_text(text: str):
    """Parse a single record or a stream; returns the matching object."""
    blocks = _record_blocks(text)
    if not blocks:
        raise ParseError("empty input")
    first = _parse_block(blocks[0])
    if isinstance(first, StreamHeader):
        sols = []
        for block in blocks[1:]:
            record = _parse_block(block)
            if not isinstance(record, Solution):
                raise ParseError("stream records must be solutions")
            if record.size != first.size:
                raise ParseError(
                    f"stream of size {first.size} holds a record of size {record.size}"
                )
            if first.mode == "involutive" and not record.involutive:
                raise ParseError("involutive stream holds a non-involutive record")
            sols.append(record)
        if first.count != len(sols):
            raise ParseError(
                f"stream header announces {first.count} records, found {len(sols)}"
            )
        return SolutionStream(first, sols)
    if len(blocks) > 1:
        raise ParseError("multiple records outside a stream")
    return first


def parse_file(path) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_text(text)
