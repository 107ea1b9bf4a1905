"""Permutations of {0, ..., n-1} stored as image tuples: p[i] is the image of i.

Solutions (sigma, tau) and braces (add, mul) are both pairs of n x n tables
on the points, classified up to relabelling; the table helpers at the end
relabel such tables, search the isomorphisms between them, serialize them
canonically and decode them again.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator

Perm = tuple[int, ...]
Table = tuple[tuple[int, ...], ...]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q acting as "q first, then p": (p*q)(i) = p[q[i]]."""
    return tuple(p[j] for j in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition; fixed points omitted, each cycle led by its least point."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = True
        cyc = [start]
        j = p[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths, fixed points included as 1s."""
    lengths = sorted(len(c) for c in cycles(p))
    fixed = len(p) - sum(lengths)
    return tuple([1] * fixed + lengths)


def is_full_cycle(p: Perm) -> bool:
    n = len(p)
    if n <= 1:
        return True
    cs = cycles(p)
    return len(cs) == 1 and len(cs[0]) == n


def from_cycles(text: str, n: int, one_based: bool = True) -> Perm:
    """Parse cycle notation into a permutation of n points.

    Accepts "(1 2)(3 4)", "(1,2)", and the compact digit form "(12)(34)"
    where every point is a single digit.  "id" or "()" is the identity.
    Points are 1-based by default, matching the usual written convention.
    """
    text = text.strip()
    images = list(range(n))
    if text in ("", "id", "()"):
        return tuple(images)
    chunks = _CYCLE_RE.findall(text)
    if not chunks or _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        if any(sep in chunk for sep in (" ", ",")):
            points = [int(tok) for tok in chunk.replace(",", " ").split()]
        elif chunk.isdigit():
            points = [int(ch) for ch in chunk]
        else:
            raise ValueError(f"malformed cycle: ({chunk})")
        if one_based:
            points = [x - 1 for x in points]
        if any(not 0 <= x < n for x in points):
            raise ValueError(f"cycle point out of range 0..{n - 1}: ({chunk})")
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle: ({chunk})")
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    if not is_perm(images):
        raise ValueError(f"cycles do not define a permutation: {text!r}")
    return tuple(images)


def to_cycles(p: Perm, one_based: bool = True) -> str:
    cs = cycles(p)
    if not cs:
        return "id"
    off = 1 if one_based else 0
    return "".join("(" + " ".join(str(x + off) for x in c) + ")" for c in cs)


def all_perms(n: int) -> list[Perm]:
    """All permutations of n points in lexicographic order (identity first)."""
    return list(itertools.permutations(range(n)))


# ---------------------------------------------------------------------------
# Square tables on the points: relabelling, isomorphisms and canonical
# serialization


def relabel_table(table, f: Perm) -> Table:
    """Transport a table along f: entry (f[i], f[j]) becomes f[table[i][j]]."""
    finv = invert(f)
    return tuple(tuple(f[table[i][j]] for j in finv) for i in finv)


def table_isomorphisms(src, dst, src_keys, dst_keys) -> Iterator[Perm]:
    """Every bijection f with f[a[x][y]] = b[f[x]][f[y]] for each pair of
    tables (a, b) in zip(src, dst), in lexicographic order.

    Point x may map only to a point y with src_keys[x] == dst_keys[y].
    Points are assigned in order, and each new one is checked against the
    points already assigned.  A pair whose product gets its image later is
    never checked on the way, so a complete map is checked whole.
    """
    n = len(src_keys)
    if sorted(src_keys) != sorted(dst_keys):
        return
    pairs = list(zip(src, dst))
    f = [-1] * n
    used = [False] * n

    def consistent(x: int) -> bool:
        fx = f[x]
        for y in range(x + 1):
            fy = f[y]
            for a, b in pairs:
                z = f[a[x][y]]
                if z >= 0 and z != b[fx][fy]:
                    return False
                z = f[a[y][x]]
                if z >= 0 and z != b[fy][fx]:
                    return False
        return True

    def extend(x: int) -> Iterator[Perm]:
        if x == n:
            if all(
                f[a[u][v]] == b[f[u]][f[v]]
                for a, b in pairs
                for u in range(n)
                for v in range(n)
            ):
                yield tuple(f)
            return
        for img in range(n):
            if used[img] or dst_keys[img] != src_keys[x]:
                continue
            f[x] = img
            used[img] = True
            if consistent(x):
                yield from extend(x + 1)
            f[x] = -1
            used[img] = False

    yield from extend(0)


def lex_min_relabeling(tables, relabelings) -> tuple[bytes, list[Perm]]:
    """Least row-by-row serialization of the relabelled tables over `relabelings`,
    with every relabeling that reaches it (in the order given).

    Rows are compared incrementally, so most relabelings are abandoned after
    a row or two.
    """
    if len(tables[0]) > 255:
        raise ValueError("canonical serialization supports sizes up to 255")
    best: list[int] | None = None
    ties: list[Perm] = []

    def serialize(f: Perm) -> list[int] | None:
        finv = invert(f)
        flat: list[int] = []
        for table in tables:
            for i in finv:
                row = table[i]
                flat.extend([f[row[j]] for j in finv])
                # once flat is lexicographically ahead it stays ahead, so
                # comparing against the prefix of best is enough to abandon
                if best is not None and flat > best[: len(flat)]:
                    return None
        return flat

    for f in relabelings:
        flat = serialize(f)
        if flat is None:
            continue
        # a serialization that survives the prune is at most best
        if flat == best:
            ties.append(f)
        else:
            best, ties = flat, [f]
    assert best is not None
    return bytes(best), ties


def has_smaller_relabeling(rows) -> bool:
    """Whether some relabeling g with g({0..k-1}) = {0..k-1}, k = len(rows),
    makes the rows strictly smaller.

    `rows` are the first k rows of an n x n table on the points.  Relabelled,
    row i has entry j = g[rows[g^-1(i)][g^-1(j)]], and rows compare in the
    order `lex_min_relabeling` serializes them.  Branch and bound over partial
    relabelings: row 0 is compared entry by entry, the point of label j is
    chosen when column j needs it, and an entry whose point has no label yet
    is bounded below by the next free label on its side of k; a tie with that
    bound forces the label.  Labels are thus handed out in ascending order on
    each side, and row 0 assigns them all, so rows 1..k-1 compare outright.
    """
    k = len(rows)
    if k == 0:
        return False
    n = len(rows[0])
    first = rows[0]
    targets = [list(r) for r in rows]
    g = [-1] * n  # point -> label
    h = [-1] * n  # label -> point
    free = [0, k]  # next free label below k, and from k on

    def column(j: int) -> bool:
        if j == n:
            for i in range(1, k):
                r = rows[h[i]]
                row = [g[r[x]] for x in h]
                if row != targets[i]:
                    return row < targets[i]
            return False
        if h[j] < 0:
            side = j >= k
            free[side] = j + 1
            for q in range(k, n) if side else range(k):
                if g[q] < 0:
                    g[q] = j
                    h[j] = q
                    if column(j):
                        return True
                    g[q] = -1
            h[j] = -1
            free[side] = j
            return False
        p = rows[h[0]][h[j]]
        v = g[p]
        t = first[j]
        if v < 0:
            side = p >= k
            v = free[side]
            if v == t:
                g[p] = v
                h[v] = p
                free[side] = v + 1
                if column(j + 1):
                    return True
                g[p] = h[v] = -1
                free[side] = v
                return False
        return v < t if v != t else column(j + 1)

    return column(0)


def tables_from_bytes(blob: bytes, count: int) -> tuple[Table, ...]:
    """Split a serialization back into `count` square tables."""
    n = round((len(blob) / count) ** 0.5)
    if count * n * n != len(blob):
        raise ValueError(f"byte string does not split into {count} square tables")
    rows = [tuple(blob[i * n : (i + 1) * n]) for i in range(count * n)]
    return tuple(tuple(rows[t * n : (t + 1) * n]) for t in range(count))
