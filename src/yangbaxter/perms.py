"""Permutations of {0, ..., n-1} stored as image tuples: p[i] is the image of i.

Solutions (sigma, tau) and braces (add, mul) are both pairs of n x n tables
on the points, classified up to relabelling.  The table helpers at the end
relabel such tables, search the isomorphisms between them, and find their
least serialization by one branch and bound, `least_relabeling`: it gives
the canonical forms of solutions and braces.  `has_smaller_relabeling`,
the lex-leader cut of every orderly search on the first k rows of one
table, runs that search to its first smaller entry, or tries a listed
group of relabelings one by one.
`tables_from_bytes` decodes the bytes.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator
from operator import itemgetter

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


def composer(q: Perm):
    """p -> compose(p, q) at C level (itemgetter returns a bare entry for one index)."""
    return itemgetter(*q) if len(q) > 1 else lambda p: compose(p, q)


def cayley_table(elements) -> Table:
    """Entry (i, j) is the index of compose(elements[i], elements[j]) in a list
    closed under composition; each column comes from one `composer`."""
    index = {p: i for i, p in enumerate(elements)}.__getitem__
    return tuple(zip(*(map(index, map(composer(q), elements)) for q in elements)))


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
    Points are assigned in order, and each pair (u, v) is checked as soon as
    u, v and w = a[u][v] all have images: at its larger operand if w is
    placed by then, else at w.  The pairs to check at each point come from
    an index built once per call, so a complete map needs no further check.
    """
    n = len(src_keys)
    if sorted(src_keys) != sorted(dst_keys):
        return
    checks: list[list] = [[] for _ in range(n)]
    for a, b in zip(src, dst):
        for u in range(n):
            for v in range(n):
                checks[max(u, v, a[u][v])].append((a, b, u, v))
    f = [-1] * n
    used = [False] * n

    def extend(x: int) -> Iterator[Perm]:
        if x == n:
            yield tuple(f)
            return
        for img in range(n):
            if used[img] or dst_keys[img] != src_keys[x]:
                continue
            f[x] = img
            used[img] = True
            if all(f[a[u][v]] == b[f[u]][f[v]] for a, b, u, v in checks[x]):
                yield from extend(x + 1)
            f[x] = -1
            used[img] = False

    yield from extend(0)


def least_relabeling(tables, k: int = 0) -> tuple[bytes, Perm]:
    """Least row-by-row serialization of the relabelled n x n tables over the
    relabelings g with g({0..k-1}) = {0..k-1}, and one g that reaches it.

    k = 0 ranges over all of Sym(n), k = 1 over the relabelings fixing 0.
    Relabelled, row i of a table T has entry j = g[T[g^-1(i)][g^-1(j)]], and
    the tables are serialized one after the other.  Each entry is one byte,
    so sizes above 255 raise ValueError.
    """
    n = len(tables[0])
    if n > 255:
        raise ValueError("canonical serialization supports sizes up to 255")
    best = [list(row) for table in tables for row in table]
    g = _least(tables, n, k, best, False)
    return bytes(itertools.chain.from_iterable(best)), g or identity(n)


def has_smaller_relabeling(rows, group=None) -> bool:
    """Whether some relabeling g with g({0..k-1}) = {0..k-1} makes `rows`,
    the first k rows of an n x n table on the points, strictly smaller.
    Relabelled, row i has entry j = g[rows[h(i)][h(j)]] for h = g^-1, from
    the same k rows.  This is the lex-leader cut of the orderly searches:
    - `group` None tries every such g, by `least_relabeling`'s search
      stopped at the first entry that comes out below the rows' own;
    - else it lists the g to try, as (g, g^-1) pairs, and each is compared
      row by row up to the first row that differs.
    """
    if not rows:
        return False
    if group is None:
        best = [list(row) for row in rows]
        return _least((rows,), len(rows[0]), len(rows), best, True) is not None
    for g, h in group:
        for row, x in zip(rows, h):
            source = rows[x]
            image = tuple([g[source[y]] for y in h])
            if image != row:
                if image < row:
                    return True
                break
    return False


def _least(tables, n: int, k: int, best: list[list[int]], first: bool) -> Perm | None:
    """Lower `best`, the identity's serialization as a list of rows, to the
    least over the relabelings g of n points with g({0..k-1}) = {0..k-1},
    and return a g that reaches it, or None if the identity does.  With
    `first`, stop at the first partial g below the identity instead and
    return it, -1 marking the labels not placed; only then may `tables` be
    the first k rows of one table, as no table is relabelled whole.

    Branch and bound over partial relabelings, reading the serialization
    entry by entry against the best so far:
    - the label of a row, or of a column, is branched when first needed, so
      labels are placed in ascending order on each side of k;
    - an entry whose point has no label yet takes the least free label on
      its side, which is exact, as any other label makes the entry larger;
    - an identity row (a tuple) reads 0..n-1 under every g, so it places no
      column labels; without this deferral a group table with 0 fixed would
      branch over all (n-1)! labelings of its row 0;
    - once every label is placed, the remaining rows are compared whole.
    """
    last = len(best)
    g = [-1] * n  # point -> label
    h = [-1] * n  # label -> point
    free = [0, k]  # least free label below k, and from k on
    found = None

    def walk(r: int, j: int, row, tight: bool) -> bool:
        """Serialize from entry j of row r on, `row` being the table row of
        r's label; j = n starts the next row.  True stops the search."""
        nonlocal found
        if j == n:
            r += 1
            while r < last:
                t, i = divmod(r, n)
                if h[i] < 0:
                    label = i
                    r -= 1
                    break
                row = tables[t][h[i]]
                if -1 not in h:
                    out = [g[row[x]] for x in h]
                elif row[0] == 0 and row == tuple(range(n)):
                    out = list(row)
                else:
                    j = 0
                    break
                if tight and out != best[r]:
                    if out > best[r] or first:
                        return out < best[r]
                    tight = False
                r += 1
            else:
                if not tight:
                    # square tables have a row for every label, so g is complete
                    found = tuple(g)
                    best[:] = [list(row) for t in tables for row in relabel_table(t, found)]
                return False
        if j < n:
            q = h[j]
            if q >= 0:
                p = row[q]
                v = g[p]
                if v < 0:
                    v = free[p >= k]
                b = best[r][j]
                if v != b and tight:
                    if v > b or first:
                        return v < b
                    tight = False
                if g[p] >= 0:
                    return walk(r, j + 1, row, tight)
                g[p] = v
                h[v] = p
                free[p >= k] = v + 1
                if walk(r, j + 1, row, tight):
                    return True
                g[p] = h[v] = -1
                free[p >= k] = v
                return False
            label = j
        # branch on the label needed next, trying points from the highest
        # down, so that the identity's choice, where the best starts, is last
        side = label >= k
        free[side] = label + 1
        for q in range(n - 1, k - 1, -1) if side else range(k - 1, -1, -1):
            if g[q] < 0:
                g[q] = label
                h[label] = q
                if walk(r, j, row, tight):
                    return True
                g[q] = -1
                # the first child set the best, so the prefix ties with it now
                tight = True
        h[label] = -1
        free[side] = label
        return False

    return tuple(g) if walk(-1, n, None, True) else found


def tables_from_bytes(blob: bytes, count: int) -> tuple[Table, ...]:
    """Split a serialization back into `count` square tables."""
    n = round((len(blob) / count) ** 0.5)
    if count * n * n != len(blob):
        raise ValueError(f"byte string does not split into {count} square tables")
    rows = [tuple(blob[i * n : (i + 1) * n]) for i in range(count * n)]
    return tuple(tuple(rows[t * n : (t + 1) * n]) for t in range(count))
