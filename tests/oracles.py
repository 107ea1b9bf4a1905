"""Reference implementations the tests compare the library against.

The brute-force class sets prune nothing beyond validity, so they are slow
and kept to small sizes.  `involutive_row_ok` is the row filter the
involutive search used before it built rows cell by cell.  The last two
helpers give the two sides of the orbit-counting identity: the number of
labeled solutions equals the sum of n!/|Aut(s)| over the classes s.
"""

from __future__ import annotations

import math
from itertools import permutations, product

from yangbaxter import braces, enumeration, groups, solutions
from yangbaxter.braces import SkewBrace
from yangbaxter.perms import all_perms, invert


def brute_force_solutions(n: int) -> list[bytes]:
    """Canonical class set by scanning every (sigma, tau) family outright.

    (n!)^(2n) candidates; keep n <= 3.
    """
    if n > 3:
        raise ValueError("the brute-force oracle is meant for n <= 3")
    perms = all_perms(n)
    found: set[bytes] = set()
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            if solutions.diagnose(n, sigma, tau) is None:
                found.add(solutions.canonical_form(solutions.Solution(n, sigma, tau)))
    return sorted(found)


def brute_force_braces(n: int) -> list[SkewBrace]:
    """Pair up every group table with identity 0, filter, canonicalize."""
    if n > 5:
        raise ValueError("the brace oracle is meant for n <= 5")
    tables = _all_group_tables(n)
    canon: set[bytes] = set()
    for add in tables:
        for mul in tables:
            if braces.diagnose_brace(add, mul) is None:
                canon.add(braces.brace_canonical_form(SkewBrace(n, add, mul)))
    return [braces.brace_from_canonical(b) for b in sorted(canon)]


def _all_group_tables(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every group table on {0..n-1} with identity 0."""
    rows_for = {
        a: [p for p in permutations(range(n)) if p[0] == a] for a in range(1, n)
    }
    table: list[tuple[int, ...]] = [tuple(range(n))]
    out: list[tuple[tuple[int, ...], ...]] = []

    def columns_ok() -> bool:
        k = len(table)
        for j in range(n):
            col = [table[i][j] for i in range(k)]
            if len(set(col)) != k:
                return False
        return True

    def dfs(a: int) -> None:
        if a == n:
            candidate = tuple(table)
            if groups.table_diagnostic(candidate) is None:
                out.append(candidate)
            return
        for p in rows_for[a]:
            table.append(p)
            if columns_ok():
                dfs(a + 1)
            table.pop()

    dfs(1)
    return out


def involutive_row_ok(rows: list[int], k: int, perms, mul, inv) -> bool:
    """Row-product identity on the pairs whose last row is row k.

    Rows are indices into `perms`, with `mul` and `inv` the composition and
    inverse tables of Sym(n) over the same indices.
    """
    for x in range(k + 1):
        rx = rows[x]
        appx = perms[rx]
        mul_rx = mul[rx]
        x_is_k = x == k
        for y in range(k + 1):
            u = appx[y]
            if u > k:
                continue
            ru = rows[u]
            t = perms[inv[ru]][x]
            if t > k:
                continue
            if not (x_is_k or y == k or u == k or t == k):
                continue
            if mul[ru][rows[t]] != mul_rx[rows[y]]:
                return False
    return True


def labeled_involutive_count(n):
    """Labeled involutive solutions of size n, by the row generator alone.

    No symmetry cuts and no canonical forms: every row the generator yields
    is followed, from an empty prefix, and every valid leaf counts.
    """
    sig, sinv = [], []

    def dfs():
        if len(sig) == n:
            return enumeration._involutive_leaf(n, sig, sinv) is not None
        total = 0
        for row in enumeration._involutive_rows(sig, sinv, n):
            sig.append(row)
            sinv.append(invert(row))
            total += dfs()
            sig.pop()
            sinv.pop()
        return total

    return dfs()


def orbit_sum(classes):
    """Sum of n!/|Aut(s)| over classes, |Aut(s)| by brute force over Sym(n)."""
    total = 0
    for s in classes:
        n = s.size
        aut = sum(
            1 for g in all_perms(n) if solutions.relabel(s, g) == s
        )
        total += math.factorial(n) // aut
    return total
