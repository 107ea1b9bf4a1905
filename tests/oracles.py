"""Reference implementations the tests compare the library against.

The brute-force class sets prune nothing beyond validity, so they are slow
and kept to small sizes.  `involutive_row_ok` is the row filter the
involutive search used before it built rows cell by cell, on the index
tables of Sym(n) from `sym_tables`.  `unpruned_involutive_search` and
`unpruned_all_search` are the two searches without the lex-leader prune,
the second on those index tables: they canonicalize every leaf.
`smaller_relabeling_brute` tries every relabeling the prune may use.  The
last two helpers give the two sides of the orbit-counting identity: the
number of labeled solutions equals the sum of n!/|Aut(s)| over the classes s.
"""

from __future__ import annotations

import functools
import math
from itertools import permutations, product

from yangbaxter import braces, enumeration, groups, solutions
from yangbaxter.braces import SkewBrace
from yangbaxter.perms import all_perms, compose, invert


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


@functools.cache
def sym_tables(n: int):
    """(perm list, index map, composition table, inverse table) for Sym(n),
    the permutations as their indices in `all_perms(n)`."""
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    inv = [index[invert(p)] for p in perms]
    mul = [[index[compose(p, q)] for q in perms] for p in perms]
    return perms, index, mul, inv


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


def row_generator_nodes(n: int, sig: list, sinv: list, depth: int):
    """The node sig and the nodes up to `depth` levels below it, as
    (rows, inverse rows); no cuts, and the lists are reused as the walk goes on."""
    yield sig, sinv
    if depth > 0 and len(sig) < n:
        for row in enumeration._involutive_rows(sig, sinv, n):
            sig.append(row)
            sinv.append(invert(row))
            yield from row_generator_nodes(n, sig, sinv, depth - 1)
            sig.pop()
            sinv.pop()


def _valid_leaves(n: int, sig: list, sinv: list):
    """Every valid leaf the row generator reaches below sig."""
    for rows, inverses in row_generator_nodes(n, sig, sinv, n):
        if len(rows) == n:
            leaf = enumeration._involutive_leaf(n, rows, inverses)
            if leaf is not None:
                yield leaf


def unpruned_involutive_search(n: int, prefix) -> set[bytes]:
    """Canonical forms of every valid leaf below a subtree prefix.

    The involutive search without the lex-leader prune: each leaf the row
    generator reaches is checked and canonicalized over all of Sym(n).
    """
    perms = all_perms(n)
    sig = [perms[r] for r in prefix]
    sinv = [invert(p) for p in sig]
    if not all(enumeration._row_products_hold(sig, sinv, k, n) for k in range(len(sig))):
        return set()
    return {solutions.canonical_form(leaf) for leaf in _valid_leaves(n, sig, sinv)}


def unpruned_all_search(n: int, prefix) -> set[bytes]:
    """Canonical forms of every valid leaf the all-mode search reaches below a
    subtree prefix, without the lex-leader prune, on index tables.

    A sigma node is kept while the rows sigma_u^-1 sigma_x sigma_y that the
    row-product identity requires (x, y, u = sigma_x(y) among the placed
    rows) fit into the rows still free; tau rows range over the cell
    domains those rows give and are kept while the braid components and the
    pair map's injectivity hold on the resolved cells.
    """
    perms, index, mul, inv = sym_tables(n)
    found: set[bytes] = set()
    srows = list(prefix)

    def sigma_ok(k: int) -> bool:
        required = set()
        for x in range(k + 1):
            for y in range(k + 1):
                u = perms[srows[x]][y]
                if u <= k:
                    required.add(mul[mul[inv[srows[u]]][srows[x]]][srows[y]])
        return len(required - set(srows[: k + 1])) <= n - 1 - k

    def tau_ok(trows, sig, k: int) -> bool:
        for y in range(k + 1):
            for z in range(k + 1):
                a, b = perms[trows[z]][y], sig[y][z]
                if max(a, b) <= k and k in (y, z, a, b):
                    if mul[trows[a]][trows[b]] != mul[trows[z]][trows[y]]:
                        return False
        for y in range(k + 1):
            for x in range(n):
                for z in range(k + 1):
                    w, v = sig[perms[trows[y]][x]][z], sig[y][z]
                    if max(w, v) <= k and k in (y, z, w, v):
                        left = perms[trows[w]][sig[x][y]]
                        right = sig[perms[trows[v]][x]][perms[trows[z]][y]]
                        if left != right:
                            return False
        codes = [sig[x][y] * n + perms[trows[y]][x] for y in range(k + 1) for x in range(n)]
        return len(set(codes)) == len(codes)

    def tau_phase() -> None:
        sig = [perms[r] for r in srows]
        domains = []
        for y in range(n):
            drow = []
            for x in range(n):
                u = sig[x][y]
                required = mul[mul[inv[srows[u]]][srows[x]]][srows[y]]
                drow.append([t for t in range(n) if srows[t] == required])
            domains.append(drow)
        trows: list[int] = []

        def dfs_tau(k: int) -> None:
            if k == n:
                tau = tuple(perms[r] for r in trows)
                if solutions.diagnose(n, tuple(sig), tau) is None:
                    found.add(solutions.canonical_form(solutions.Solution(n, tuple(sig), tau)))
                return
            for cand in enumeration._tau_row_candidates(domains[k], n):
                trows.append(index[cand])
                if tau_ok(trows, sig, k):
                    dfs_tau(k + 1)
                trows.pop()

        dfs_tau(0)

    def dfs_sigma(k: int) -> None:
        if k == n:
            tau_phase()
            return
        for cand in range(len(perms)):
            srows.append(cand)
            if sigma_ok(k):
                dfs_sigma(k + 1)
            srows.pop()

    if all(sigma_ok(k) for k in range(len(srows))):
        dfs_sigma(len(srows))
    return found


def smaller_relabeling_brute(rows) -> bool:
    """Whether some g with g({0..k-1}) = {0..k-1}, k = len(rows), makes the
    relabelled rows strictly smaller; all k!(n-k)! such g are tried."""
    k = len(rows)
    if k == 0:
        return False
    n = len(rows[0])
    target = [list(r) for r in rows]
    for low in permutations(range(k)):
        for high in permutations(range(k, n)):
            g = low + high
            h = invert(g)
            if [[g[rows[h[i]][h[j]]] for j in range(n)] for i in range(k)] < target:
                return True
    return False


def labeled_involutive_count(n):
    """Labeled involutive solutions of size n, by the row generator alone.

    No symmetry cuts and no canonical forms: every row the generator yields
    is followed, from an empty prefix, and every valid leaf counts.
    """
    return sum(1 for _ in _valid_leaves(n, [], []))


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
