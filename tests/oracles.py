"""Reference implementations the tests compare the library against.

The brute-force class sets prune nothing beyond validity, so they are slow
and kept to small sizes.  `labeled_braces_on_group` is the brace search
before it kept one brace per Aut(G)-orbit.  `involutive_row_ok` is the row
filter the involutive search used before it built rows cell by cell, on the
index tables of Sym(n) from `sym_tables`.  `unpruned_involutive_search` and
`unpruned_all_search` are the two searches without the lex-leader prune,
the second on those index tables: they canonicalize every leaf.
`smaller_relabeling_brute` tries every relabeling the prune may use.  The
counting helpers and `orbit_sum` give the two sides of the orbit-counting
identity: the number of labeled solutions equals the sum of n!/|Aut(s)| over
the classes s.  `guess_by_linear_solves` is the series guess before it used
Berlekamp-Massey: one exact linear solve per order, then a polynomial gcd.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import permutations, product

from yangbaxter import braces, enumeration, groups, solutions
from yangbaxter.braces import SkewBrace
from yangbaxter.perms import all_perms, compose, invert
from yangbaxter.structgroup import SeriesGuess


def labeled_solutions(n: int):
    """Every (sigma, tau) family that `solutions.diagnose` accepts, found by
    scanning all (n!)^(2n) candidates; keep n <= 3."""
    if n > 3:
        raise ValueError("the brute-force oracle is meant for n <= 3")
    perms = all_perms(n)
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            if solutions.diagnose(n, sigma, tau) is None:
                yield solutions.Solution(n, sigma, tau)


def brute_force_solutions(n: int) -> list[bytes]:
    """Canonical class set of every labeled solution."""
    return sorted({solutions.canonical_form(s) for s in labeled_solutions(n)})


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


def labeled_braces_on_group(G: groups.FiniteGroup) -> list[SkewBrace]:
    """Every brace whose additive table is G.table, one per map a -> lambda_a.

    The maps into Aut(G) with lambda_a lambda_b = lambda_{a o b}, where
    a o b = a + lambda_a(b), are searched with forced values propagated by
    rescanning all pairs; each completed map is verified and kept, with no
    symmetry cut.
    """
    n = G.order
    auts = groups.automorphisms(G)
    aut_index = {p: i for i, p in enumerate(auts)}
    amul = [
        [aut_index[compose(p, q)] for q in auts] for p in auts
    ]
    ident_idx = aut_index[tuple(range(n))]
    assign: list[int | None] = [None] * n
    assign[0] = ident_idx
    out: list[SkewBrace] = []

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for a in range(n):
                fa = assign[a]
                if fa is None:
                    continue
                pa = auts[fa]
                for b in range(n):
                    fb = assign[b]
                    if fb is None:
                        continue
                    c = G.table[a][pa[b]]
                    req = amul[fa][fb]
                    fc = assign[c]
                    if fc is None:
                        assign[c] = req
                        trail.append(c)
                        changed = True
                    elif fc != req:
                        return False
        return True

    def emit() -> None:
        mul = tuple(
            tuple(G.table[a][auts[assign[a]][b]] for b in range(n))
            for a in range(n)
        )
        out.append(braces.verify_brace(G.table, mul))

    def dfs() -> None:
        try:
            a = assign.index(None)
        except ValueError:
            emit()
            return
        for choice in range(len(auts)):
            assign[a] = choice
            trail: list[int] = []
            if propagate(trail):
                dfs()
            for c in trail:
                assign[c] = None
            assign[a] = None

    trail0: list[int] = []
    if propagate(trail0):
        dfs()
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


def guess_by_linear_solves(values) -> SeriesGuess | None:
    """Minimal-order rational function reproducing every supplied value.

    Searches denominators of degree d <= len(values)/2 whose linear
    recurrence holds from index d on; the numerator absorbs the initial
    segment.  Exact rational arithmetic throughout; the result re-expands to
    the inputs or is discarded.  None when nothing of admissible order fits.
    """
    vals = [Fraction(int(v)) for v in values]
    if len(vals) < 6:
        raise ValueError("need at least 6 values to guess a series")
    length = len(vals)
    # keep at least one validation row beyond the unknowns, otherwise order
    # length/2 degenerates into interpolation and never fails
    for d in range(1, (length - 1) // 2 + 1):
        rows = [[vals[k - i] for i in range(1, d + 1)] for k in range(d, length)]
        rhs = [-vals[k] for k in range(d, length)]
        tail = _solve_exact(rows, rhs)
        if tail is None:
            continue
        q = [Fraction(1)] + tail
        p = [
            sum(q[i] * vals[k - i] for i in range(0, k + 1) if i <= d)
            for k in range(d)
        ]
        guess = _normalize_fraction_polys(p, q)
        if guess is None:
            continue
        try:
            if guess.expand(length) == [int(v) for v in vals]:
                return guess
        except ValueError:
            continue
    return None


def _solve_exact(rows, rhs):
    """One exact solution of an overdetermined linear system, or None."""
    if not rows:
        return None
    m, ncols = len(rows), len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [v / pv for v in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][ncols] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        solution[col] = aug[r][ncols]
    # free variables are zero; verify the full system
    for r, b in zip(rows, rhs):
        if sum(c * x for c, x in zip(r, solution)) != b:
            return None
    return solution


def _normalize_fraction_polys(p, q) -> SeriesGuess | None:
    p = _trim(p)
    q = _trim(q)
    if not q or q[0] == 0:
        return None
    if not p:
        p = [Fraction(0)]
    g = _poly_gcd(p, q)
    if len(g) > 1:
        p = _poly_div(p, g)
        q = _poly_div(q, g)
    if q[0] == 0:
        return None
    denom_lcm = 1
    for c in p + q:
        denom_lcm = denom_lcm * c.denominator // _gcd(denom_lcm, c.denominator)
    p_int = [int(c * denom_lcm) for c in p]
    q_int = [int(c * denom_lcm) for c in q]
    content = 0
    for c in p_int + q_int:
        content = _gcd(content, abs(c))
    if content > 1:
        p_int = [c // content for c in p_int]
        q_int = [c // content for c in q_int]
    if q_int[0] < 0:
        p_int = [-c for c in p_int]
        q_int = [-c for c in q_int]
    return SeriesGuess(tuple(p_int), tuple(q_int))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_gcd(a, b):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(_poly_mod(a, b))
    if not a:
        return [Fraction(1)]
    return [c / a[-1] for c in a]


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b) and _trim(a):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = _trim(a)
        if not a:
            break
    return a


def _poly_div(a, b):
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b) and _trim(rem):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        out[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        rem = _trim(rem)
    return _trim(out) or [Fraction(0)]
