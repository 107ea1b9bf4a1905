"""Reference implementations the tests compare the library against.

The brute-force class sets prune nothing beyond validity, so they are slow
and kept to small sizes.  `labeled_braces_on_group` is the brace search
before it kept one brace per Aut(G)-orbit.  `involutive_rows` is the row
generator the involutive search used before it propagated the cycle-set
identity cell by cell: it builds each sigma row cell by cell and checks the
row-product identity (`row_products_hold`) on the rows placed so far.
`involutive_row_ok` is the whole-row filter it replaced, on the index tables
of Sym(n) from `sym_tables`.  `unpruned_involutive_search` (on the row
generator) and `unpruned_all_search` (on those index tables; sigma rows
under a pigeonhole bound, then tau rows over forced cell domains, without
the derived rack) are the two searches without the lex-leader prune: they
canonicalize every leaf.  `labeled_racks` lists every rack table, and
`derived_rack` reads a solution's rack off its tables.
`rack_labeled_solutions` lists the labeled solutions with a given derived
rack from the rack alone: sigma rows in the rack's automorphism group and
the tau that the rack forces, each candidate checked by `diagnose`.
`bipartition_decomposable` is the decomposability test before it read
transitivity: it tries every split of the points into two blocks.
`smaller_relabeling_brute` tries every relabeling the prune may use, and
`lex_leader_pairs` lists by it the first two sigma rows that the prune
keeps.  The counting helpers and `orbit_sum` give the two sides of the
orbit-counting identity: the number of labeled solutions equals the sum of
n!/|Aut(s)| over the classes s.  `guess_by_linear_solves` is the series
guess before it used Berlekamp-Massey: one exact linear solve per order,
then a polynomial gcd.  `is_solvable`, `is_powerful` and
`star_forms_radical_ring` are structural predicates that only the tests
ask for: solvability by the derived series, powerfulness of a p-group, and
whether the star product of a brace makes a radical ring.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import permutations, product

from yangbaxter import braces, groups, solutions
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


def row_products_hold(sig, sinv, k: int, n: int) -> bool:
    """Row-product identity on the pairs that involve row k, where defined.

    For x, y <= k with u = sigma_x(y) <= k and t = sigma_u^-1(x) <= k, and
    one of x, y, u, t equal to k, checks sigma_x(sigma_y(z)) =
    sigma_u(sigma_t(z)) pointwise.  Rows below k are complete; row k may be
    partial, with -1 in its unfilled cells (and in the unused values of its
    inverse), and every lookup that meets such a cell is skipped.  Pairs
    within rows below k were checked when their last row was placed, so on
    a complete row k this is the whole identity on rows 0..k.
    """
    for x in range(k + 1):
        sx = sig[x]
        for y in range(k + 1):
            u = sx[y]
            if u < 0 or u > k:
                continue
            t = sinv[u][x]
            if t < 0 or t > k:
                continue
            if x != k and y != k and u != k and t != k:
                continue
            sy = sig[y]
            su = sig[u]
            st = sig[t]
            for z in range(n):
                a = sy[z]
                b = st[z]
                if a < 0 or b < 0:
                    continue
                left = sx[a]
                right = su[b]
                if left >= 0 and right >= 0 and left != right:
                    return False
    return True


def involutive_rows(sig, sinv, n: int) -> list[tuple[int, ...]]:
    """Every row sigma_k, k = len(sig), that keeps the row-product identity.

    Builds the row one cell at a time, z = 0..n-1, over the values not yet
    in it in ascending order, and drops a partial row as soon as
    `row_products_hold` fails on it; the rows come out in lexicographic
    order, the order of `all_perms(n)`.
    """
    k = len(sig)
    for x in range(k):
        for y in range(k):
            u = sig[x][y]
            if u < k and sinv[u][x] == k:
                # sigma_x sigma_y = sigma_u sigma_k fixes the whole row
                forced = tuple(sinv[u][sig[x][sig[y][z]]] for z in range(n))
                ok = row_products_hold([*sig, forced], [*sinv, invert(forced)], k, n)
                return [forced] if ok else []
    row = [-1] * n
    row_inv = [-1] * n
    rows = [*sig, row]
    invs = [*sinv, row_inv]
    out: list[tuple[int, ...]] = []

    def cells(z: int) -> None:
        if z == n:
            out.append(tuple(row))
            return
        for v in range(n):
            if row_inv[v] < 0:
                row[z] = v
                row_inv[v] = z
                if row_products_hold(rows, invs, k, n):
                    cells(z + 1)
                row_inv[v] = -1
        row[z] = -1

    cells(0)
    return out


def involutive_leaf(n: int, sig, sinv) -> solutions.Solution | None:
    """The involutive candidate on these sigma rows, if it is a solution.

    The rows keep the row-product identity on every pair, so they form a
    finite cycle set, which is non-degenerate (Rump, Adv. Math. 193 (2005)):
    its tau rows are bijections.  `diagnose` still checks the whole candidate.
    """
    sigma = tuple(sig)
    tau = tuple(tuple(sinv[sigma[x][y]][x] for x in range(n)) for y in range(n))
    if solutions.diagnose(n, sigma, tau) is not None:
        return None
    return solutions.Solution(n, sigma, tau)


def row_generator_nodes(n: int, sig: list, sinv: list, depth: int):
    """The node sig and the nodes up to `depth` levels below it, as
    (rows, inverse rows); no cuts, and the lists are reused as the walk goes on."""
    yield sig, sinv
    if depth > 0 and len(sig) < n:
        for row in involutive_rows(sig, sinv, n):
            sig.append(row)
            sinv.append(invert(row))
            yield from row_generator_nodes(n, sig, sinv, depth - 1)
            sig.pop()
            sinv.pop()


def _valid_leaves(n: int, sig: list, sinv: list):
    """Every valid leaf the row generator reaches below sig."""
    for rows, inverses in row_generator_nodes(n, sig, sinv, n):
        if len(rows) == n:
            leaf = involutive_leaf(n, rows, inverses)
            if leaf is not None:
                yield leaf


def unpruned_involutive_search(n: int, prefix) -> set[bytes]:
    """Canonical forms of every valid leaf below a prefix of sigma rows.

    The involutive search without the lex-leader prune: each leaf the row
    generator reaches is checked and canonicalized over all of Sym(n).
    """
    sig = list(prefix)
    sinv = [invert(p) for p in sig]
    if not all(row_products_hold(sig, sinv, k, n) for k in range(len(sig))):
        return set()
    return {solutions.canonical_form(leaf) for leaf in _valid_leaves(n, sig, sinv)}


def unpruned_all_search(n: int, prefix) -> set[bytes]:
    """Canonical forms of every valid leaf below a prefix of sigma rows, by
    sigma rows and then tau rows, without the derived rack and without the
    lex-leader prune, on index tables.

    A sigma node is kept while the rows sigma_u^-1 sigma_x sigma_y that the
    row-product identity requires (x, y, u = sigma_x(y) among the placed
    rows) fit into the rows still free; tau rows range over the cell
    domains those rows give and are kept while the braid components and the
    pair map's injectivity hold on the resolved cells.  The tau rows are
    listed from Sym(n) here, not with the search's own row builder.
    """
    perms, index, mul, inv = sym_tables(n)
    found: set[bytes] = set()
    srows = [index[row] for row in prefix]

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
            for cand in permutations(range(n)):
                if not all(cand[x] in domains[k][x] for x in range(n)):
                    continue
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


def labeled_racks(n: int):
    """Every table C with C[y] a permutation of the points and
    C[z][C[y][x]] = C[C[z][y]][C[z][x]], that is (x <| y) <| z =
    (x <| z) <| (y <| z) with C[y][x] = x <| y, found by scanning all (n!)^n
    tables; keep n <= 3."""
    if n > 3:
        raise ValueError("the brute-force rack oracle is meant for n <= 3")
    for C in product(all_perms(n), repeat=n):
        if all(
            C[z][C[y][x]] == C[C[z][y]][C[z][x]]
            for x, y, z in product(range(n), repeat=3)
        ):
            yield C


def derived_rack(s: solutions.Solution):
    """The table C[u][x] = x <| u = sigma_u tau_y(x) with y = sigma_x^-1(u)."""
    n = s.size
    return tuple(
        tuple(s.sigma[u][s.tau[invert(s.sigma[x])[u]][x]] for x in range(n))
        for u in range(n)
    )


def rack_labeled_solutions(rack):
    """Every labeled solution whose derived rack is `rack`, a table
    C[u][x] = x <| u as `derived_rack` reads it.  The candidates are every
    sigma whose rows are automorphisms of the rack, found by a scan of
    Sym(n), each with the one tau whose derived rack is C:
    tau_y(x) = sigma_u^-1(x <| u) with u = sigma_x(y).  A candidate is kept
    when `solutions.diagnose` accepts it and its derived rack is C."""
    n = len(rack)
    aut = [
        g for g in all_perms(n)
        if all(g[rack[u][x]] == rack[g[u]][g[x]] for u, x in product(range(n), repeat=2))
    ]
    for sigma in product(aut, repeat=n):
        inv = [invert(row) for row in sigma]
        tau = tuple(
            tuple(inv[sigma[x][y]][rack[sigma[x][y]][x]] for x in range(n))
            for y in range(n)
        )
        if solutions.diagnose(n, sigma, tau) is None:
            s = solutions.Solution(n, sigma, tau)
            if derived_rack(s) == rack:
                yield s


def bipartition_decomposable(s: solutions.Solution) -> bool:
    """Whether some split of the points into two nonempty blocks, both
    closed under r, exists; all 2^(n-1) - 1 splits are tried."""
    n = s.size
    for mask in range(1, 1 << (n - 1)):
        # point 0 always sits in the first block
        Z = {x for x in range(1, n) if mask >> (x - 1) & 1}
        blocks = (set(range(n)) - Z, Z)
        if all(set(s.r(x, y)) <= block for block in blocks for x in block for y in block):
            return True
    return False


def smaller_relabeling_brute(tables) -> bool:
    """Whether some g with g({0..k-1}) = {0..k-1} makes the relabelled
    tables strictly smaller, row by row; every table is complete but the
    last, which holds its first k rows.  All k!(n-k)! such g are tried."""
    if not tables[0]:
        return False
    n = len(tables[0][0])
    k = len(tables[-1])
    target = [list(r) for t in tables for r in t]
    for low in permutations(range(k)):
        for high in permutations(range(k, n)):
            g = low + high
            h = invert(g)
            moved = [
                [g[t[h[i]][h[j]]] for j in range(n)] for t in tables for i in range(len(t))
            ]
            if moved < target:
                return True
    return False


@functools.cache
def lex_leader_pairs(n: int) -> list[tuple]:
    """The first sigma rows (p0,) or (p0, p1) that no relabeling fixing 0
    makes smaller in row 0, and none mapping {0, 1} onto itself in rows 0
    and 1, by `smaller_relabeling_brute`: every prefix of length min(n, 2)
    that the lex-leader cut lets through, whatever else the search forces."""
    perms = all_perms(n)
    firsts = [(p0,) for p0 in perms if not smaller_relabeling_brute(([p0],))]
    if n == 1:
        return firsts
    return [
        (p0, p1) for (p0,) in firsts for p1 in perms
        if not smaller_relabeling_brute(([p0, p1],))
    ]


def labeled_involutive_solutions(n):
    """Labeled involutive solutions of size n, by the row generator alone.

    No symmetry cuts and no canonical forms: every row the generator yields
    is followed, from an empty prefix, and every valid leaf is one.
    """
    return _valid_leaves(n, [], [])


def labeled_involutive_count(n):
    return sum(1 for _ in labeled_involutive_solutions(n))


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


def derived_members(G: groups.FiniteGroup, members) -> frozenset[int]:
    t, inv = G.table, G.inv
    commutators = {
        t[t[inv[a]][inv[b]]][t[a][b]] for a in members for b in members
    }
    return groups.closure(G, commutators)


def is_solvable(G: groups.FiniteGroup) -> bool:
    current: frozenset[int] = frozenset(G.elements())
    while True:
        nxt = derived_members(G, current)
        if nxt == current:
            return current == {0}
        current = nxt


def is_powerful(G: groups.FiniteGroup, p: int) -> bool:
    """Powerfulness of a finite p-group: G/G^p abelian (G/G^4 when p = 2)."""
    if not _is_prime_power_of(G.order, p):
        raise ValueError(f"group order {G.order} is not a power of {p}")
    k = 4 if p == 2 else p
    powers = {_power(G, g, k) for g in G.elements()}
    sub = groups.closure(G, powers)
    return groups.quotient(G, sub).is_abelian


def _power(G: groups.FiniteGroup, a: int, k: int) -> int:
    """a^k in G, for k >= 0."""
    x = 0
    for _ in range(k):
        x = G.table[x][a]
    return x


def _is_prime_power_of(n: int, p: int) -> bool:
    if p < 2 or n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def star_forms_radical_ring(A: SkewBrace) -> bool:
    """Check that (A, +, *) is a radical ring (abelian-type, star-associative input)."""
    if not A.is_abelian_type:
        raise ValueError("requires a brace of abelian type")
    if not braces.is_star_associative(A):
        raise ValueError("requires a star-associative brace")
    try:
        braces.verify_ring(A.size, A.add, braces.star_table(A), require_radical=True)
    except braces.InvalidRingError:
        return False
    return True
