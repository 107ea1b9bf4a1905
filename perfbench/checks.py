"""Independent output checks, and the input helpers, in plain Python.

Nothing here calls into `yangbaxter`: the axioms, the stream format, the
lattice counts and the series expansion are re-implemented from their
definitions, so a fault in the library cannot hide itself by also being in
the check.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# Input solutions, in 1-based cycle notation (rows listed per point)

# the size-4 irretractable solution
SOL4 = (
    ["(12)", "(1324)", "(34)", "(1423)"],
    ["(14)", "(1243)", "(23)", "(1342)"],
)
# the size-8 solution that retracts onto SOL4
SOL8 = (
    ["(1826)", "(1826)", "(3745)", "(3745)",
     "(17842563)", "(13872465)", "(17842563)", "(13872465)"],
    ["(1527)", "(1527)", "(3648)", "(3648)",
     "(13562478)", "(16542873)", "(13562478)", "(16542873)"],
)


def solution_from_cycles(spec) -> tuple[int, list, list]:
    """(n, sigma, tau) from per-point cycle notation such as SOL4."""
    n = len(spec[0])
    return (n, [perm_from_cycles(c, n) for c in spec[0]],
            [perm_from_cycles(c, n) for c in spec[1]])


# ---------------------------------------------------------------------------
# Solutions: r(x, y) = (sigma[x][y], tau[y][x])


def _is_perm(row, n: int) -> bool:
    return len(row) == n and sorted(row) == list(range(n))


def solution_problem(n: int, sigma, tau) -> str | None:
    """Why (sigma, tau) is not a non-degenerate braided bijection, or None."""
    if len(sigma) != n or len(tau) != n:
        return f"expected {n} sigma and tau rows"
    for name, fam in (("sigma", sigma), ("tau", tau)):
        for x, row in enumerate(fam):
            if not _is_perm(row, n):
                return f"{name}[{x}] is not a permutation (degenerate)"
    images = {(sigma[x][y], tau[y][x]) for x in range(n) for y in range(n)}
    if len(images) != n * n:
        return "r is not a bijection of pairs"

    def r12(a, b, c):
        return sigma[a][b], tau[b][a], c

    def r23(a, b, c):
        return a, sigma[b][c], tau[c][b]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if r12(*r23(*r12(x, y, z))) != r23(*r12(*r23(x, y, z))):
                    return f"braid identity fails on ({x}, {y}, {z})"
    return None


def is_involutive(n: int, sigma, tau) -> bool:
    """r o r = id on every pair."""
    for x in range(n):
        for y in range(n):
            u, v = sigma[x][y], tau[y][x]
            if (sigma[u][v], tau[v][u]) != (x, y):
                return False
    return True


def relabel_solution(n: int, sigma, tau, f):
    """The isomorphic copy (f x f) r (f x f)^-1."""
    finv = [0] * n
    for i, v in enumerate(f):
        finv[v] = i
    new_sigma = [[f[sigma[finv[x]][finv[y]]] for y in range(n)] for x in range(n)]
    new_tau = [[f[tau[finv[y]][finv[x]]] for x in range(n)] for y in range(n)]
    return new_sigma, new_tau


def perm_from_cycles(cycles: str, n: int) -> list[int]:
    """1-based cycle notation with single-digit points, e.g. "(1324)" or "id"."""
    images = list(range(n))
    for chunk in re.findall(r"\(([^)]*)\)", cycles):
        points = [int(ch) - 1 for ch in chunk]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return images


def solution_text(n: int, sigma, tau) -> str:
    """A solution record in the ybx text format (`kind`, `size`, tables)."""
    lines = ["kind: solution", f"size: {n}", "sigma:"]
    lines += [" ".join(map(str, row)) for row in sigma]
    lines.append("tau:")
    lines += [" ".join(map(str, row)) for row in tau]
    return "\n".join(lines) + "\n"


def parse_stream(text: str):
    """(header, [(n, sigma, tau), ...]) from an enumeration stream file."""
    blocks: list[list[str]] = []
    current: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)
    if current:
        blocks.append(current)
    if not blocks:
        raise ValueError("empty stream")

    def fields(block):
        meta: dict[str, str] = {}
        tables: dict[str, list[list[int]]] = {}
        section = None
        for line in block:
            if ":" in line:
                key, value = (s.strip() for s in line.split(":", 1))
                if value:
                    meta[key] = value
                    section = None
                else:
                    section = key
                    tables[section] = []
            elif section is None:
                raise ValueError(f"row outside a table: {line!r}")
            else:
                tables[section].append([int(t) for t in line.split()])
        return meta, tables

    header, _ = fields(blocks[0])
    if header.get("kind") != "enumeration-stream":
        raise ValueError("first record is not a stream header")
    records = []
    for block in blocks[1:]:
        meta, tables = fields(block)
        if meta.get("kind") != "solution":
            raise ValueError(f"stream record of kind {meta.get('kind')!r}")
        records.append((int(meta["size"]), tables.get("sigma"), tables.get("tau")))
    return header, records


# ---------------------------------------------------------------------------
# Skew braces: a o (b + c) = a o b - a + a o c


def _group_problem(table, n: int) -> str | None:
    if len(table) != n:
        return "wrong number of rows"
    for a in range(n):
        if not _is_perm(table[a], n):
            return f"row {a} is not a permutation"
        if not _is_perm([table[b][a] for b in range(n)], n):
            return f"column {a} is not a permutation"
        if table[0][a] != a or table[a][0] != a:
            return "0 is not the identity"
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return f"not associative at ({a}, {b}, {c})"
    return None


def brace_problem(add, mul) -> str | None:
    """Why (add, mul) is not a skew brace with shared identity 0, or None.

    A Latin square with identity 0 that is associative is a group, so the
    inverses need no separate check.
    """
    n = len(add)
    for name, table in (("add", add), ("mul", mul)):
        reason = _group_problem(table, n)
        if reason is not None:
            return f"({name}) {reason}"
    neg = [add[a].index(0) for a in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]:
                    return f"brace compatibility fails on ({a}, {b}, {c})"
    return None


def is_abelian(table) -> bool:
    n = len(table)
    return all(table[a][b] == table[b][a] for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# Growth: the structure group's Cayley graph is the lattice graph of Z^n


def lattice_ball(n: int, k: int) -> int:
    """Points of Z^n at l1 distance <= k from 0: sum_j 2^j C(n,j) C(k,j)."""
    return sum(2**j * comb(n, j) * comb(k, j) for j in range(min(n, k) + 1))


_TERM_RE = re.compile(r"(-?)(?:(\d+)(\*?))?(t(?:\^(\d+))?)?")


def parse_poly(text: str) -> list[int]:
    """Coefficients of a polynomial printed as "1 - 2*t + t^2"."""
    coeffs: dict[int, int] = {}
    for token in text.replace(" - ", " + -").split(" + "):
        m = _TERM_RE.fullmatch(token.strip())
        if m is None:
            raise ValueError(f"bad polynomial term {token!r}")
        sign, digits, star, mono, power = m.groups()
        if (digits is None and mono is None) or (digits and mono and not star) \
                or (star and mono is None):
            raise ValueError(f"bad polynomial term {token!r}")
        c = int(digits) if digits else 1
        degree = 0 if mono is None else int(power) if power else 1
        coeffs[degree] = coeffs.get(degree, 0) + (-c if sign else c)
    return [coeffs.get(d, 0) for d in range(max(coeffs) + 1)]


def parse_series(text: str) -> tuple[list[int], list[int]]:
    """(numerator, denominator) of "(p) / (q)"."""
    m = re.fullmatch(r"\((.*)\) / \((.*)\)", text.strip())
    if not m:
        raise ValueError(f"not a rational function: {text!r}")
    return parse_poly(m.group(1)), parse_poly(m.group(2))


def expand_series(num, den, count: int) -> list[Fraction]:
    """First `count` power-series coefficients of num/den."""
    out: list[Fraction] = []
    for k in range(count):
        total = Fraction(num[k] if k < len(num) else 0)
        for i in range(1, min(k, len(den) - 1) + 1):
            total -= den[i] * out[k - i]
        out.append(total / den[0])
    return out
