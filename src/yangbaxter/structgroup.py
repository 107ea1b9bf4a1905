"""Structure groups of involutive solutions through exact affine matrices.

Each generator x_i maps to the integer matrix [P_i | e_i; 0 | 1] whose block
is the permutation matrix of sigma[i] (column j carries a 1 in row
sigma[i](j)) and whose last column is the i-th standard basis vector.  All
arithmetic is exact; growth of the Cayley ball, the Promislow word set and
the unique-product falsifier are built on top.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .perms import Perm, compose, identity as identity_perm, invert
from .solutions import Solution


@dataclass(frozen=True)
class AffineElement:
    """Pair (permutation, integer shift), i.e. the matrix [P | t; 0 | 1]."""

    perm_part: Perm
    trans_part: tuple[int, ...]

    @staticmethod
    def identity(n: int) -> "AffineElement":
        return AffineElement(identity_perm(n), (0,) * n)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        p, t = self.perm_part, self.trans_part
        q, s = other.perm_part, other.trans_part
        n = len(p)
        trans = list(t)
        for j in range(n):
            trans[p[j]] += s[j]
        return AffineElement(compose(p, q), tuple(trans))

    def inverse(self) -> "AffineElement":
        p, t = self.perm_part, self.trans_part
        return AffineElement(invert(p), tuple(-t[p[i]] for i in range(len(p))))

    def to_matrix(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.perm_part)
        pinv = invert(self.perm_part)
        rows = []
        for i in range(n):
            row = [0] * (n + 1)
            row[pinv[i]] = 1  # column j holds a 1 in row perm(j)
            row[n] = self.trans_part[i]
            rows.append(tuple(row))
        rows.append(tuple([0] * n + [1]))
        return tuple(rows)


def affine_representation(s: Solution) -> list[AffineElement]:
    """Faithful generators of the structure group of an involutive solution.

    Every defining relation x y = u v with r(x, y) = (u, v) is verified on
    the matrices before returning.
    """
    if not s.involutive:
        raise ValueError("the affine representation requires an involutive solution")
    n = s.size
    gens = [
        AffineElement(s.sigma[i], tuple(1 if j == i else 0 for j in range(n)))
        for i in range(n)
    ]
    for x in range(n):
        for y in range(n):
            u, v = s.r(x, y)
            if gens[x] * gens[y] != gens[u] * gens[v]:  # pragma: no cover
                raise RuntimeError(
                    f"structure relation fails at (x={x}, y={y}); "
                    "this contradicts the construction"
                )
    return gens


# ---------------------------------------------------------------------------
# Words

Word = tuple[int, ...]  # signed 1-based generator indices

_TOKEN_RE = re.compile(r"^(\d+)(')?$")


def parse_word(text: str) -> Word:
    """Parse "1 2'" -> (1, -2): whitespace-separated tokens, ' marks inverse."""
    out = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad word token {token!r}; expected i or i'")
        idx = int(m.group(1))
        if idx < 1:
            raise ValueError("generator indices are 1-based")
        out.append(-idx if m.group(2) else idx)
    return tuple(out)


def eval_word(gens, word: Word):
    """Exact product of generators (1-based, negative = inverse)."""
    if not gens:
        raise ValueError("need at least one generator")
    acc = gens[0] * gens[0].inverse()
    for i in word:
        if not 1 <= abs(i) <= len(gens):
            raise ValueError(f"generator index {i} out of range 1..{len(gens)}")
        g = gens[abs(i) - 1]
        acc = acc * (g if i > 0 else g.inverse())
    return acc


# ---------------------------------------------------------------------------
# Cayley ball growth


@dataclass(frozen=True)
class GrowthResult:
    values: tuple[int, ...]
    truncated: bool = False


def ball_sizes(
    s: Solution, radius: int, max_elements: int = 2_000_000
) -> GrowthResult:
    """Cumulative ball sizes in the Cayley graph on X and X^{-1}.

    Edges join g and gx, so the graph is undirected with the symmetric
    generating set; values[k] counts elements at distance <= k.  Exceeding
    `max_elements` returns the computed prefix flagged as truncated.

    The search (`_keyed_bfs_sizes`) is `_bfs_sizes` holding two spheres, not
    the ball.  In an undirected graph a neighbour of the sphere at distance k
    lies at distance k - 1, k or k + 1, so sphere k + 1 is the neighbourhood
    of sphere k less spheres k and k - 1, and each ball size is a running
    sum: memory scales with two spheres.  A sphere maps the id of each
    permutation p in it (handed out the first time p is reached) to the set
    of codes of the t with (p, t) in it, code(t) = sum t_i * B^i in the
    balanced base B = 2 * radius + 1.  Every move shifts by a signed unit
    vector (the generators by e_i, their inverses by -e_j; checked on the
    moves), so each step moves t by one unit vector and |t_i| <= radius
    inside the ball: the digits stay in range and (id(p), code(t)) determines
    the whole pair (p, t), not t alone.  (p, t) * (q, +-e_j) =
    (pq, t +- e_{p(j)}), so a move sends all codes of p to pq shifted by one
    constant, and each reached permutation keeps one (target id, code shift)
    pair per move.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return GrowthResult(
        *_keyed_bfs_sizes(s.size, affine_representation(s), radius, max_elements)
    )


def _keyed_bfs_sizes(n: int, gens, radius: int, max_elements: int):
    """`_bfs_sizes` from the identity of Z^n x Sym(n) on `gens` and their
    inverses, two spheres at a time.

    The inverses are added here, since the two-sphere rule of `ball_sizes`
    holds only on an undirected graph.  Every generator must be an
    `AffineElement` whose shift is a signed unit vector; the code encoding is
    exact only then.
    """
    steps = []  # (perm, coordinate, sign) of each move's shift
    for m in gens + [g.inverse() for g in gens]:
        shift = [(j, v) for j, v in enumerate(m.trans_part) if v]
        if len(shift) != 1 or shift[0][1] not in (1, -1):
            raise ValueError(f"move shift {m.trans_part} is not a signed unit vector")
        steps.append((m.perm_part, *shift[0]))
    base = 2 * radius + 1
    perms = [identity_perm(n)]
    ids = {perms[0]: 0}
    deltas: dict[int, list[tuple[int, int]]] = {}  # perm id -> its delta_row

    def delta_row(pid: int) -> list[tuple[int, int]]:
        """(target perm id, code shift) of each move from perm id `pid`."""
        p = perms[pid]
        row = []
        for q, j, sign in steps:
            pq = compose(p, q)
            qid = ids.setdefault(pq, len(perms))
            if qid == len(perms):
                perms.append(pq)
            row.append((qid, sign * base ** p[j]))
        return row

    prev: dict[int, set[int]] = {}
    sphere = {0: {0}}  # perm id -> codes of the last sphere
    sizes = [1]
    for _ in range(radius):
        new: dict[int, set[int]] = {}
        for pid, codes in sphere.items():
            if pid not in deltas:
                deltas[pid] = delta_row(pid)
            for qid, shift in deltas[pid]:
                new.setdefault(qid, set()).update(map(shift.__add__, codes))
        for qid, codes in new.items():
            codes -= sphere.get(qid, set())
            codes -= prev.get(qid, set())
        size = sizes[-1] + sum(map(len, new.values()))
        if size > max_elements:
            return tuple(sizes), True
        sizes.append(size)
        prev, sphere = sphere, new
    return tuple(sizes), False


def ball_sizes_via_matrices(
    s: Solution, radius: int, max_elements: int = 2_000_000
) -> GrowthResult:
    """Independent recomputation of ball_sizes over exact rational matrices."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = affine_representation(s)
    mats = [RationalMatrix.from_lists(g.to_matrix()) for g in gens]
    moves = mats + [m.inverse() for m in mats]
    ident = RationalMatrix.identity(s.size + 1)
    return GrowthResult(*_bfs_sizes(ident, moves, radius, max_elements))


def _bfs_sizes(start, moves, radius: int, max_elements: int):
    """Breadth-first ball sizes over any hashable elements with `*`.

    One object per product: `ball_sizes_via_matrices` runs it on rational
    matrices, and the tests run it on `AffineElement`s as the oracle for
    the integer-keyed search of `ball_sizes`.  Once |seen| exceeds
    `max_elements` it returns the completed levels with truncated=True.
    """
    seen = {start}
    frontier = [start]
    sizes = [1]
    truncated = False
    for _ in range(radius):
        new = []
        for el in frontier:
            for m in moves:
                nxt = el * m
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
            if len(seen) > max_elements:
                truncated = True
                break
        if truncated:
            break
        frontier = new
        sizes.append(len(seen))
    return tuple(sizes), truncated


# ---------------------------------------------------------------------------
# Rational series guessing


@dataclass(frozen=True)
class SeriesGuess:
    """p(t)/q(t) fitted to finitely many coefficients; a conjecture by nature."""

    numerator: tuple[int, ...]
    denominator: tuple[int, ...]

    def __str__(self) -> str:
        return f"({_poly_str(self.numerator)}) / ({_poly_str(self.denominator)})"

    def expand(self, count: int) -> list[int]:
        p = [Fraction(c) for c in self.numerator]
        q = [Fraction(c) for c in self.denominator]
        out: list[Fraction] = []
        for k in range(count):
            total = p[k] if k < len(p) else Fraction(0)
            for i in range(1, min(k, len(q) - 1) + 1):
                total -= q[i] * out[k - i]
            out.append(total / q[0])
        if any(v.denominator != 1 for v in out):
            raise ValueError("series is not integral")
        return [int(v) for v in out]


def _poly_str(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            mono = "t" if k == 1 else f"t^{k}"
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
    if not terms:
        return "0"
    return " + ".join(terms).replace("+ -", "- ")


def guess_rational_series(values) -> SeriesGuess | None:
    """Least-order rational function p/q reproducing every supplied value.

    One Berlekamp-Massey pass (Massey, IEEE Trans. Inf. Theory 15 (1969))
    over exact rationals finds the least order L and the q with q(0) = 1,
    deg q <= L, such that sum_i q_i v_{k-i} = 0 for every k >= L; then
    p = q v mod t^L.  None when 2L >= len(values): the values no longer
    pin a recurrence of that order down.

    For 2L < len(values) the least recurrence is unique (Massey), so q is
    the one any exact solver of that order finds.  p and q share no factor:
    a common g has g(0) != 0, since q(0) = 1, so dividing it out would give
    q' v = p' mod t^len(values) with a recurrence of order at most L - 1.
    The result is scaled to integers by the least common denominator, and it
    re-expands to the inputs or is discarded.
    """
    vals = [Fraction(int(v)) for v in values]
    if len(vals) < 6:
        raise ValueError("need at least 6 values to guess a series")

    def conv(q, k):  # coefficient k of q * v
        return sum(q[i] * vals[k - i] for i in range(min(len(q), k + 1)))

    # prev is q before the last order change, prev_disc its discrepancy then,
    # shift the power of t to apply it at
    q, prev, prev_disc, order, shift = [Fraction(1)], [Fraction(1)], Fraction(1), 0, 1
    for k in range(len(vals)):
        disc = conv(q, k)
        if disc == 0:
            shift += 1
            continue
        step = q + [Fraction(0)] * (shift + len(prev) - len(q))
        factor = disc / prev_disc
        for i, c in enumerate(prev):
            step[shift + i] -= factor * c
        if 2 * order <= k:
            order, prev, prev_disc, shift = k + 1 - order, q, disc, 1
        else:
            shift += 1
        q = step
    if 2 * order >= len(vals):
        return None
    p = [conv(q, k) for k in range(order)]
    while p and p[-1] == 0:
        p.pop()
    while q[-1] == 0:
        q.pop()
    # q(0) = 1, so the least common denominator leaves coprime integers
    scale = lcm(*(c.denominator for c in p + q))
    guess = SeriesGuess(
        tuple(int(c * scale) for c in p) or (0,), tuple(int(c * scale) for c in q)
    )
    return guess if guess.expand(len(vals)) == [int(v) for v in vals] else None


# ---------------------------------------------------------------------------
# Exact rational matrices (for groups presented by explicit matrices)


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_lists(rows) -> "RationalMatrix":
        return RationalMatrix(
            tuple(tuple(Fraction(v) for v in row) for row in rows)
        )

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        cols = tuple(zip(*other.rows))
        # zero entries are skipped: the affine generators are mostly zeros
        return RationalMatrix(
            tuple(
                tuple(
                    sum([x * y for x, y in zip(row, col) if x], Fraction(0))
                    for col in cols
                )
                for row in self.rows
            )
        )

    def inverse(self) -> "RationalMatrix":
        return RationalMatrix(
            tuple(
                tuple(row)
                for row in _invert_rational([list(r) for r in self.rows])
            )
        )


def _invert_rational(rows):
    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def promislow_matrix_generators() -> tuple[RationalMatrix, RationalMatrix]:
    """The classical pair of 4x4 rational matrices generating the Promislow group."""
    half = Fraction(1, 2)
    x = RationalMatrix.from_lists(
        [
            [0, 1, 0, 0],
            [2, 0, 0, 0],
            [0, 0, 0, half],
            [0, 0, 1, 0],
        ]
    )
    y = RationalMatrix.from_lists(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [2, 0, 0, 0],
            [0, half, 0, 0],
        ]
    )
    return x, y


# ---------------------------------------------------------------------------
# Promislow set and the unique product falsifier


def promislow_set(x, y) -> list:
    """The 14 classical words in x and y, deduplicated, first occurrence first."""
    xi, yi = x.inverse(), y.inverse()
    xy = x * y
    xyx = x * y * x
    words = [
        x * x * y,
        y * y * x,
        x * y * xi,
        (y * y * x).inverse(),
        (xy * xy).inverse(),
        y,
        xy * xy * x,
        xy * xy,
        xyx.inverse(),
        y * x * y,
        yi,
        x,
        xyx,
        xi,
    ]
    unique = []
    for w in words:
        if w not in unique:
            unique.append(w)
    return unique


def promislow_relations_hold(x, y) -> bool:
    """x^-1 y^2 x = y^-2 and y^-1 x^2 y = x^-2, checked exactly."""
    xi, yi = x.inverse(), y.inverse()
    return (
        xi * y * y * x == (y * y).inverse()
        and yi * x * x * y == (x * x).inverse()
    )


@dataclass(frozen=True)
class UppVerdict:
    """Outcome of the unique-product check for the pair (S, S)."""

    falsified: bool
    set_size: int
    product_count: int
    unique_products: tuple  # pairs (index_a, index_b) with a unique factorization
    multiplicity_histogram: tuple[tuple[int, int], ...]  # (multiplicity, count)

    def __str__(self) -> str:
        if self.falsified:
            return (
                f"FALSIFIED: all {self.product_count} products of the "
                f"{self.set_size}-element set admit at least two factorizations"
            )
        return (
            f"not falsified by this set: {len(self.unique_products)} of "
            f"{self.product_count} products have a unique factorization"
        )


def upp_falsify(S) -> UppVerdict:
    """Check whether S witnesses failure of the unique product property.

    Computes S*S with factorization multiplicities.  If every product has at
    least two factorizations, no element of S*S has a unique product and the
    pair (S, S) falsifies the property.  Otherwise the uniquely factorizable
    products are reported.
    """
    elements = list(S)
    products: dict = {}
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            products.setdefault(a * b, []).append((i, j))
    unique = tuple(
        factorizations[0]
        for factorizations in products.values()
        if len(factorizations) == 1
    )
    histogram: dict[int, int] = {}
    for factorizations in products.values():
        histogram[len(factorizations)] = histogram.get(len(factorizations), 0) + 1
    return UppVerdict(
        falsified=not unique,
        set_size=len(elements),
        product_count=len(products),
        unique_products=unique,
        multiplicity_histogram=tuple(sorted(histogram.items())),
    )


# ---------------------------------------------------------------------------
# Presentations


@dataclass(frozen=True)
class Presentation:
    generators: int
    relations: tuple[tuple[Word, Word], ...]
    ambiguous: bool = False


def _relations(pairs) -> tuple[tuple[Word, Word], ...]:
    """The (lhs, rhs) pairs in order, less the trivial ones and the repeats
    of a relation in either direction."""
    seen = set()
    relations = []
    for lhs, rhs in pairs:
        key = tuple(sorted((lhs, rhs)))
        if lhs != rhs and key not in seen:
            seen.add(key)
            relations.append((lhs, rhs))
    return tuple(relations)


def structure_presentation(s: Solution) -> Presentation:
    """Generators 1..n with x y = u v whenever r(x, y) = (u, v), deduplicated."""
    n = s.size
    pairs = (
        ((x + 1, y + 1), (u + 1, v + 1))
        for x in range(n)
        for y in range(n)
        for u, v in [s.r(x, y)]
    )
    return Presentation(n, _relations(pairs))


def additive_group_presentation(s: Solution) -> Presentation:
    """Companion presentation with relations x u = u sigma_u(v) for r(x, y) = (u, v).

    The defining rule never mentions y on the right-hand side, so its intent
    is ambiguous as written; the listing is produced verbatim and flagged,
    not normalized.
    """
    n = s.size
    pairs = (
        ((x + 1, u + 1), (u + 1, s.sigma[u][v] + 1))
        for x in range(n)
        for y in range(n)
        for u, v in [s.r(x, y)]
    )
    return Presentation(n, _relations(pairs), ambiguous=True)


def generator_collapse(p: Presentation) -> list[list[int]]:
    """Partition of the generators forced by one-step cancellation.

    Relations g a = h a or a g = a h (after rewriting through previously
    merged generators) force g = h; iterate to a fixed point.  Sound but
    deliberately incomplete: it only witnesses non-injectivity, never proves
    injectivity.
    """
    parent = list(range(p.generators + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[max(ra, rb)] = min(ra, rb)
        return True

    changed = True
    while changed:
        changed = False
        for lhs, rhs in p.relations:
            if len(lhs) != 2 or len(rhs) != 2:
                continue
            a, b = (find(i) for i in lhs)
            c, d = (find(i) for i in rhs)
            if b == d and union(a, c):
                changed = True
            if a == c and union(b, d):
                changed = True
    blocks: dict[int, list[int]] = {}
    for g in range(1, p.generators + 1):
        blocks.setdefault(find(g), []).append(g)
    return [sorted(v) for _, v in sorted(blocks.items())]
