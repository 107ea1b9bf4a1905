"""Finite skew braces: two compatible group tables sharing the identity 0.

Stored as full Cayley tables for both operations; `verify_brace` checks the
group axioms and the distributive-like compatibility law on all triples.
On top of that sit the lambda/star structure, ideals (socle, annihilator),
right nilpotency, the radical-ring correspondences and the canonical braid
solution attached to every brace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import groups, solutions
from .groups import FiniteGroup
from .perms import Perm, cycles, least_relabeling, table_isomorphisms, tables_from_bytes
from .solutions import Solution


@dataclass(frozen=True)
class BraceDiagnostic:
    condition: str  # "shape" | "additive-group" | "multiplicative-group"
    #                 | "identity-mismatch" | "compatibility"
    message: str
    witness: tuple | None = None

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


class InvalidBraceError(ValueError):
    def __init__(self, diagnostic: BraceDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class SkewBrace:
    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]

    @cached_property
    def neg(self) -> tuple[int, ...]:
        return groups.table_inverses(self.add)

    @cached_property
    def circ_inv(self) -> tuple[int, ...]:
        return groups.table_inverses(self.mul)

    @cached_property
    def is_abelian_type(self) -> bool:
        return additive_group(self).is_abelian

    def lam(self, a: int) -> Perm:
        """The additive automorphism b -> -a + a o b."""
        na = self.neg[a]
        return tuple(self.add[na][self.mul[a][b]] for b in range(self.size))

    def star(self, a: int, b: int) -> int:
        """a * b = lambda_a(b) - b."""
        return self.add[self.lam(a)[b]][self.neg[b]]


def additive_group(A: SkewBrace) -> FiniteGroup:
    return FiniteGroup(A.size, A.add, A.neg)


def multiplicative_group(A: SkewBrace) -> FiniteGroup:
    return FiniteGroup(A.size, A.mul, A.circ_inv)


def diagnose_brace(add, mul) -> BraceDiagnostic | None:
    """First failing brace axiom of a candidate table pair, or None."""
    n = len(add)
    if n < 1 or len(mul) != n:
        return BraceDiagnostic("shape", "tables must be non-empty and equally sized")
    reason = groups.table_diagnostic(add)
    if reason is not None:
        return BraceDiagnostic("additive-group", f"(A,+) is not a group: {reason}")
    reason = groups.table_diagnostic(mul)
    if reason is not None:
        if groups.table_identity(mul) not in (None, 0):
            return BraceDiagnostic(
                "identity-mismatch",
                "the multiplicative identity differs from the additive identity 0",
            )
        return BraceDiagnostic(
            "multiplicative-group", f"(A,o) is not a group: {reason}"
        )
    neg = groups.table_inverses(add)
    for a in range(n):
        na = neg[a]
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[a][add[b][c]] != add[add[ab][na]][mul[a][c]]:
                    return BraceDiagnostic(
                        "compatibility",
                        f"a o (b + c) = a o b - a + a o c fails at "
                        f"(a,b,c) = ({a},{b},{c})",
                        (a, b, c),
                    )
    return None


def verify_brace(add, mul) -> SkewBrace:
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    diag = diagnose_brace(add, mul)
    if diag is not None:
        raise InvalidBraceError(diag)
    return SkewBrace(len(add), add, mul)


# ---------------------------------------------------------------------------
# Constructions


def make_trivial_brace(G: FiniteGroup) -> SkewBrace:
    """a o b = a + b."""
    return verify_brace(G.table, G.table)


def make_almost_trivial_brace(G: FiniteGroup) -> SkewBrace:
    """a o b = b + a."""
    mul = tuple(tuple(G.table[b][a] for b in G.elements()) for a in G.elements())
    return verify_brace(G.table, mul)


def make_exact_factorization(G: FiniteGroup, B, C) -> SkewBrace:
    """Brace on G from an exact factorization G = B + C with B, C subgroups.

    Writing a = b + c, the circle operation is a o a1 = b + a1 + c; the
    multiplicative group then has order |B| * |C| = |G|.
    """
    B = sorted(set(B))
    C = sorted(set(C))
    for name, H in (("B", B), ("C", C)):
        members = set(H)
        if 0 not in members or any(
            G.table[x][y] not in members for x in H for y in H
        ):
            raise ValueError(f"{name} is not a subgroup")
    if set(B) & set(C) != {0}:
        raise ValueError("B and C intersect beyond the identity")
    if len(B) * len(C) != G.order:
        raise ValueError("|B| * |C| does not match |G|: not an exact factorization")
    part: dict[int, tuple[int, int]] = {}
    for b in B:
        for c in C:
            a = G.table[b][c]
            if a in part:
                raise ValueError("factorization is not unique")
            part[a] = (b, c)
    mul = tuple(
        tuple(
            G.table[G.table[part[a][0]][a1]][part[a][1]] for a1 in G.elements()
        )
        for a in G.elements()
    )
    return verify_brace(G.table, mul)


# ---------------------------------------------------------------------------
# Radical rings


@dataclass(frozen=True)
class FiniteRing:
    """Non-unitary ring on {0..n-1}: abelian addition plus a product table."""

    size: int
    add: tuple[tuple[int, ...], ...]
    prod: tuple[tuple[int, ...], ...]

    @cached_property
    def neg(self) -> tuple[int, ...]:
        return groups.table_inverses(self.add)

    def circle(self, x: int, y: int) -> int:
        """x o y = x + xy + y."""
        return self.add[self.add[x][self.prod[x][y]]][y]


class InvalidRingError(ValueError):
    pass


def verify_ring(size: int, add, prod, require_radical: bool = False) -> FiniteRing:
    add = tuple(tuple(row) for row in add)
    prod = tuple(tuple(row) for row in prod)
    n = size
    if len(add) != n or len(prod) != n:
        raise InvalidRingError("tables do not match the declared size")
    reason = groups.table_diagnostic(add)
    if reason is not None:
        raise InvalidRingError(f"(R,+) is not a group: {reason}")
    for a in range(n):
        for b in range(a):
            if add[a][b] != add[b][a]:
                raise InvalidRingError("(R,+) is not abelian")
    for row in prod:
        if len(row) != n or any(not 0 <= v < n for v in row):
            raise InvalidRingError("product table is malformed")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if prod[prod[a][b]][c] != prod[a][prod[b][c]]:
                    raise InvalidRingError(
                        f"product not associative at ({a},{b},{c})"
                    )
                if prod[a][add[b][c]] != add[prod[a][b]][prod[a][c]]:
                    raise InvalidRingError(
                        f"left distributivity fails at ({a},{b},{c})"
                    )
                if prod[add[a][b]][c] != add[prod[a][c]][prod[b][c]]:
                    raise InvalidRingError(
                        f"right distributivity fails at ({a},{b},{c})"
                    )
    ring = FiniteRing(n, add, prod)
    if require_radical and not is_radical_ring(ring):
        raise InvalidRingError("circle operation is not a group law")
    return ring


def is_radical_ring(R: FiniteRing) -> bool:
    """True when x o y = x + xy + y makes R a group (0 is its identity)."""
    n = R.size
    circ = [[R.circle(x, y) for y in range(n)] for x in range(n)]
    return groups.table_diagnostic(circ) is None


def brace_from_radical_ring(R: FiniteRing) -> SkewBrace:
    if not is_radical_ring(R):
        raise InvalidRingError("ring is not radical")
    n = R.size
    mul = tuple(tuple(R.circle(x, y) for y in range(n)) for x in range(n))
    return verify_brace(R.add, mul)


def ring_from_two_sided(A: SkewBrace) -> FiniteRing:
    """Recover the ring with xy = -x + x o y - y from a two-sided abelian-type brace."""
    if not A.is_abelian_type:
        raise InvalidBraceError(
            BraceDiagnostic("additive-group", "brace is not of abelian type")
        )
    if not is_two_sided(A):
        raise InvalidBraceError(
            BraceDiagnostic("compatibility", "brace is not two-sided")
        )
    n = A.size
    prod = tuple(
        tuple(
            A.add[A.add[A.neg[x]][A.mul[x][y]]][A.neg[y]] for y in range(n)
        )
        for x in range(n)
    )
    return verify_ring(n, A.add, prod, require_radical=True)


def is_two_sided(A: SkewBrace) -> bool:
    """(a + b) o c = a o c - c + b o c on all triples."""
    n = A.size
    add, mul, neg = A.add, A.mul, A.neg
    for a in range(n):
        for b in range(n):
            ab = add[a][b]
            for c in range(n):
                if mul[ab][c] != add[add[mul[a][c]][neg[c]]][mul[b][c]]:
                    return False
    return True


def star_table(A: SkewBrace) -> tuple[tuple[int, ...], ...]:
    n = A.size
    return tuple(
        tuple(A.add[A.lam(a)[b]][A.neg[b]] for b in range(n)) for a in range(n)
    )


def is_star_associative(A: SkewBrace) -> bool:
    st = star_table(A)
    n = A.size
    return all(
        st[st[a][b]][c] == st[a][st[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def star_forms_radical_ring(A: SkewBrace) -> bool:
    """Check that (A, +, *) is a radical ring (abelian-type, star-associative input)."""
    if not A.is_abelian_type:
        raise ValueError("requires a brace of abelian type")
    if not is_star_associative(A):
        raise ValueError("requires a star-associative brace")
    try:
        verify_ring(A.size, A.add, star_table(A), require_radical=True)
    except InvalidRingError:
        return False
    return True


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class BraceIdeal:
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def is_ideal(A: SkewBrace, members) -> bool:
    m = set(members)
    if 0 not in m:
        return False
    n = A.size
    G_add = additive_group(A)
    G_mul = multiplicative_group(A)
    for H, G in ((m, G_add), (m, G_mul)):
        if any(G.table[x][y] not in H for x in H for y in H):
            return False
        if not groups.is_normal(G, H):
            return False
    return all(A.lam(a)[x] in m for a in range(n) for x in m)


def socle(A: SkewBrace) -> BraceIdeal:
    """Elements acting trivially additively and central in (A,+)."""
    ident = tuple(range(A.size))
    add_center = set(groups.center(additive_group(A)))
    members = tuple(
        a for a in range(A.size) if A.lam(a) == ident and a in add_center
    )
    ideal = BraceIdeal(members)
    if not is_ideal(A, members):  # pragma: no cover - theory forbids it
        raise RuntimeError("socle failed the ideal axioms")
    return ideal


def annihilator(A: SkewBrace) -> BraceIdeal:
    mul_center = set(groups.center(multiplicative_group(A)))
    members = tuple(a for a in socle(A).members if a in mul_center)
    ideal = BraceIdeal(members)
    if not is_ideal(A, members):  # pragma: no cover - theory forbids it
        raise RuntimeError("annihilator failed the ideal axioms")
    return ideal


def quotient_brace(A: SkewBrace, ideal) -> SkewBrace:
    """A/I, from the quotients of (A,+) and (A,o) by I.

    For an ideal a + I = a o I, so both quotients number the cosets alike.
    """
    members = sorted(set(ideal.members if isinstance(ideal, BraceIdeal) else ideal))
    if not is_ideal(A, members):
        raise ValueError("subset is not an ideal")
    return verify_brace(groups.quotient(additive_group(A), members).table,
                        groups.quotient(multiplicative_group(A), members).table)


def right_nilpotency(A: SkewBrace) -> int | None:
    """Least m with the chain A, A*A, (A*A)*A, ... hitting {0}, else None.

    Each step is the additive subgroup generated by the star products of the
    previous term with the whole brace.
    """
    n = A.size
    st = star_table(A)
    G_add = additive_group(A)
    current = frozenset(range(n))
    k = 1
    while current != {0}:
        prods = {st[x][y] for x in current for y in range(n)}
        nxt = groups.closure(G_add, prods)
        if nxt == current:
            return None
        current = nxt
        k += 1
    return k


# ---------------------------------------------------------------------------
# The canonical braid solution of a brace


def associated_solution(A: SkewBrace) -> Solution:
    """The solution r(x, y) = (-x + x o y, (-x + x o y)' o x o y) on A.

    Involutive exactly when the additive group is abelian.
    """
    n = A.size
    sigma = tuple(A.lam(x) for x in range(n))
    tau_rows = []
    for y in range(n):
        row = []
        for x in range(n):
            u = sigma[x][y]
            row.append(A.mul[A.circ_inv[u]][A.mul[x][y]])
        tau_rows.append(tuple(row))
    try:
        return solutions.verify(n, sigma, tuple(tau_rows))
    except solutions.InvalidSolutionError as exc:  # pragma: no cover
        raise RuntimeError("brace produced an invalid solution") from exc


def solution_order_check(A: SkewBrace) -> tuple[int, int]:
    """(measured order of the pair map, predicted 2 * exp(G/Z(G)) of (A,+))."""
    if A.size <= 1:
        raise ValueError("defined only for braces with more than one element")
    s = associated_solution(A)
    n = A.size
    image = [0] * (n * n)
    for x in range(n):
        for y in range(n):
            u, v = s.r(x, y)
            image[x * n + y] = u * n + v
    measured = math.lcm(*(len(c) for c in cycles(image)))
    predicted = 2 * groups.quotient_exponent_mod_center(additive_group(A))
    return measured, predicted


# ---------------------------------------------------------------------------
# Isomorphism and canonical form


def brace_canonical_form(A: SkewBrace) -> bytes:
    """Least serialization of (add, mul) over the relabelings fixing 0."""
    return least_relabeling((A.add, A.mul), 1)[0]


def brace_from_canonical(blob: bytes) -> SkewBrace:
    """Rebuild and verify a SkewBrace from a brace_canonical_form byte string."""
    return verify_brace(*tables_from_bytes(blob, 2))


def find_brace_isomorphism(A: SkewBrace, B: SkewBrace) -> Perm | None:
    """The lexicographically first bijection respecting both operations, or
    None.  Images are pruned by the additive and multiplicative element
    orders, so 0 maps to 0."""

    def keys(C: SkewBrace) -> list[tuple[int, int]]:
        return list(zip(groups.element_orders(additive_group(C)),
                        groups.element_orders(multiplicative_group(C))))

    found = table_isomorphisms((A.add, A.mul), (B.add, B.mul), keys(A), keys(B))
    return next(found, None)


@dataclass(frozen=True)
class BraceReport:
    size: int
    abelian_type: bool
    two_sided: bool
    star_associative: bool
    right_nilpotency: int | None
    socle_size: int
    annihilator_size: int
    solution_order: tuple[int, int] | None  # (measured, predicted); None if size 1

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "abelian_type": self.abelian_type,
            "two_sided": self.two_sided,
            "star_associative": self.star_associative,
            "right_nilpotency": (
                "none" if self.right_nilpotency is None else self.right_nilpotency
            ),
            "socle_size": self.socle_size,
            "annihilator_size": self.annihilator_size,
            "solution_order_measured": (
                None if self.solution_order is None else self.solution_order[0]
            ),
            "solution_order_predicted": (
                None if self.solution_order is None else self.solution_order[1]
            ),
        }


def analyze_brace(A: SkewBrace) -> BraceReport:
    return BraceReport(
        size=A.size,
        abelian_type=A.is_abelian_type,
        two_sided=is_two_sided(A),
        star_associative=is_star_associative(A),
        right_nilpotency=right_nilpotency(A),
        socle_size=len(socle(A)),
        annihilator_size=len(annihilator(A)),
        solution_order=solution_order_check(A) if A.size > 1 else None,
    )


# Handy concrete instances used across the test corpus.

def mod4_radical_ring() -> FiniteRing:
    """Z/4 with product xy = 2xy, whose circle law is x + y + 2xy."""
    add = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))
    prod = tuple(tuple((2 * a * b) % 4 for b in range(4)) for a in range(4))
    return verify_ring(4, add, prod, require_radical=True)


def strictly_upper_triangular_ring(field_size: int = 2) -> FiniteRing:
    """3x3 strictly upper triangular matrices over Z/p, p prime.

    Elements are triples (a, b, c) packed in base p: the matrix with first
    superdiagonal (a, b) and corner c.  The product keeps only the corner
    a1 * b2.
    """
    p = field_size
    n = p ** 3

    def unpack(i: int) -> tuple[int, int, int]:
        return i % p, (i // p) % p, i // (p * p)

    def pack(a: int, b: int, c: int) -> int:
        return a + p * b + p * p * c

    add = tuple(
        tuple(
            pack(*[(u + v) % p for u, v in zip(unpack(i), unpack(j))])
            for j in range(n)
        )
        for i in range(n)
    )
    prod = tuple(
        tuple(
            pack(0, 0, (unpack(i)[0] * unpack(j)[1]) % p) for j in range(n)
        )
        for i in range(n)
    )
    return verify_ring(n, add, prod, require_radical=True)
