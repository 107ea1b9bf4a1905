"""Set-theoretic solutions of the braid identity on a finite set.

A candidate is a size n together with two families of permutations
(sigma[x]) and (tau[y]); the induced pair map is

    r(x, y) = (sigma[x](y), tau[y](x)).

`verify` accepts exactly the non-degenerate candidates for which r is a
bijection of pairs satisfying r1 r2 r1 = r2 r1 r2 on all triples.  The rest
of the module provides the classical constructions, decomposability,
retraction towers, isomorphism search and a canonical form used for
isomorph rejection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import groups
from .groups import FiniteGroup
from .perms import (
    Perm,
    cycle_type,
    identity as identity_perm,
    invert,
    is_full_cycle,
    is_perm,
    least_relabeling,
    relabel_table,
    table_isomorphisms,
    tables_from_bytes,
)


@dataclass(frozen=True)
class SolutionDiagnostic:
    condition: str  # "shape" | "non-degenerate" | "r-bijective" | "braid"
    message: str
    witness: tuple | None = None

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


class InvalidSolutionError(ValueError):
    def __init__(self, diagnostic: SolutionDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class Solution:
    size: int
    sigma: tuple[Perm, ...]
    tau: tuple[Perm, ...]

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]

    @cached_property
    def involutive(self) -> bool:
        for x in range(self.size):
            for y in range(self.size):
                if self.r(*self.r(x, y)) != (x, y):
                    return False
        return True

    def __repr__(self) -> str:
        return f"Solution(size={self.size}, sigma={self.sigma}, tau={self.tau})"


def diagnose(size: int, sigma, tau) -> SolutionDiagnostic | None:
    """First failing solution axiom of a candidate, or None if valid."""
    if size < 1:
        return SolutionDiagnostic("shape", f"size must be >= 1, got {size}")
    if len(sigma) != size or len(tau) != size:
        return SolutionDiagnostic(
            "shape", f"expected {size} sigma and tau rows, got {len(sigma)}/{len(tau)}"
        )
    for name, fam in (("sigma", sigma), ("tau", tau)):
        for x, row in enumerate(fam):
            if len(row) != size or any(
                not isinstance(v, int) or not 0 <= v < size for v in row
            ):
                return SolutionDiagnostic(
                    "shape", f"{name}[{x}] is not a map into 0..{size - 1}"
                )
            if not is_perm(row):
                return SolutionDiagnostic(
                    "non-degenerate",
                    f"{name}[{x}] is not a bijection (fails at x={x})",
                    (x,),
                )

    n = size
    codes = [sigma[x][y] * n + tau[y][x] for x in range(n) for y in range(n)]
    if len(set(codes)) != n * n:
        # the witness is the first pair whose code is the least repeated one
        repeated = min(c for c, k in Counter(codes).items() if k > 1)
        x, y = divmod(codes.index(repeated), n)
        return SolutionDiagnostic(
            "r-bijective", f"r is not injective; duplicate image at (x={x}, y={y})",
            (x, y),
        )

    # with S = sigma, T = tau: r1 r2 r1 (x, y, z) = (S[u][p], T[p][u], q)
    # where (u, v) = r(x, y), (p, q) = r(v, z), and r2 r1 r2 (x, y, z) =
    # (S[x][a], S[d][b], T[b][d]) where (a, b) = r(y, z), d = T[a][x].
    # Triples are scanned in lex order, so the witness is the first failure.
    for x in range(n):
        Sx = sigma[x]
        for y in range(n):
            u, v = Sx[y], tau[y][x]
            Su, Sv, Sy = sigma[u], sigma[v], sigma[y]
            for z in range(n):
                p, a = Sv[z], Sy[z]
                Tz = tau[z]
                q, b = Tz[v], Tz[y]
                d = tau[a][x]
                if Su[p] != Sx[a] or tau[p][u] != sigma[d][b] or q != tau[b][d]:
                    return SolutionDiagnostic(
                        "braid", f"braid identity fails on the triple ({x}, {y}, {z})",
                        (x, y, z),
                    )
    return None


def verify(size: int, sigma, tau) -> Solution:
    """Validate a candidate and return it as a Solution, else raise."""
    sigma = tuple(tuple(row) for row in sigma)
    tau = tuple(tuple(row) for row in tau)
    diag = diagnose(size, sigma, tau)
    if diag is not None:
        raise InvalidSolutionError(diag)
    return Solution(size, sigma, tau)


# ---------------------------------------------------------------------------
# Constructions


def make_trivial(n: int) -> Solution:
    """r(x, y) = (y, x)."""
    ident = identity_perm(n)
    return verify(n, (ident,) * n, (ident,) * n)


def make_permutation(sigma: Perm, tau: Perm) -> Solution:
    """Constant families r(x, y) = (sigma(y), tau(x)); needs sigma tau = tau sigma."""
    n = len(sigma)
    if len(tau) != n:
        raise ValueError("sigma and tau act on different numbers of points")
    return verify(n, (tuple(sigma),) * n, (tuple(tau),) * n)


def make_conjugation(G: FiniteGroup) -> Solution:
    """r(x, y) = (y, y^-1 x y) on the elements of G."""
    n = G.order
    ident = identity_perm(n)
    tau = tuple(
        tuple(G.mul(G.inverse(y), G.mul(x, y)) for x in range(n)) for y in range(n)
    )
    return verify(n, (ident,) * n, tau)


def make_core(G: FiniteGroup) -> Solution:
    """r(x, y) = (x y^-1 x, x) on the elements of G."""
    n = G.order
    ident = identity_perm(n)
    sigma = tuple(
        tuple(G.mul(x, G.mul(G.inverse(y), x)) for y in range(n)) for x in range(n)
    )
    return verify(n, sigma, (ident,) * n)


def make_alexander(A: FiniteGroup, g: Perm) -> Solution:
    """r(x, y) = (x - g(x - y), x) on an abelian group with automorphism g."""
    if not A.is_abelian:
        raise ValueError("the underlying group must be abelian")
    n = A.order
    if len(g) != n or not is_perm(g):
        raise ValueError("g must be a bijection of the group elements")
    for a in range(n):
        for b in range(n):
            if g[A.mul(a, b)] != A.mul(g[a], g[b]):
                raise ValueError("g is not an automorphism")
    ident = identity_perm(n)
    sigma = tuple(
        tuple(A.mul(x, A.inverse(g[A.mul(x, A.inverse(y))])) for y in range(n))
        for x in range(n)
    )
    return verify(n, sigma, (ident,) * n)


def make_wada(G: FiniteGroup, variant: int) -> Solution:
    """The three group-based braid maps (y, x^-1), (y^-1, x^-1), (x^2 y, y^-1 x^-1 y)."""
    n = G.order
    ident = identity_perm(n)
    inv_perm = tuple(G.inv)
    if variant == 1:
        sigma, tau = (ident,) * n, (inv_perm,) * n
    elif variant == 2:
        sigma, tau = (inv_perm,) * n, (inv_perm,) * n
    elif variant == 3:
        sigma = tuple(
            tuple(G.mul(G.mul(x, x), y) for y in range(n)) for x in range(n)
        )
        tau = tuple(
            tuple(
                G.mul(G.inverse(y), G.mul(G.inverse(x), y)) for x in range(n)
            )
            for y in range(n)
        )
    else:
        raise ValueError("variant must be 1, 2 or 3")
    return verify(n, sigma, tau)


# ---------------------------------------------------------------------------
# Classification


def permutation_group(s: Solution) -> FiniteGroup:
    """Group generated by the sigma family, acting on the points of s."""
    return groups.generate(set(s.sigma), degree=s.size)


def is_indecomposable(s: Solution) -> bool:
    """No proper split X = Y | Z with both blocks closed under r.

    That is, the group generated by the sigma_x and tau_x is transitive.
    Let Y and Z be closed and y in Y: sigma_y(Y) lies in Y and sigma_y is
    injective, so sigma_y(Y) = Y and sigma_y(Z) = Z.  The same holds for
    tau and for y in Z, so both blocks are unions of orbits; conversely any
    union of orbits is closed under r.  A singleton is indecomposable.
    """
    return groups.is_transitive(set(s.sigma) | set(s.tau), s.size)


def diagonal_permutation(s: Solution) -> Perm:
    """The map x -> sigma[x]^{-1}(x) (involutive solutions only)."""
    _require_involutive(s, "the diagonal map")
    return tuple(invert(s.sigma[x])[x] for x in range(s.size))


def diagonal_is_full_cycle(s: Solution) -> bool:
    return is_full_cycle(diagonal_permutation(s))


def _require_involutive(s: Solution, what: str) -> None:
    if not s.involutive:
        raise ValueError(f"{what} is only defined for involutive solutions")


def retract(s: Solution) -> Solution:
    """Quotient by the relation sigma[x] = sigma[y], classes ordered by least member."""
    _require_involutive(s, "retraction")
    key_to_class: dict[tuple, int] = {}
    class_of = [0] * s.size
    reps: list[int] = []
    for x in range(s.size):
        key = s.sigma[x]
        if key not in key_to_class:
            key_to_class[key] = len(reps)
            reps.append(x)
        class_of[x] = key_to_class[key]
    m = len(reps)
    new_sigma = tuple(
        tuple(class_of[s.sigma[rx][ry]] for ry in reps) for rx in reps
    )
    new_tau = tuple(
        tuple(class_of[s.tau[ry][rx]] for rx in reps) for ry in reps
    )
    try:
        return verify(m, new_sigma, new_tau)
    except InvalidSolutionError as exc:  # pragma: no cover - theory forbids it
        raise RuntimeError("retraction produced an invalid solution") from exc


def multipermutation_level(s: Solution) -> int | None:
    """Retractions needed to reach a single point; None if the tower stalls.

    A solution already of size 1 has level 0.  If a retraction returns the
    same size, every further retraction repeats it, so the tower never
    reaches a singleton.
    """
    _require_involutive(s, "the multipermutation level")
    level = 0
    current = s
    while current.size > 1:
        nxt = retract(current)
        if nxt.size == current.size:
            return None
        current = nxt
        level += 1
    return level


def relabel(s: Solution, f: Perm) -> Solution:
    """Transport s along the bijection f (new point f[x] behaves like old x)."""
    return Solution(s.size, relabel_table(s.sigma, f), relabel_table(s.tau, f))


def find_isomorphism(s: Solution, t: Solution) -> Perm | None:
    """The lexicographically first bijection f with (f x f) r_s = r_t (f x f),
    that is relabel(s, f) == t, or None.

    Images are pruned by the cycle types of a point's sigma and tau rows.
    """

    def keys(u: Solution) -> list[tuple]:
        return [(cycle_type(u.sigma[x]), cycle_type(u.tau[x])) for x in range(u.size)]

    found = table_isomorphisms((s.sigma, s.tau), (t.sigma, t.tau), keys(s), keys(t))
    return next(found, None)


def is_isomorphic(s: Solution, t: Solution) -> bool:
    return find_isomorphism(s, t) is not None


def canonical_form(s: Solution) -> bytes:
    """Lexicographically least serialization of (sigma, tau) over all relabelings.

    Two solutions get equal strings exactly when they are isomorphic.
    """
    return least_relabeling((s.sigma, s.tau))[0]


def solution_from_canonical(blob: bytes) -> Solution:
    """Rebuild and verify a Solution from a canonical_form byte string."""
    sigma, tau = tables_from_bytes(blob, 2)
    return verify(len(sigma), sigma, tau)


@dataclass(frozen=True)
class SolutionReport:
    size: int
    involutive: bool
    indecomposable: bool
    multipermutation_level: int | None
    perm_group_order: int
    diagonal_full_cycle: bool | None
    sylow_cyclic_perm_group: bool

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "involutive": self.involutive,
            "indecomposable": self.indecomposable,
            "multipermutation_level": (
                "none"
                if self.involutive and self.multipermutation_level is None
                else ("n/a" if not self.involutive else self.multipermutation_level)
            ),
            "perm_group_order": self.perm_group_order,
            "diagonal_full_cycle": (
                "n/a" if self.diagonal_full_cycle is None else self.diagonal_full_cycle
            ),
            "sylow_cyclic_perm_group": self.sylow_cyclic_perm_group,
        }


def analyze(s: Solution) -> SolutionReport:
    G = permutation_group(s)
    inv = s.involutive
    return SolutionReport(
        size=s.size,
        involutive=inv,
        indecomposable=is_indecomposable(s),
        multipermutation_level=multipermutation_level(s) if inv else None,
        perm_group_order=G.order,
        diagonal_full_cycle=diagonal_is_full_cycle(s) if inv else None,
        sylow_cyclic_perm_group=groups.has_all_cyclic_sylows(G),
    )
