"""Finite groups as multiplication tables on {0, ..., order-1} with identity 0.

The closure engine turns a set of permutations into a concrete table; the
rest of the module computes the structural predicates needed elsewhere:
transitivity, exponent, center quotients and Sylow cyclicity.  Everything
is immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .perms import (
    Perm,
    cayley_table,
    compose,
    identity as identity_perm,
    invert,
    table_isomorphisms,
)

MAX_GENERATED_ORDER = 5040  # |Sym(7)|: a 25 M-entry table, 7 s and 0.21 GB


class GroupSizeError(ValueError):
    """Closure would exceed MAX_GENERATED_ORDER elements, whose |G|^2 table
    would not fit: Sym(8)'s would hold 1.6e9 entries, over 10 GB."""


class NotAGroupError(ValueError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def table_diagnostic(table) -> str | None:
    """First group-axiom failure of a square index table with identity 0, or None."""
    n = len(table)
    if n == 0:
        return "empty table"
    for a in range(n):
        if len(table[a]) != n:
            return f"row {a} has length {len(table[a])}, expected {n}"
        for b in range(n):
            v = table[a][b]
            if not isinstance(v, int) or not 0 <= v < n:
                return f"entry ({a},{b}) = {v!r} out of range"
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            return f"0 is not an identity at element {a}"
    for a in range(n):
        if all(table[a][b] != 0 for b in range(n)):
            return f"element {a} has no right inverse"
        for b in range(n):
            if table[a][b] == 0 and table[b][a] != 0:
                return f"one-sided inverse at ({a},{b})"
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"not associative at ({a},{b},{c})"
    return None


def table_identity(table) -> int | None:
    """The two-sided identity of a square table, or None.

    A table has at most one, so two calls tell whether two tables share it.
    """
    n = len(table)
    for e in range(n):
        try:
            if all(table[e][a] == a and table[a][e] == a for a in range(n)):
                return e
        except (IndexError, TypeError):
            return None
    return None


def table_inverses(table) -> tuple[int, ...]:
    """For each a, the first b with table[a][b] = 0, the identity."""
    return tuple(row.index(0) for row in table)


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table with identity 0 and precomputed inverses.

    `perms` optionally records the faithful permutation action the group was
    generated from (element i acts as perms[i]).
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    perms: tuple[Perm, ...] | None = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    @cached_property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.order) for b in range(a))


def from_table(table) -> FiniteGroup:
    """Validate an explicit multiplication table and wrap it."""
    reason = table_diagnostic(table)
    if reason is not None:
        raise NotAGroupError(reason)
    rows = tuple(tuple(row) for row in table)
    return FiniteGroup(len(rows), rows, table_inverses(rows))


def generate(generators, degree: int | None = None) -> FiniteGroup:
    """Close a set of permutations under composition; `perms.cayley_table` tabulates it.

    Elements receive indices in breadth-first discovery order starting from
    the identity, with the generators visited in lexicographic order; the
    resulting numbering is deterministic.
    """
    gens = sorted(set(tuple(g) for g in generators))
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generator set")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different numbers of points")
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation: {g}")

    ident = identity_perm(degree)
    elements: list[Perm] = [ident]
    index: dict[Perm, int] = {ident: 0}
    head = 0
    while head < len(elements):
        cur = elements[head]
        head += 1
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in index:
                if len(elements) >= MAX_GENERATED_ORDER:
                    raise GroupSizeError(
                        f"closure exceeds {MAX_GENERATED_ORDER} elements, too many to tabulate"
                    )
                index[nxt] = len(elements)
                elements.append(nxt)

    inv = tuple(index[invert(a)] for a in elements)
    return FiniteGroup(len(elements), cayley_table(elements), inv, perms=tuple(elements))


def orbit(generators, point: int) -> set[int]:
    seen = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for g in generators:
            y = g[x]
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def is_transitive(generators, degree: int) -> bool:
    """True iff the generated group has a single orbit on 0..degree-1."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    gens = [tuple(g) for g in generators]
    if any(len(g) != degree for g in gens):
        raise ValueError("generators act on different numbers of points")
    return len(orbit(gens, 0)) == degree


def element_orders(G: FiniteGroup) -> list[int]:
    return [G.element_order(a) for a in G.elements()]


def exponent(G: FiniteGroup) -> int:
    return math.lcm(*element_orders(G))


def center(G: FiniteGroup) -> list[int]:
    t = G.table
    return [
        a
        for a in G.elements()
        if all(t[a][b] == t[b][a] for b in G.elements())
    ]


def closure(G: FiniteGroup, seed) -> frozenset[int]:
    """Subgroup generated by `seed` inside G (indices)."""
    members = {0} | set(seed)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (G.table[a][b], G.table[b][a]):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    return frozenset(members)


def is_normal(G: FiniteGroup, members) -> bool:
    m = set(members)
    t = G.table
    return all(
        t[t[g][h]][G.inv[g]] in m for g in G.elements() for h in m
    )


def quotient(G: FiniteGroup, normal_members) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets indexed by least member order."""
    members = sorted(set(normal_members))
    if not is_normal(G, members):
        raise ValueError("subset is not a normal subgroup")
    coset_of = [-1] * G.order
    reps: list[int] = []
    for a in G.elements():
        if coset_of[a] != -1:
            continue
        cid = len(reps)
        reps.append(a)
        for h in members:
            coset_of[G.table[a][h]] = cid
    m = len(reps)
    table = tuple(
        tuple(coset_of[G.table[ra][rb]] for rb in reps) for ra in reps
    )
    inv = tuple(coset_of[G.inv[r]] for r in reps)
    return FiniteGroup(m, table, inv)


def quotient_exponent_mod_center(G: FiniteGroup) -> int:
    return exponent(quotient(G, center(G)))


def has_all_cyclic_sylows(G: FiniteGroup) -> bool:
    """For each prime p | |G|, some element realizes the full p-part of |G|.

    Such an element generates a Sylow p-subgroup, which is therefore cyclic;
    by Sylow conjugacy all of them are.
    """
    orders = set(element_orders(G))
    n = G.order
    for p in _prime_factors(n):
        part = 1
        m = n
        while m % p == 0:
            part *= p
            m //= p
        if part not in orders:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Stock groups, used by tests and by the brace enumeration.

def trivial_group() -> FiniteGroup:
    return FiniteGroup(1, ((0,),), (0,))


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteGroup(n, table, inv)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    n = G.order * H.order

    def enc(a: int, b: int) -> int:
        return a * H.order + b

    table = tuple(
        tuple(
            enc(G.table[a1][a2], H.table[b1][b2])
            for a2 in G.elements()
            for b2 in H.elements()
        )
        for a1 in G.elements()
        for b1 in H.elements()
    )
    inv = tuple(
        enc(G.inv[a], H.inv[b]) for a in G.elements() for b in H.elements()
    )
    return FiniteGroup(n, table, inv)


def abelian_group(*cycle_sizes: int) -> FiniteGroup:
    G = cyclic_group(cycle_sizes[0])
    for m in cycle_sizes[1:]:
        G = direct_product(G, cyclic_group(m))
    return G


def symmetric_group(n: int) -> FiniteGroup:
    if n == 1:
        return trivial_group()
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple(list(range(1, n)) + [0])
    return generate({swap, cyc}, degree=n)


def dihedral_group(k: int) -> FiniteGroup:
    """Dihedral group of order 2k acting on k points (k >= 3)."""
    if k < 3:
        raise ValueError("dihedral_group needs k >= 3")
    rot = tuple(list(range(1, k)) + [0])
    refl = tuple((-i) % k for i in range(k))
    return generate({rot, refl}, degree=k)


def quaternion_group() -> FiniteGroup:
    """Quaternion group of order 8; elements 2*basis + sign over 1, i, j, k."""
    basis_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (2, 0): (2, 0), (3, 0): (3, 0),
        (1, 1): (0, 1), (2, 2): (0, 1), (3, 3): (0, 1),
        (1, 2): (3, 0), (2, 1): (3, 1),
        (2, 3): (1, 0), (3, 2): (1, 1),
        (3, 1): (2, 0), (1, 3): (2, 1),
    }

    def mul(x: int, y: int) -> int:
        bx, sx = divmod(x, 2)
        by, sy = divmod(y, 2)
        bz, sz = basis_mul[(bx, by)]
        return bz * 2 + (sx ^ sy ^ sz)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    return from_table(table)


def groups_of_order(n: int) -> list[FiniteGroup]:
    """All groups of order n <= 8, one per isomorphism class."""
    if n < 1 or n > 8:
        raise ValueError("groups_of_order is tabulated for n <= 8 only")
    stock = {
        1: [trivial_group()],
        2: [cyclic_group(2)],
        3: [cyclic_group(3)],
        4: [cyclic_group(4), abelian_group(2, 2)],
        5: [cyclic_group(5)],
        6: [cyclic_group(6), dihedral_group(3)],
        7: [cyclic_group(7)],
        8: [
            cyclic_group(8),
            abelian_group(4, 2),
            abelian_group(2, 2, 2),
            dihedral_group(4),
            quaternion_group(),
        ],
    }
    return stock[n]


def automorphisms(G: FiniteGroup) -> list[Perm]:
    """All automorphisms of G in lexicographic order; element orders prune
    the images, and fix 0, the only element of order 1."""
    orders = element_orders(G)
    return list(table_isomorphisms((G.table,), (G.table,), orders, orders))
