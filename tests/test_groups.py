import time

import pytest
from oracles import is_powerful, is_solvable

from yangbaxter import groups, perms
from yangbaxter.groups import GroupSizeError


def test_generate_symmetric_group_of_order_6():
    G = groups.generate({(1, 0, 2), (1, 2, 0)})
    assert G.order == 6


def test_generate_identity_only():
    G = groups.generate({(0, 1, 2)})
    assert G.order == 1


def test_generate_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        groups.generate({(1, 0), (1, 2, 0)})


def test_generate_is_idempotent():
    G = groups.generate({(1, 0, 2, 3), (1, 2, 3, 0)})
    regenerated = groups.generate(set(G.perms))
    assert regenerated.order == G.order


def test_generated_tables_satisfy_group_axioms():
    for G in (
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.quaternion_group(),
        groups.cyclic_group(6),
    ):
        assert groups.table_diagnostic(G.table) is None
        for a in G.elements():
            assert G.table[a][G.inv[a]] == 0
            assert G.table[0][a] == a and G.table[a][0] == a


def test_generate_respects_size_cap(monkeypatch):
    monkeypatch.setattr(groups, "MAX_GENERATED_ORDER", 10)
    with pytest.raises(GroupSizeError):
        groups.generate({(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)})


def test_generate_stops_before_a_table_too_large_to_build():
    # Sym(8) closes at 40,320 elements, whose table would hold 1.6e9 entries
    start = time.perf_counter()
    with pytest.raises(GroupSizeError):
        groups.symmetric_group(8)
    assert time.perf_counter() - start < 1


def test_transitivity():
    assert groups.is_transitive({(1, 2, 3, 0)}, 4)
    assert not groups.is_transitive({(1, 0, 2)}, 3)


def test_transitivity_matches_orbit_partition():
    # union-find over the generator action must give one block exactly when
    # is_transitive says so
    cases = [
        ({(1, 0, 2, 3), (0, 1, 3, 2)}, 4),
        ({(1, 2, 0, 3)}, 4),
        ({(1, 2, 3, 0)}, 4),
    ]
    for gens, n in cases:
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for g in gens:
            for x in range(n):
                rx, ry = find(x), find(g[x])
                if rx != ry:
                    parent[rx] = ry
        blocks = len({find(x) for x in range(n)})
        assert groups.is_transitive(gens, n) == (blocks == 1)


def test_exponent():
    assert groups.exponent(groups.symmetric_group(3)) == 6
    assert groups.exponent(groups.cyclic_group(4)) == 4
    assert groups.exponent(groups.trivial_group()) == 1


def test_exponent_divides_order():
    for G in (
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.quaternion_group(),
        groups.abelian_group(2, 4),
    ):
        assert G.order % groups.exponent(G) == 0


def test_quotient_exponent_mod_center():
    assert groups.quotient_exponent_mod_center(groups.abelian_group(2, 2)) == 1
    assert groups.quotient_exponent_mod_center(groups.cyclic_group(12)) == 1
    # trivial center leaves the group unchanged
    assert groups.quotient_exponent_mod_center(groups.symmetric_group(3)) == 6
    # center of order 2, quotient is the Klein four group
    assert groups.quotient_exponent_mod_center(groups.dihedral_group(4)) == 2


def test_quotient_exponent_divides_exponent():
    for G in (
        groups.symmetric_group(3),
        groups.dihedral_group(4),
        groups.quaternion_group(),
    ):
        assert groups.exponent(G) % groups.quotient_exponent_mod_center(G) == 0


def test_solvability():
    assert is_solvable(groups.symmetric_group(3))
    assert is_solvable(groups.abelian_group(2, 2, 2))
    A5 = groups.generate(
        {perms.from_cycles("(123)", 5), perms.from_cycles("(12345)", 5)}
    )
    assert A5.order == 60
    assert not is_solvable(A5)


def test_cyclic_sylow_detection():
    assert groups.has_all_cyclic_sylows(groups.symmetric_group(3))
    assert not groups.has_all_cyclic_sylows(groups.abelian_group(2, 2))
    assert groups.has_all_cyclic_sylows(groups.cyclic_group(12))


def test_powerful_p_groups():
    assert is_powerful(groups.cyclic_group(4), 2)
    assert is_powerful(groups.abelian_group(2, 2, 2), 2)
    # fourth powers collapse, the quotient is the whole nonabelian group
    assert not is_powerful(groups.quaternion_group(), 2)
    assert not is_powerful(groups.dihedral_group(4), 2)
    assert is_powerful(groups.cyclic_group(9), 3)
    with pytest.raises(ValueError):
        is_powerful(groups.symmetric_group(3), 2)


def test_groups_of_order_are_pairwise_nonisomorphic():
    # the classical group counts 1,1,1,2,1,2,1,5 for n = 1..8
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
    for n, count in expected.items():
        gs = groups.groups_of_order(n)
        assert len(gs) == count
        canon = set()
        for G in gs:
            assert G.order == n
            assert groups.table_diagnostic(G.table) is None
            canon.add(_table_canonical(G))
        assert len(canon) == count


def _table_canonical(G):
    import itertools

    best = None
    n = G.order
    for rest in itertools.permutations(range(1, n)):
        f = (0,) + rest
        finv = [0] * n
        for i, v in enumerate(f):
            finv[v] = i
        flat = tuple(
            f[G.table[finv[i]][finv[j]]] for i in range(n) for j in range(n)
        )
        if best is None or flat < best:
            best = flat
    return best


def test_automorphism_counts():
    assert len(groups.automorphisms(groups.cyclic_group(4))) == 2
    assert len(groups.automorphisms(groups.abelian_group(2, 2))) == 6
    assert len(groups.automorphisms(groups.symmetric_group(3))) == 6
    assert len(groups.automorphisms(groups.quaternion_group())) == 24
