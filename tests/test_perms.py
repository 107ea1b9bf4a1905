import itertools

import pytest
from hypothesis import given, settings, strategies as st
from oracles import smaller_relabeling_brute

from yangbaxter import perms


def test_compose_applies_right_factor_first():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert perms.compose(p, q) == tuple(p[q[i]] for i in range(3))


def test_invert_round_trip():
    p = (2, 0, 3, 1)
    assert perms.compose(p, perms.invert(p)) == perms.identity(4)
    assert perms.compose(perms.invert(p), p) == perms.identity(4)


@pytest.mark.parametrize(
    "text,n,expected",
    [
        ("(12)", 4, (1, 0, 2, 3)),
        ("(1 2)(3 4)", 4, (1, 0, 3, 2)),
        ("(1324)", 4, (2, 3, 1, 0)),
        ("id", 3, (0, 1, 2)),
        ("(13872465)", 8, (2, 3, 7, 5, 0, 4, 1, 6)),
    ],
)
def test_from_cycles(text, n, expected):
    assert perms.from_cycles(text, n) == expected


def test_from_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        perms.from_cycles("(12", 4)
    with pytest.raises(ValueError):
        perms.from_cycles("(15)", 4)
    with pytest.raises(ValueError):
        perms.from_cycles("(11)", 4)


def test_cycle_round_trip():
    p = perms.from_cycles("(1 3)(2 5 4)", 6)
    assert perms.from_cycles(perms.to_cycles(p), 6) == p


def test_cycle_type_counts_fixed_points():
    assert perms.cycle_type((1, 0, 2, 3)) == (1, 1, 2)
    assert perms.cycle_type((0, 1, 2)) == (1, 1, 1)


def test_full_cycle_detection():
    assert perms.is_full_cycle((1, 2, 3, 0))
    assert not perms.is_full_cycle((1, 0, 3, 2))
    assert perms.is_full_cycle((0,))


def test_all_perms_lex_order_identity_first():
    ps = perms.all_perms(3)
    assert len(ps) == 6
    assert ps[0] == (0, 1, 2)
    assert ps == sorted(ps)


def test_relabel_table_moves_entries_along_f():
    table = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    f = (1, 2, 0)
    moved = perms.relabel_table(table, f)
    assert all(moved[f[i]][f[j]] == f[table[i][j]] for i in range(3) for j in range(3))
    assert perms.relabel_table(moved, perms.invert(f)) == table


@st.composite
def table_pairs(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    square = st.lists(row, min_size=n, max_size=n).map(tuple)
    return draw(square), draw(square)


@settings(max_examples=150, deadline=None)
@given(
    tables=table_pairs(),
    k=st.integers(0, 1),
    identity_rows=st.tuples(st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3))),
)
def test_lex_min_relabeling_matches_unpruned_minimum(tables, k, identity_rows):
    n = len(tables[0])
    # identity rows read 0..n-1 under every relabeling, so the search defers
    # their column labels
    tables = tuple(
        tuple(tuple(range(n)) if i in rows else row for i, row in enumerate(t))
        for t, rows in zip(tables, identity_rows)
    )

    def flat(f):
        moved = [perms.relabel_table(t, f) for t in tables]
        return bytes(v for t in moved for row in t for v in row)

    relabelings = [f for f in perms.all_perms(n) if f[:k] == tuple(range(k))]
    best, g = perms.least_relabeling(tables, k)
    assert best == min(flat(f) for f in relabelings)
    assert g in relabelings
    assert flat(g) == best


def test_least_relabeling_rejects_sizes_above_255():
    row = tuple(range(256))
    with pytest.raises(ValueError):
        perms.least_relabeling(((row,) * 256,))


@st.composite
def isomorphism_cases(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple)
    square = st.lists(row, min_size=n, max_size=n).map(tuple)
    src = tuple(draw(square) for _ in range(draw(st.integers(1, 2))))
    if draw(st.booleans()):
        # a relabelled copy, so that some isomorphism exists
        f = draw(st.permutations(range(n)))
        return src, tuple(perms.relabel_table(t, f) for t in src)
    return src, tuple(draw(square) for _ in src)


@settings(max_examples=200, deadline=None)
@given(case=isomorphism_cases())
def test_table_isomorphisms_match_brute_force(case):
    src, dst = case
    n = len(src[0])
    want = [
        f
        for f in itertools.permutations(range(n))
        if all(
            f[a[x][y]] == b[f[x]][f[y]]
            for a, b in zip(src, dst)
            for x in range(n)
            for y in range(n)
        )
    ]
    keys = [0] * n
    assert list(perms.table_isomorphisms(src, dst, keys, keys)) == want

    # idempotents map to idempotents, so keying on them loses nothing
    def idempotents(tables):
        return [tuple(t[x][x] == x for t in tables) for x in range(n)]

    found = perms.table_isomorphisms(src, dst, idempotents(src), idempotents(dst))
    assert list(found) == want


def test_table_isomorphisms_check_the_complete_map():
    # f = (1, 0) fails only on the pair (0, 0): its product 1 has no image
    # yet when 0 is placed, so it must be checked when 1 is, where
    # f[a[0][0]] = 0 != b[1][1] = 1
    a, b = ((1, 1), (1, 1)), ((0, 0), (0, 1))
    assert list(perms.table_isomorphisms((a,), (b,), [0, 0], [0, 0])) == []


def test_table_isomorphisms_map_points_only_to_equal_keys():
    table = ((0, 0), (1, 1))  # x * y = x: every bijection respects it
    assert list(perms.table_isomorphisms((table,), (table,), [0, 1], [1, 0])) == [(1, 0)]
    assert list(perms.table_isomorphisms((table,), (table,), [0, 1], [1, 1])) == []


@st.composite
def permutation_table(draw):
    n = draw(st.integers(1, 4))
    # rows from a small pool, so that relabelings often tie on a row
    pool = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(table=permutation_table())
def test_has_smaller_relabeling_matches_brute_force(table):
    # both cases: the branch and bound, and the same relabelings listed
    n = len(table)
    for k in range(n + 1):
        rows = table[:k]
        expected = smaller_relabeling_brute((rows,))
        assert perms.has_smaller_relabeling(rows) == expected
        group = [
            (low + high, perms.invert(low + high))
            for low in itertools.permutations(range(k))
            for high in itertools.permutations(range(k, n))
        ]
        assert perms.has_smaller_relabeling(rows, group) == expected


def test_has_smaller_relabeling_keeps_the_first_k_points_together():
    # swapping 0 and 1 puts the smaller row 1 first, but at k = 1 the
    # relabeling must fix point 0
    rows = [(0, 2, 1), (0, 1, 2)]
    assert not perms.has_smaller_relabeling(rows[:1])
    assert perms.has_smaller_relabeling(rows)


def test_tables_from_bytes_checks_the_shape():
    pair = (((0, 1), (2, 3)), ((4, 5), (6, 7)))
    assert perms.tables_from_bytes(bytes(range(8)), 2) == pair
    with pytest.raises(ValueError):
        perms.tables_from_bytes(bytes(7), 2)
