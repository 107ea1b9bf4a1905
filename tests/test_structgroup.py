from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from yangbaxter import solutions
from yangbaxter.structgroup import (
    AffineElement,
    RationalMatrix,
    SeriesGuess,
    affine_representation,
    ball_sizes,
    _bfs_sizes,
    ball_sizes_via_matrices,
    eval_word,
    generator_collapse,
    guess_rational_series,
    parse_word,
    promislow_matrix_generators,
    promislow_relations_hold,
    promislow_set,
    structure_presentation,
    upp_falsify,
)

# golden 5x5 generator matrices of the size-4 irretractable solution
GOLDEN_MATRICES = [
    ((0, 1, 0, 0, 1), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
    ((0, 0, 0, 1, 0), (0, 0, 1, 0, 1), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)),
    ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
    ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (1, 0, 0, 0, 1), (0, 0, 0, 0, 1)),
]

GOLDEN_BALL_SIZE4 = (1, 9, 41, 129)


# ---------------------------------------------------------------------------
# affine elements


def test_affine_multiplication_and_inverse():
    a = AffineElement((1, 0, 2), (3, -1, 0))
    b = AffineElement((2, 1, 0), (0, 5, 7))
    ident = AffineElement.identity(3)
    assert a * a.inverse() == ident
    assert a.inverse() * a == ident
    assert (a * b) * a == a * (b * a)


def test_affine_matrix_form_matches_multiplication():
    a = AffineElement((1, 2, 0), (1, 0, -2))
    b = AffineElement((0, 2, 1), (4, 4, 0))
    via_pairs = (a * b).to_matrix()

    def matmul(x, y):
        m = len(x)
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(m)) for j in range(m))
            for i in range(m)
        )

    assert via_pairs == matmul(a.to_matrix(), b.to_matrix())


def test_affine_representation_matches_golden_matrices(sol4_irr):
    gens = affine_representation(sol4_irr)
    assert [g.to_matrix() for g in gens] == GOLDEN_MATRICES


def test_affine_representation_trivial_solution_is_translations():
    gens = affine_representation(solutions.make_trivial(3))
    for i, g in enumerate(gens):
        assert g.perm_part == (0, 1, 2)
        assert g.trans_part == tuple(1 if j == i else 0 for j in range(3))


def test_affine_representation_satisfies_all_relations():
    c = (1, 0)
    s = solutions.make_permutation(c, c)
    gens = affine_representation(s)
    for x in range(2):
        for y in range(2):
            u, v = s.r(x, y)
            assert gens[x] * gens[y] == gens[u] * gens[v]


def test_affine_representation_rejects_noninvolutive(sol_3_noninvolutive):
    with pytest.raises(ValueError):
        affine_representation(sol_3_noninvolutive)


# ---------------------------------------------------------------------------
# words


def test_parse_word():
    assert parse_word("1 2'") == (1, -2)
    assert parse_word("3") == (3,)
    with pytest.raises(ValueError):
        parse_word("0")
    with pytest.raises(ValueError):
        parse_word("x")


def test_eval_word_inverse_cancellation(sol4_irr):
    gens = affine_representation(sol4_irr)
    ident = AffineElement.identity(4)
    assert eval_word(gens, (1, -1)) == ident
    assert eval_word(gens, ()) == ident
    for word in [(1, 2), (2, -3, 1), (4, 4, -2)]:
        g = eval_word(gens, word)
        inverse_word = tuple(-i for i in reversed(word))
        assert g * eval_word(gens, inverse_word) == ident


def test_eval_word_golden_and_relation(sol4_irr):
    gens = affine_representation(sol4_irr)
    g = eval_word(gens, parse_word("1 2'"))
    assert g == AffineElement((3, 2, 1, 0), (1, 0, -1, 0))
    # x1 x1 = x2 x4 is a structure relation
    assert eval_word(gens, (1, 1)) == eval_word(gens, (2, 4))


def test_eval_word_range_check(sol4_irr):
    gens = affine_representation(sol4_irr)
    with pytest.raises(ValueError):
        eval_word(gens, (5,))


# ---------------------------------------------------------------------------
# growth


def test_ball_sizes_line():
    g = ball_sizes(solutions.make_trivial(1), 6)
    assert g.values == (1, 3, 5, 7, 9, 11, 13)
    assert not g.truncated


def test_ball_sizes_diamond_lattice():
    g = ball_sizes(solutions.make_trivial(2), 5)
    assert g.values == tuple(2 * k * k + 2 * k + 1 for k in range(6))


def test_ball_sizes_size4_golden_and_cross_checked(sol4_irr):
    a = ball_sizes(sol4_irr, 3)
    b = ball_sizes_via_matrices(sol4_irr, 3)
    assert a.values == GOLDEN_BALL_SIZE4
    assert b.values == GOLDEN_BALL_SIZE4


def test_ball_sizes_struct_increasing(sol4_irr):
    vals = ball_sizes(sol4_irr, 4).values
    assert vals[0] == 1
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_ball_sizes_truncation_marker(sol4_irr):
    g = ball_sizes(sol4_irr, 5, max_elements=50)
    assert g.truncated
    assert g.values == (1, 9, 41)


def lattice_ball(n, k):
    """Points of Z^n at l1 distance <= k from 0."""
    return sum(2**j * comb(n, j) * comb(k, j) for j in range(n + 1))


def affine_bfs(s, radius, max_elements=2_000_000):
    """The ball search on one AffineElement per product: the oracle."""
    gens = affine_representation(s)
    moves = gens + [g.inverse() for g in gens]
    return _bfs_sizes(AffineElement.identity(s.size), moves, radius, max_elements)


def test_ball_sizes_are_lattice_balls(involutive_corpus):
    # the translation part is injective and, from every element, the 2n
    # moves reach all 2n unit vectors: the search finds the ball of Z^n
    assert len(involutive_corpus[5]) == 88
    for n in range(1, 6):
        want = tuple(lattice_ball(n, k) for k in range(6))
        for s in involutive_corpus[n]:
            assert affine_bfs(s, 5) == (want, False), s
            g = ball_sizes(s, 5)
            assert (g.values, g.truncated) == (want, False), s


def test_ball_sizes_matches_affine_bfs_on_small_classes(involutive_corpus):
    for n in range(1, 5):
        for s in involutive_corpus[n]:
            g = ball_sizes(s, 4)
            assert (g.values, g.truncated) == affine_bfs(s, 4), s


def test_ball_sizes_matches_affine_bfs_on_candidate(candidate):
    g = ball_sizes(candidate, 3)
    assert (g.values, g.truncated) == affine_bfs(candidate, 3)
    assert g.values == (1, 17, 145, 833)


@pytest.mark.parametrize(
    "cap, values, truncated",
    [
        (40, (1, 9), True),
        (41, (1, 9, 41), True),
        (50, (1, 9, 41), True),
        (128, (1, 9, 41), True),
        (129, (1, 9, 41, 129), False),
    ],
)
def test_ball_sizes_cap_matches_affine_bfs(sol4_irr, cap, values, truncated):
    # 41 and 129 are level sizes: a cap equal to one keeps the level
    g = ball_sizes(sol4_irr, 3, max_elements=cap)
    assert (g.values, g.truncated) == (values, truncated)
    assert affine_bfs(sol4_irr, 3, cap) == (values, truncated)


def test_positive_words_count_is_i_type(involutive_corpus):
    # the structure monoid is of I-type (Gateva-Ivanova--Van den Bergh 1998):
    # its degree-k part has as many elements as the monomials of degree k
    for n in range(1, 6):
        for s in involutive_corpus[n]:
            gens = affine_representation(s)
            for k in range(4):
                words = product(range(1, n + 1), repeat=k)
                elements = {eval_word(gens, w) for w in words}
                assert len(elements) == comb(n + k - 1, k), (s, k)


def test_cocycle_injectivity_within_ball(sol4_irr):
    gens = affine_representation(sol4_irr)
    moves = gens + [g.inverse() for g in gens]
    seen = {AffineElement.identity(4)}
    frontier = list(seen)
    for _ in range(3):
        new = []
        for el in frontier:
            for m in moves:
                nxt = el * m
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    assert len({e.trans_part for e in seen}) == len(seen)


# ---------------------------------------------------------------------------
# series guessing


def test_guess_odd_numbers():
    guess = guess_rational_series([1, 3, 5, 7, 9, 11])
    assert guess.numerator == (1, 1)
    assert guess.denominator == (1, -2, 1)


def test_guess_geometric():
    guess = guess_rational_series([1, 2, 4, 8, 16, 32])
    assert guess.numerator == (1,)
    assert guess.denominator == (1, -2)


def test_guess_lattice_growth():
    vals = ball_sizes(solutions.make_trivial(2), 6).values
    guess = guess_rational_series(vals)
    assert guess.numerator == (1, 2, 1)
    assert guess.denominator == (1, -3, 3, -1)
    assert guess.expand(len(vals)) == list(vals)


def test_guess_requires_six_values():
    with pytest.raises(ValueError):
        guess_rational_series([1, 2, 3])


def test_guess_none_for_factorials():
    from math import factorial

    assert guess_rational_series([factorial(k) for k in range(8)]) is None
    assert guess_rational_series([factorial(k) for k in range(12)]) is None


def test_guess_reexpands_on_size4(sol4_irr):
    vals = ball_sizes(sol4_irr, 10).values
    guess = guess_rational_series(vals)
    # (1 + t)^4 / (1 - t)^5, the growth series of Z^4
    assert guess.numerator == (1, 4, 6, 4, 1)
    assert guess.denominator == (1, -5, 10, -10, 5, -1)
    assert guess.expand(len(vals)) == list(vals)


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_guess_divides_out_a_common_factor():
    # (1 + 2t)(1 + t) / ((1 + 2t)(1 - 2t + t^2)) is the odd numbers again
    p, q = _times([1, 1], [1, 2]), _times([1, -2, 1], [1, 2])
    vals = SeriesGuess(tuple(p), tuple(q)).expand(10)
    assert vals == [1, 3, 5, 7, 9, 11, 13, 15, 17, 19]
    guess = guess_rational_series(vals)
    assert (guess.numerator, guess.denominator) == ((1, 1), (1, -2, 1))


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=5)


@st.composite
def series_values(draw):
    # the first 6..20 coefficients of a random p/q with q(0) = 1, sometimes
    # with a common factor 1 + a t, or arbitrary small integers
    count = draw(st.integers(6, 20))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
    p, q = draw(small_polys), [1] + draw(small_polys)
    if draw(st.booleans()):
        factor = [1, draw(st.integers(-3, 3))]
        p, q = _times(p, factor), _times(q, factor)
    return SeriesGuess(tuple(p), tuple(q)).expand(count)


@settings(max_examples=300, deadline=None)
@given(vals=series_values())
def test_guess_matches_the_linear_solves(vals):
    assert guess_rational_series(vals) == oracles.guess_by_linear_solves(vals)


# ---------------------------------------------------------------------------
# Promislow suite


def test_promislow_matrices_satisfy_presentation():
    x, y = promislow_matrix_generators()
    assert promislow_relations_hold(x, y)


def test_promislow_matrix_set_falsifies_upp():
    x, y = promislow_matrix_generators()
    S = promislow_set(x, y)
    assert len(S) == 14
    verdict = upp_falsify(S)
    assert verdict.falsified
    assert verdict.unique_products == ()


def test_promislow_words_in_size4_structure_group(sol4_irr):
    gens = affine_representation(sol4_irr)
    x = eval_word(gens, parse_word("1 2'"))
    y = eval_word(gens, parse_word("1 3'"))
    assert promislow_relations_hold(x, y)
    S = promislow_set(x, y)
    assert len(S) == 14
    assert upp_falsify(S).falsified


def test_upp_singleton_has_unique_product():
    verdict = upp_falsify([AffineElement.identity(2)])
    assert not verdict.falsified
    assert len(verdict.unique_products) == 1


def test_promislow_identity_collapses():
    e = AffineElement.identity(2)
    assert promislow_set(e, e) == [e]
    assert promislow_relations_hold(e, e)


def test_candidate_words_do_not_falsify(candidate):
    gens = affine_representation(candidate)
    x = eval_word(gens, parse_word("1 2'"))
    y = eval_word(gens, parse_word("1 3'"))
    verdict = upp_falsify(promislow_set(x, y))
    assert not verdict.falsified
    assert len(verdict.unique_products) > 0


def test_rational_matrix_arithmetic():
    x, y = promislow_matrix_generators()
    ident = RationalMatrix.identity(4)
    assert x * x.inverse() == ident
    assert (x * y).inverse() == y.inverse() * x.inverse()
    assert x.rows[2][3] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# presentations


def test_structure_presentation_size4(sol4_irr):
    pres = structure_presentation(sol4_irr)
    rels = {frozenset((lhs, rhs)) for lhs, rhs in pres.relations}
    expected = {
        frozenset((((1, 1)), ((2, 4)))),
        frozenset((((1, 3)), ((3, 1)))),
        frozenset((((1, 4)), ((4, 3)))),
        frozenset((((2, 1)), ((3, 2)))),
        frozenset((((2, 2)), ((4, 4)))),
        frozenset((((3, 3)), ((4, 2)))),
    }
    assert rels == expected


def test_structure_presentation_trivial_commutes():
    pres = structure_presentation(solutions.make_trivial(3))
    for lhs, rhs in pres.relations:
        assert lhs == (rhs[1], rhs[0])
    assert generator_collapse(pres) == [[1], [2], [3]]


def test_generator_collapse_merges_shifted_pair():
    from yangbaxter import perms

    s = solutions.make_permutation(
        perms.from_cycles("(12)", 4), perms.from_cycles("(34)", 4)
    )
    part = generator_collapse(structure_presentation(s))
    merged = [block for block in part if len(block) > 1]
    assert [1, 2] in merged
