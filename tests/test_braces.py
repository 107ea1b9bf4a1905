from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from oracles import is_solvable, star_forms_radical_ring

from yangbaxter import braces, groups
from yangbaxter.braces import (
    BraceIdeal,
    InvalidBraceError,
    InvalidRingError,
    associated_solution,
    brace_canonical_form,
    brace_from_radical_ring,
    find_brace_isomorphism,
    make_almost_trivial_brace,
    make_exact_factorization,
    make_trivial_brace,
    mod4_radical_ring,
    right_nilpotency,
    ring_from_two_sided,
    solution_order_check,
    strictly_upper_triangular_ring,
    verify_brace,
)
from yangbaxter.perms import relabel_table


@pytest.fixture(scope="module")
def S3():
    return groups.symmetric_group(3)


@pytest.fixture(scope="module")
def mod4_brace():
    return brace_from_radical_ring(mod4_radical_ring())


# ---------------------------------------------------------------------------
# verification


def test_trivial_brace_on_z4():
    Z4 = groups.cyclic_group(4)
    A = make_trivial_brace(Z4)
    assert A.add == A.mul


def test_almost_trivial_brace_on_s3(S3):
    A = make_almost_trivial_brace(S3)
    assert all(
        A.mul[a][b] == A.add[b][a] for a in range(6) for b in range(6)
    )


def test_verify_brace_rejects_non_group_mul():
    Z2 = groups.cyclic_group(2)
    with pytest.raises(InvalidBraceError) as exc:
        verify_brace(Z2.table, ((0, 0), (0, 0)))
    assert exc.value.diagnostic.condition == "multiplicative-group"


def test_verify_brace_reports_identity_mismatch():
    Z2 = groups.cyclic_group(2)
    # multiplication table whose identity is 1, not 0
    with pytest.raises(InvalidBraceError) as exc:
        verify_brace(Z2.table, ((1, 0), (0, 1)))
    assert exc.value.diagnostic.condition == "identity-mismatch"


def test_verify_brace_reports_compatibility_failure():
    # a Z4 multiplication relabeled through (1 2) against the untouched
    # addition: both are groups with identity 0, but compatibility breaks
    Z4 = groups.cyclic_group(4)
    f = (0, 2, 1, 3)
    mul = tuple(
        tuple(f[Z4.table[f[i]][f[j]]] for j in range(4)) for i in range(4)
    )
    with pytest.raises(InvalidBraceError) as exc:
        verify_brace(Z4.table, mul)
    assert exc.value.diagnostic.condition == "compatibility"
    assert exc.value.diagnostic.witness is not None


def test_z4_addition_with_klein_multiplication_is_a_brace():
    # the natural tables of Z/4 and the Klein four group happen to satisfy
    # compatibility, giving a brace whose two groups are non-isomorphic
    A = verify_brace(
        groups.cyclic_group(4).table, groups.abelian_group(2, 2).table
    )
    assert A.is_abelian_type


# ---------------------------------------------------------------------------
# lambda and star structure


def test_lambda_trivial_brace_is_identity():
    A = make_trivial_brace(groups.cyclic_group(5))
    for a in range(5):
        assert A.lam(a) == tuple(range(5))


def test_lambda_mod4(mod4_brace):
    # b -> b + 2ab; for a = 1 this is b -> 3b, swapping 1 and 3
    assert mod4_brace.lam(1) == (0, 3, 2, 1)


def test_lambda_almost_trivial_is_conjugation(S3):
    A = make_almost_trivial_brace(S3)
    for a in range(6):
        na = A.neg[a]
        expected = tuple(
            A.add[A.add[na][b]][a] for b in range(6)
        )
        assert A.lam(a) == expected


def test_star_values(mod4_brace):
    assert mod4_brace.star(1, 1) == 2  # 2ab mod 4
    A = make_trivial_brace(groups.cyclic_group(4))
    assert all(A.star(a, b) == 0 for a in range(4) for b in range(4))
    assert all(mod4_brace.star(0, b) == 0 for b in range(4))


# ---------------------------------------------------------------------------
# exact factorizations


def test_exact_factorization_s3(S3):
    rot = [i for i, p in enumerate(S3.perms) if p in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}]
    swap = [i for i, p in enumerate(S3.perms) if p in {(0, 1, 2), (1, 0, 2)}]
    A = make_exact_factorization(S3, rot, swap)
    assert A.size == 6
    # multiplicative group is C3 x C2, cyclic of order 6
    assert groups.exponent(braces.multiplicative_group(A)) == 6


def test_exact_factorization_degenerate_cases(S3):
    whole = list(range(6))
    A = make_exact_factorization(S3, whole, [0])
    assert A.add == A.mul  # trivial brace
    B = make_exact_factorization(S3, [0], whole)
    almost = make_almost_trivial_brace(S3)
    assert B.mul == almost.mul


def test_exact_factorization_rejects_overlap(S3):
    rot = [i for i, p in enumerate(S3.perms) if p in {(0, 1, 2), (1, 2, 0), (2, 0, 1)}]
    with pytest.raises(ValueError):
        make_exact_factorization(S3, rot, rot)


# ---------------------------------------------------------------------------
# radical rings


def test_mod4_ring_round_trip(mod4_brace):
    R = mod4_radical_ring()
    A = brace_from_radical_ring(R)
    assert braces.is_two_sided(A)
    assert A.is_abelian_type
    back = ring_from_two_sided(A)
    assert back.add == R.add and back.prod == R.prod


def test_upper_triangular_ring_brace():
    R = strictly_upper_triangular_ring(2)
    assert R.size == 8
    A = brace_from_radical_ring(R)
    assert A.size == 8
    back = ring_from_two_sided(A)
    assert back.prod == R.prod


def test_non_radical_ring_rejected():
    # Z/2 with product xy = xy (unital: 1*1 = 1) has 1 o 1 = 1, not a group law
    add = ((0, 1), (1, 0))
    prod = ((0, 0), (0, 1))
    R = braces.verify_ring(2, add, prod)
    assert not braces.is_radical_ring(R)
    with pytest.raises(InvalidRingError):
        brace_from_radical_ring(R)


def test_ring_from_one_sided_brace_rejected(S3):
    A = make_almost_trivial_brace(S3)  # two-sided but not abelian type
    with pytest.raises(InvalidBraceError):
        ring_from_two_sided(A)


def test_two_sidedness(S3, mod4_brace):
    assert braces.is_two_sided(make_trivial_brace(groups.cyclic_group(4)))
    assert braces.is_two_sided(make_almost_trivial_brace(S3))
    assert braces.is_two_sided(mod4_brace)


def test_star_associativity_and_radical_star(mod4_brace):
    T = make_trivial_brace(groups.cyclic_group(4))
    assert braces.is_star_associative(T)
    assert star_forms_radical_ring(T)  # the zero ring is radical
    assert braces.is_star_associative(mod4_brace)
    assert star_forms_radical_ring(mod4_brace)


def test_star_radical_check_rejects_wrong_type(S3):
    with pytest.raises(ValueError):
        star_forms_radical_ring(make_almost_trivial_brace(S3))


# ---------------------------------------------------------------------------
# ideals


def test_socle_and_annihilator_trivial_abelian():
    A = make_trivial_brace(groups.cyclic_group(4))
    assert braces.socle(A).members == (0, 1, 2, 3)
    assert braces.annihilator(A).members == (0, 1, 2, 3)


def test_socle_almost_trivial_s3(S3):
    A = make_almost_trivial_brace(S3)
    assert braces.socle(A).members == (0,)
    assert braces.annihilator(A).members == (0,)


def test_is_ideal_and_quotient(mod4_brace):
    assert braces.is_ideal(mod4_brace, [0, 2])
    Q = braces.quotient_brace(mod4_brace, BraceIdeal((0, 2)))
    assert Q.size == 2
    assert not braces.is_ideal(mod4_brace, [0, 1])
    with pytest.raises(ValueError):
        braces.quotient_brace(mod4_brace, [0, 1])


def test_quotient_is_a_homomorphic_image_on_every_ideal(brace_corpus):
    # the cosets are read off a o I directly, numbered by least member
    checked = 0
    for A in (A for n in range(1, 9) for A in brace_corpus[n]):
        for k in range(A.size):
            for rest in combinations(range(1, A.size), k):
                ideal = (0, *rest)
                if not braces.is_ideal(A, ideal):
                    continue
                cosets = {min(A.mul[a][h] for h in ideal) for a in range(A.size)}
                label = {least: i for i, least in enumerate(sorted(cosets))}
                f = [label[min(A.mul[a][h] for h in ideal)] for a in range(A.size)]
                assert all(f[A.add[a][h]] == f[a] for a in range(A.size) for h in ideal)
                Q = braces.quotient_brace(A, ideal)
                assert Q.size == len(cosets) == A.size // len(ideal)
                for a in range(A.size):
                    for b in range(A.size):
                        assert f[A.add[a][b]] == Q.add[f[a]][f[b]]
                        assert f[A.mul[a][b]] == Q.mul[f[a]][f[b]]
                checked += 1
    assert checked == 310


# ---------------------------------------------------------------------------
# right nilpotency


def test_right_nilpotency(mod4_brace, S3):
    assert right_nilpotency(make_trivial_brace(groups.cyclic_group(4))) == 2
    assert right_nilpotency(mod4_brace) == 3
    assert right_nilpotency(make_almost_trivial_brace(S3)) is None
    zero = make_trivial_brace(groups.trivial_group())
    assert right_nilpotency(zero) == 1


# ---------------------------------------------------------------------------
# the associated solution


def test_solution_of_trivial_abelian_brace():
    A = make_trivial_brace(groups.cyclic_group(4))
    s = associated_solution(A)
    ident = tuple(range(4))
    assert all(row == ident for row in s.sigma)
    assert all(row == ident for row in s.tau)


def test_solution_of_mod4_brace(mod4_brace):
    s = associated_solution(mod4_brace)
    assert s.size == 4
    assert s.involutive


def test_solution_of_almost_trivial_s3(S3):
    s = associated_solution(make_almost_trivial_brace(S3))
    assert s.size == 6
    assert not s.involutive


def test_solution_involutive_iff_abelian_type(brace_corpus):
    for classes in brace_corpus.values():
        for A in classes:
            s = associated_solution(A)
            assert s.involutive == A.is_abelian_type


def test_r_order_instances(S3):
    m, p = solution_order_check(make_trivial_brace(S3))
    assert (m, p) == (12, 12)
    m, p = solution_order_check(make_trivial_brace(groups.dihedral_group(4)))
    assert (m, p) == (4, 4)
    m, p = solution_order_check(make_trivial_brace(groups.cyclic_group(5)))
    assert (m, p) == (2, 2)
    with pytest.raises(ValueError):
        solution_order_check(make_trivial_brace(groups.trivial_group()))


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def test_brace_canonical_identity(mod4_brace):
    assert brace_canonical_form(mod4_brace) == brace_canonical_form(mod4_brace)
    f = find_brace_isomorphism(mod4_brace, mod4_brace)
    assert f is not None and f[0] == 0


def test_brace_nonisomorphic_different_additive_groups():
    A = make_trivial_brace(groups.cyclic_group(4))
    B = make_trivial_brace(groups.abelian_group(2, 2))
    assert find_brace_isomorphism(A, B) is None
    assert brace_canonical_form(A) != brace_canonical_form(B)


def test_trivial_vs_almost_trivial_on_abelian_coincide():
    Z4 = groups.cyclic_group(4)
    assert make_trivial_brace(Z4).mul == make_almost_trivial_brace(Z4).mul


def test_brace_isomorphism_transports_operations(mod4_brace):
    # relabel mod4_brace by a bijection fixing 0 and find the isomorphism back
    f = (0, 3, 2, 1)
    finv = (0, 3, 2, 1)
    add = tuple(
        tuple(f[mod4_brace.add[finv[i]][finv[j]]] for j in range(4)) for i in range(4)
    )
    mul = tuple(
        tuple(f[mod4_brace.mul[finv[i]][finv[j]]] for j in range(4)) for i in range(4)
    )
    other = verify_brace(add, mul)
    g = find_brace_isomorphism(mod4_brace, other)
    assert g is not None
    assert brace_canonical_form(other) == brace_canonical_form(mod4_brace)


# ---------------------------------------------------------------------------
# corpus-level identities (exercised in full by the acceptance suite)


def test_lambda_is_multiplicative_homomorphism(brace_corpus):
    for classes in brace_corpus.values():
        for A in classes:
            lam = [A.lam(a) for a in range(A.size)]
            for a in range(A.size):
                for b in range(A.size):
                    composed = tuple(lam[a][lam[b][c]] for c in range(A.size))
                    assert lam[A.mul[a][b]] == composed


def test_analyze_brace_report(mod4_brace):
    report = braces.analyze_brace(mod4_brace)
    assert report.abelian_type and report.two_sided
    assert report.right_nilpotency == 3
    assert report.solution_order == (2, 2)
    assert report.as_dict()["right_nilpotency"] == 3


def test_brace_isomorphism_agrees_with_canonical_forms(brace_corpus):
    # dual route: the backtracking isomorphism search and canonical-form
    # equality must induce the same partition on the order-8 corpus
    classes = brace_corpus[8]
    forms = [brace_canonical_form(A) for A in classes]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            found = find_brace_isomorphism(classes[i], classes[j])
            assert (found is not None) == (forms[i] == forms[j])
            assert found is None  # corpus classes are pairwise distinct


def test_brace_isomorphism_found_for_relabeled_corpus_members(brace_corpus):
    import random

    rng = random.Random(7)
    for A in brace_corpus[6]:
        rest = list(range(1, 6))
        rng.shuffle(rest)
        f = [0] + rest
        finv = [0] * 6
        for i, v in enumerate(f):
            finv[v] = i
        add = tuple(
            tuple(f[A.add[finv[i]][finv[j]]] for j in range(6)) for i in range(6)
        )
        mul = tuple(
            tuple(f[A.mul[finv[i]][finv[j]]] for j in range(6)) for i in range(6)
        )
        other = verify_brace(add, mul)
        assert find_brace_isomorphism(A, other) is not None
        assert brace_canonical_form(other) == brace_canonical_form(A)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_brace_isomorphism_witness_is_valid(data, brace_corpus):
    A = data.draw(st.sampled_from([A for n in range(1, 9) for A in brace_corpus[n]]))
    f = (0, *data.draw(st.permutations(range(1, A.size))))
    B = verify_brace(relabel_table(A.add, f), relabel_table(A.mul, f))
    g = find_brace_isomorphism(A, B)
    assert g is not None
    assert (relabel_table(A.add, g), relabel_table(A.mul, g)) == (B.add, B.mul)


def test_multiplicative_groups_of_abelian_type_corpus_are_solvable(brace_corpus):
    for classes in brace_corpus.values():
        for A in classes:
            if A.is_abelian_type:
                assert is_solvable(braces.multiplicative_group(A))
