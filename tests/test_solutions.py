import itertools

import pytest
from hypothesis import given, settings, strategies as st
from conftest import classes_of
from oracles import bipartition_decomposable

from yangbaxter import groups, perms, solutions
from yangbaxter.enumeration import EnumerationTask, enumerate_solutions
from yangbaxter.solutions import InvalidSolutionError

GOLDEN_SIZE4_CANONICAL = bytes.fromhex(
    "0100020302030100000103020302000103010200010300020002010302000301"
)


def shift_solution(p):
    """r(x, y) = (y - 1, x + 1) on Z/p."""
    down = tuple((i - 1) % p for i in range(p))
    up = tuple((i + 1) % p for i in range(p))
    return solutions.make_permutation(down, up)


# ---------------------------------------------------------------------------
# verify / diagnose


def test_verify_size4_irretractable(sol4_irr):
    assert sol4_irr.size == 4
    assert sol4_irr.involutive


def test_verify_trivial():
    s = solutions.make_trivial(3)
    for x in range(3):
        for y in range(3):
            assert s.r(x, y) == (y, x)
    assert s.involutive


def test_diagnose_nonbijective_sigma():
    diag = solutions.diagnose(2, ((0, 0), (0, 1)), ((0, 1), (0, 1)))
    assert diag is not None
    assert diag.condition == "non-degenerate"
    assert "x=0" in diag.message


def test_diagnose_braid_failure_names_triple():
    # sigma = (01), tau = (02): non-commuting constant families break the braid
    diag = solutions.diagnose(
        3, ((1, 0, 2),) * 3, ((2, 1, 0),) * 3
    )
    assert diag is not None
    assert diag.condition == "braid"
    assert diag.witness is not None


def test_diagnose_r_not_bijective():
    # braid-free shape check: sigma[x] = id, tau[y] alternating identity/swap
    # gives colliding r images before the braid is even consulted
    sigma = ((0, 1), (1, 0))
    tau = ((0, 1), (1, 0))
    diag = solutions.diagnose(2, sigma, tau)
    assert diag is not None
    assert diag.condition in ("r-bijective", "braid")


def test_diagnose_matches_literal_braid_check():
    # the vectorized validator agrees with a from-scratch evaluation on the
    # full 2-point candidate space
    ps = perms.all_perms(2)

    def literal_valid(sigma, tau):
        n = 2
        imgs = set()
        for x in range(n):
            for y in range(n):
                imgs.add((sigma[x][y], tau[y][x]))
        if len(imgs) != 4:
            return False

        def r(x, y):
            return sigma[x][y], tau[y][x]

        for x in range(n):
            for y in range(n):
                for z in range(n):
                    a, b = r(x, y)
                    c, d = r(b, z)
                    e, f = r(a, c)
                    lhs = (e, f, d)
                    p, q = r(y, z)
                    u, v = r(x, p)
                    w, t = r(v, q)
                    rhs = (u, w, t)
                    if lhs != rhs:
                        return False
        return True

    for sigma in itertools.product(ps, repeat=2):
        for tau in itertools.product(ps, repeat=2):
            assert (solutions.diagnose(2, sigma, tau) is None) == literal_valid(
                sigma, tau
            )


# ---------------------------------------------------------------------------
# involutivity


def test_involutive_examples(sol4_irr, sol_3_noninvolutive):
    assert solutions.make_trivial(4).involutive
    assert sol4_irr.involutive
    assert not sol_3_noninvolutive.involutive


def test_involutivity_iff_tau_formula(sol4_irr, sol5_mp, sol_3_noninvolutive):
    for s in (sol4_irr, sol5_mp, sol_3_noninvolutive, solutions.make_trivial(3)):
        formula = all(
            s.tau[y][x] == perms.invert(s.sigma[s.sigma[x][y]])[x]
            for x in range(s.size)
            for y in range(s.size)
        )
        assert formula == s.involutive


# ---------------------------------------------------------------------------
# constructions


def test_permutation_solution_noninvolutive():
    s = solutions.make_permutation(
        perms.from_cycles("(12)", 4), perms.from_cycles("(34)", 4)
    )
    assert not s.involutive


def test_permutation_solution_inverse_pair_is_involutive():
    c = perms.from_cycles("(12345)", 5)
    s = solutions.make_permutation(c, perms.invert(c))
    assert s.involutive


def test_permutation_solution_rejects_noncommuting():
    with pytest.raises(InvalidSolutionError) as exc:
        solutions.make_permutation(
            perms.from_cycles("(12)", 3), perms.from_cycles("(13)", 3)
        )
    assert exc.value.diagnostic.condition == "braid"


def test_conjugation_solution():
    s = solutions.make_conjugation(groups.symmetric_group(3))
    assert s.size == 6
    assert not s.involutive


def test_core_solution():
    s = solutions.make_core(groups.cyclic_group(4))
    assert s.size == 4


def test_alexander_solution():
    Z5 = groups.cyclic_group(5)
    doubling = tuple((2 * x) % 5 for x in range(5))
    s = solutions.make_alexander(Z5, doubling)
    assert s.size == 5
    with pytest.raises(ValueError):
        solutions.make_alexander(Z5, (0, 2, 1, 3, 4))  # not an automorphism
    with pytest.raises(ValueError):
        solutions.make_alexander(groups.symmetric_group(3), tuple(range(6)))


def test_wada_solutions():
    Z3 = groups.cyclic_group(3)
    s2 = solutions.make_wada(Z3, 2)  # r(x, y) = (-y, -x)
    assert s2.involutive
    for G in (Z3, groups.symmetric_group(3)):
        for variant in (1, 2, 3):
            solutions.make_wada(G, variant)  # all must validate
    assert not solutions.make_wada(Z3, 1).involutive


# ---------------------------------------------------------------------------
# permutation group, decomposability, diagonal map


def test_permutation_group_orders(sol4_irr):
    assert solutions.permutation_group(solutions.make_trivial(5)).order == 1
    for p in (5, 7):
        assert solutions.permutation_group(shift_solution(p)).order == p
    G = solutions.permutation_group(sol4_irr)
    assert groups.is_transitive(set(sol4_irr.sigma), 4)
    assert G.order % 4 == 0


def test_indecomposability(sol4_irr):
    assert solutions.is_indecomposable(sol4_irr)
    full = perms.from_cycles("(1234)", 4)
    assert solutions.is_indecomposable(
        solutions.make_permutation(full, perms.invert(full))
    )
    notfull = perms.from_cycles("(12)", 4)
    assert not solutions.is_indecomposable(
        solutions.make_permutation(notfull, perms.invert(notfull))
    )
    assert not solutions.is_indecomposable(solutions.make_trivial(2))
    assert solutions.is_indecomposable(solutions.make_trivial(1))


def test_decomposability_brute_force_agrees_on_all_classes():
    # every class of sizes 2..5, involutive or not (4 + 26 + 253 + 3607)
    checked = 0
    for n in range(2, 6):
        for s in classes_of(enumerate_solutions(EnumerationTask(size=n, mode="all", cap=5))):
            assert solutions.is_indecomposable(s) == (not bipartition_decomposable(s))
            checked += 1
    assert checked == 3890


def test_diagonal_map(sol5_mp):
    for p in (3, 5):
        assert solutions.diagonal_is_full_cycle(shift_solution(p))
    assert not solutions.diagonal_is_full_cycle(solutions.make_trivial(3))
    assert not solutions.diagonal_is_full_cycle(sol5_mp)


def test_diagonal_rejects_noninvolutive(sol_3_noninvolutive):
    with pytest.raises(ValueError):
        solutions.diagonal_is_full_cycle(sol_3_noninvolutive)


def test_diagonal_cycle_implies_indecomposable(involutive_corpus):
    for classes in involutive_corpus.values():
        for s in classes:
            if solutions.diagonal_is_full_cycle(s):
                assert solutions.is_indecomposable(s)


# ---------------------------------------------------------------------------
# retraction and multipermutation level


def test_retract_tower_size5(sol5_mp):
    sizes = [sol5_mp.size]
    cur = sol5_mp
    while cur.size > 1:
        cur = solutions.retract(cur)
        sizes.append(cur.size)
    assert sizes == [5, 3, 2, 1]


def test_retract_irretractable_is_itself(sol4_irr):
    r = solutions.retract(sol4_irr)
    assert solutions.is_isomorphic(r, sol4_irr)


def test_retract_candidate_lands_on_size4_irretractable(candidate, sol4_irr):
    r = solutions.retract(candidate)
    assert r.size == 4
    assert solutions.find_isomorphism(r, sol4_irr) is not None


def test_retract_rejects_noninvolutive(sol_3_noninvolutive):
    with pytest.raises(ValueError):
        solutions.retract(sol_3_noninvolutive)


def test_multipermutation_levels(sol4_irr, sol5_mp):
    assert solutions.multipermutation_level(sol5_mp) == 3
    assert solutions.multipermutation_level(sol4_irr) is None
    assert solutions.multipermutation_level(solutions.make_trivial(4)) == 1
    assert solutions.multipermutation_level(solutions.make_trivial(1)) == 0


def test_retract_shrinks_or_is_isomorphic(involutive_corpus):
    for classes in involutive_corpus.values():
        for s in classes:
            if s.size == 1:
                continue
            r = solutions.retract(s)
            assert r.size < s.size or solutions.is_isomorphic(r, s)


# ---------------------------------------------------------------------------
# isomorphism and canonical forms


def test_isomorphism_identity(sol4_irr):
    f = solutions.find_isomorphism(sol4_irr, sol4_irr)
    assert f is not None
    assert solutions.relabel(sol4_irr, f) == sol4_irr


def test_isomorphism_none_for_different_sigma_multisets():
    full = perms.from_cycles("(1234)", 4)
    s = solutions.make_permutation(full, perms.invert(full))
    assert solutions.find_isomorphism(solutions.make_trivial(4), s) is None


def test_isomorphism_respects_relabeling(sol5_mp):
    f = (3, 0, 4, 1, 2)
    relabeled = solutions.relabel(sol5_mp, f)
    g = solutions.find_isomorphism(sol5_mp, relabeled)
    assert g is not None
    assert solutions.relabel(sol5_mp, g) == relabeled


@pytest.fixture(scope="module")
def all_mode_up_to_3():
    return [
        s
        for n in range(1, 4)
        for s in classes_of(enumerate_solutions(EnumerationTask(size=n, mode="all")))
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_isomorphism_witness_is_valid(data, involutive_corpus, all_mode_up_to_3):
    corpus = [*all_mode_up_to_3, *(s for n in range(1, 6) for s in involutive_corpus[n])]
    s = data.draw(st.sampled_from(corpus))
    t = solutions.relabel(s, data.draw(st.permutations(range(s.size))))
    g = solutions.find_isomorphism(s, t)
    assert g is not None
    assert solutions.relabel(s, g) == t


def test_canonical_golden_size4(sol4_irr):
    assert solutions.canonical_form(sol4_irr) == GOLDEN_SIZE4_CANONICAL


def test_canonical_orbit_invariance(sol4_irr, sol5_mp):
    for s in (sol4_irr, sol5_mp):
        base = solutions.canonical_form(s)
        for f in itertools.islice(itertools.permutations(range(s.size)), 10):
            assert solutions.canonical_form(solutions.relabel(s, f)) == base


def test_canonical_distinguishes_trivial_from_shift():
    t = solutions.make_trivial(2)
    p = solutions.make_permutation((1, 0), (1, 0))
    assert solutions.canonical_form(t) != solutions.canonical_form(p)
    assert solutions.find_isomorphism(t, p) is None


def test_canonical_iff_isomorphic_exhaustive(involutive_corpus):
    # pairwise over all corpus classes of each size
    for n, classes in involutive_corpus.items():
        forms = [solutions.canonical_form(s) for s in classes]
        assert len(set(forms)) == len(forms)
        for i in range(len(classes)):
            for j in range(i + 1, len(classes)):
                assert solutions.find_isomorphism(classes[i], classes[j]) is None


def test_solution_from_canonical_round_trip(sol4_irr):
    blob = solutions.canonical_form(sol4_irr)
    rebuilt = solutions.solution_from_canonical(blob)
    assert solutions.canonical_form(rebuilt) == blob


# ---------------------------------------------------------------------------
# report


def test_analyze_size4_irretractable(sol4_irr):
    report = solutions.analyze(sol4_irr)
    assert report.involutive
    assert report.indecomposable
    assert report.multipermutation_level is None
    assert report.as_dict()["multipermutation_level"] == "none"


def test_analyze_noninvolutive(sol_3_noninvolutive):
    report = solutions.analyze(sol_3_noninvolutive)
    assert not report.involutive
    assert report.multipermutation_level is None
    assert report.as_dict()["multipermutation_level"] == "n/a"


def test_diagnose_fuzz_against_literal_checker():
    # diagnose and a from-scratch stepwise evaluation must report the same
    # condition and witness on random candidates (mostly invalid) and on
    # perturbed valid solutions
    import random

    from yangbaxter.enumeration import EnumerationTask, enumerate_solutions

    rng = random.Random(20240808)

    def literal_diagnosis(n, sigma, tau):
        pairs = list(itertools.product(range(n), repeat=2))
        images = [(sigma[x][y], tau[y][x]) for x, y in pairs]
        repeated = [img for img in images if images.count(img) > 1]
        if repeated:
            # the first pair whose image is the least repeated one
            return "r-bijective", pairs[images.index(min(repeated))]
        for x, y, z in itertools.product(range(n), repeat=3):
            a, b = sigma[x][y], tau[y][x]
            c, d = sigma[b][z], tau[z][b]
            e, f = sigma[a][c], tau[c][a]
            lhs = (e, f, d)
            p, q = sigma[y][z], tau[z][y]
            u, v = sigma[x][p], tau[p][x]
            w, t = sigma[v][q], tau[q][v]
            rhs = (u, w, t)
            if lhs != rhs:
                return "braid", (x, y, z)
        return None

    def check(n, sigma, tau):
        diag = solutions.diagnose(n, sigma, tau)
        got = None if diag is None else (diag.condition, diag.witness)
        assert got == literal_diagnosis(n, sigma, tau)

    for n in (3, 4, 5):
        pool = perms.all_perms(n)
        for _ in range(300):
            sigma = tuple(rng.choice(pool) for _ in range(n))
            tau = tuple(rng.choice(pool) for _ in range(n))
            check(n, sigma, tau)
    for s in classes_of(enumerate_solutions(EnumerationTask(size=3, mode="all"))):
        check(s.size, s.sigma, s.tau)
        for _ in range(10):
            fams = [list(s.sigma), list(s.tau)]
            fams[rng.randrange(2)][rng.randrange(s.size)] = rng.choice(
                perms.all_perms(s.size)
            )
            check(s.size, *fams)
