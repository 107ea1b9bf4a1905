"""The canonical bytes of solutions and braces.

Checkpoints and streams store these bytes, so the digests below pin them:
each is the SHA-256 of the concatenated, sorted canonical forms of a class
set.  The properties check that the forms are relabelling invariants and
that decoding them gives back the stored representative exactly.  A brace's
form is computed over the relabelings tying on its additive table; the
checks below hold that set and the result against the full search.
"""

import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st
from oracles import labeled_braces_on_group

from yangbaxter import braces, groups, solutions
from yangbaxter.enumeration import EnumerationTask, enumerate_solutions
from yangbaxter.perms import relabel_table, tables_from_bytes

ALL_4_DIGEST = "bbc7439fbb90aa6835267a7850384834199d237808ab5ffc02108870c114e04d"
INVOLUTIVE_5_DIGEST = "c63a556e0ad304b1824d2ae7672552af5884a6ca22ccfbe9ffdad9a4f6b612d5"
BRACES_8_DIGEST = "b96ea4386655601579402a6bfb210007ded46108928ec4b296f2ae84c5c1c3bb"


def digest(blobs) -> str:
    return hashlib.sha256(b"".join(sorted(blobs))).hexdigest()


@pytest.fixture(scope="module")
def all_4():
    return enumerate_solutions(EnumerationTask(size=4, mode="all"))


def test_all_mode_4_digest(all_4):
    assert all_4.total == 253
    assert digest(all_4.canonicals) == ALL_4_DIGEST


def test_involutive_5_digest(involutive_corpus):
    forms = [solutions.canonical_form(s) for s in involutive_corpus[5]]
    assert len(set(forms)) == 88
    assert digest(forms) == INVOLUTIVE_5_DIGEST


def test_braces_8_digest(brace_corpus):
    # enumerate_braces decodes each class from its brace_canonical_form bytes,
    # so serializing the tables gives those bytes back
    forms = [bytes(v for t in (A.add, A.mul) for row in t for v in row)
             for A in brace_corpus[8]]
    assert len(set(forms)) == 47
    assert digest(forms) == BRACES_8_DIGEST


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solution_form_is_relabelling_invariant(data, involutive_corpus, all_4):
    corpus = [*all_4.classes, *involutive_corpus[5]]
    s = data.draw(st.sampled_from(corpus))
    f = data.draw(st.permutations(range(s.size)))
    blob = solutions.canonical_form(solutions.relabel(s, f))
    assert blob == solutions.canonical_form(s)
    # corpus members are stored in their canonical labelling
    assert solutions.solution_from_canonical(blob) == s


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_brace_form_is_invariant_under_relabellings_fixing_0(data, brace_corpus):
    A = data.draw(st.sampled_from([A for n in range(2, 9) for A in brace_corpus[n]]))
    rest = data.draw(st.permutations(range(1, A.size)))
    f = (0, *rest)
    B = braces.verify_brace(relabel_table(A.add, f), relabel_table(A.mul, f))
    blob = braces.brace_canonical_form(B)
    assert blob == braces.brace_canonical_form(A)
    assert braces.brace_from_canonical(blob) == A


def full_brace_form(A) -> bytes:
    """Least (add, mul) serialization over every relabeling fixing 0."""
    return min(
        bytes(v for t in (relabel_table(A.add, f), relabel_table(A.mul, f))
              for row in t for v in row)
        for f in ((0, *rest) for rest in permutations(range(1, A.size)))
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_additive_tie_set_is_a_coset_of_the_automorphisms(n):
    for G in groups.groups_of_order(n):
        add_bytes, ties = braces._additive_ties(G.table)
        assert len(ties) == len(groups.automorphisms(G))
        assert {relabel_table(G.table, f) for f in ties} == {
            tables_from_bytes(add_bytes, 1)[0]
        }


def test_brace_form_matches_the_full_search_on_labelled_braces():
    checked = 0
    for n in range(1, 8):
        for G in groups.groups_of_order(n):
            for A in labeled_braces_on_group(G):
                assert braces.brace_canonical_form(A) == full_brace_form(A)
                checked += 1
    assert checked == 21
