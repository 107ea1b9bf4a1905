import errno
import hashlib
import json
import math
import mmap
import os
import signal
import sys
import time
from contextlib import contextmanager
from itertools import chain, combinations, count, product
from types import SimpleNamespace

import pytest
from conftest import classes_of
from oracles import (
    brute_force_braces,
    brute_force_solutions,
    derived_rack,
    involutive_leaf,
    involutive_row_ok,
    involutive_rows,
    labeled_braces_on_group,
    labeled_involutive_count,
    labeled_involutive_solutions,
    labeled_racks,
    labeled_solutions,
    lex_leader_pairs,
    orbit_sum,
    rack_labeled_solutions,
    row_generator_nodes,
    row_products_hold,
    smaller_relabeling_brute,
    sym_tables,
    unpruned_all_search,
    unpruned_involutive_search,
)

from yangbaxter import braces, cli, enumeration, groups, solutions
from yangbaxter.enumeration import (
    CheckpointMismatchError,
    EnumerationCapError,
    EnumerationTask,
    PartialResultError,
    corpus_report,
    enumerate_braces,
    enumerate_solutions,
)
from yangbaxter.perms import (
    all_perms,
    has_smaller_relabeling,
    invert,
    least_relabeling,
    relabel_table,
    table_isomorphisms,
    tables_from_bytes,
)


def run(n, mode, **kw):
    return enumerate_solutions(EnumerationTask(size=n, mode=mode, **kw))


def trivial_rack(n):
    return (tuple(range(n)),) * n


def search(n, prefix, rack=None, deadline=None):
    """The search below prefix on the trivial rack unless a rack is given."""
    return enumeration._search(
        n, rack or trivial_rack(n), prefix, deadline or enumeration._Deadline(None)
    )


def trivial_keys(n):
    """The sigma prefixes of the trivial rack's tasks."""
    return [prefix for _, prefix in enumeration.subtree_tasks(n, "involutive")]


def first_rows(blob, n):
    """The first two sigma rows (one if n = 1) of a serialization."""
    return tuple(tuple(blob[i * n : (i + 1) * n]) for i in range(min(n, 2)))


def digest(blobs) -> str:
    return hashlib.sha256(b"".join(sorted(blobs))).hexdigest()


# ---------------------------------------------------------------------------
# counts


def test_involutive_counts_small():
    assert run(1, "involutive").total == 1
    assert run(2, "involutive").total == 2
    assert run(3, "involutive").total == 5
    assert run(4, "involutive").total == 23


# SHA-256 of the sorted canonical forms of the involutive classes of size 6,
# the same with jobs 1 and 2, and the same as the search before cell
# propagation gave
INVOLUTIVE_6_DIGEST = "c6a1d1efbf7e092d04888881fbececb17b09b336dbc9dd83e6dda8faa4fb5d89"


@pytest.mark.parametrize("jobs", [1, 2])
def test_involutive_size_6(jobs):
    result = run(6, "involutive", jobs=jobs)
    assert result.total == 595
    assert digest(result.canonicals) == INVOLUTIVE_6_DIGEST


# SHA-256 of the sorted canonical forms of all mode at size 5, the same with
# jobs 1 and 2, and the same as the search by sigma rows and tau cells gave
ALL_5_DIGEST = "01e4699efe65d52adce846bc5317aba38133278b5fbcf79d80d1f6eae48107cf"


@pytest.mark.parametrize("jobs", [1, 2])
def test_all_mode_size_5(jobs):
    # the reference value 3519 counts the strictly non-involutive classes;
    # with the 88 involutive ones the total is 3607
    result = run(5, "all", cap=5, jobs=jobs)
    assert result.counts() == {"involutive": 88, "non_involutive": 3519, "total": 3607}
    assert digest(result.canonicals) == ALL_5_DIGEST


def test_all_mode_counts_small():
    assert run(1, "all").counts() == {
        "involutive": 1, "non_involutive": 0, "total": 1
    }
    assert run(2, "all").counts() == {
        "involutive": 2, "non_involutive": 2, "total": 4
    }
    assert run(3, "all").counts() == {
        "involutive": 5, "non_involutive": 21, "total": 26
    }


def test_every_emitted_solution_is_valid_and_distinct():
    result = run(3, "all")
    seen = set()
    for s in classes_of(result):
        assert solutions.diagnose(s.size, s.sigma, s.tau) is None
        cf = solutions.canonical_form(s)
        assert cf not in seen
        seen.add(cf)


@pytest.mark.parametrize("which", [0, -1])
def test_search_raises_on_a_leaf_that_fails_diagnose(which, monkeypatch):
    # a leaf the propagation lets through but diagnose rejects is a fault in
    # the rules: the search raises rather than drop the class, on the trivial
    # rack and on another
    rack = enumeration.racks(3)[which]
    diagnose = solutions.diagnose
    leaves = count()

    def reject_first(n, sigma, tau):
        if next(leaves) == 0:
            return solutions.SolutionDiagnostic("braid", "rejected for the test")
        return diagnose(n, sigma, tau)

    assert search(3, (), rack=rack)
    monkeypatch.setattr(solutions, "diagnose", reject_first)
    with pytest.raises(solutions.InvalidSolutionError, match="rejected for the test"):
        search(3, (), rack=rack)


def test_involutive_leaves_are_non_degenerate(monkeypatch):
    # a leaf of the involutive search is a finite cycle set, hence
    # non-degenerate (Rump, Adv. Math. 193 (2005)): diagnose never rejects a
    # leaf for a tau row that is not a bijection
    conditions = []
    diagnose = solutions.diagnose

    def spy(n, sigma, tau):
        found = diagnose(n, sigma, tau)
        conditions.append(None if found is None else found.condition)
        return found

    monkeypatch.setattr(solutions, "diagnose", spy)
    totals = [run(n, "involutive").total for n in range(1, 6)]
    assert totals == [1, 2, 5, 23, 88]
    assert conditions.count(None) >= sum(totals)
    assert "non-degenerate" not in conditions


def test_diagonal_is_a_permutation_on_every_involutive_class(involutive_corpus):
    # the theorem behind the search's diagonal rule, read off sigma, not L
    corpus = dict(involutive_corpus)
    if 6 not in corpus:
        corpus[6] = classes_of(run(6, "involutive"))
    for n in range(1, 7):
        for s in corpus[n]:
            assert sorted(solutions.diagonal_permutation(s)) == list(range(n)), s


def test_involutive_mode_is_the_involutive_slice_of_all_mode():
    inv = set(run(3, "involutive").canonicals)
    full = run(3, "all")
    sliced = {
        cf for cf, s in zip(full.canonicals, classes_of(full)) if s.involutive
    }
    assert inv == sliced


# ---------------------------------------------------------------------------
# the no-pruning oracle


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence(n):
    assert brute_force_solutions(n) == run(n, "all").canonicals


# ---------------------------------------------------------------------------
# the oracle row generator: the involutive search before cell propagation


def _filtered_rows(rows, n):
    """The rows the old filter accepts after `rows`, in `all_perms` order."""
    perms, _, mul, inv = sym_tables(n)
    k = len(rows)
    return [
        perms[c] for c in range(len(perms))
        if involutive_row_ok(rows + [c], k, perms, mul, inv)
    ]


def _assert_generator_matches_filter(rows, n, depth):
    """Generator and filter agree after `rows` and `depth` levels below it."""
    perms, index, _, inv = sym_tables(n)
    sig = [perms[r] for r in rows]
    sinv = [perms[inv[r]] for r in rows]
    generated = involutive_rows(sig, sinv, n)
    assert generated == _filtered_rows(rows, n), (n, rows)
    if depth > 0 and len(rows) + 1 < n:
        for row in generated:
            _assert_generator_matches_filter(rows + [index[row]], n, depth - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_generator_matches_row_filter_on_whole_tree(n):
    _assert_generator_matches_filter([], n, depth=n)


def test_row_generator_matches_row_filter_below_size5_subtrees():
    perms, index, mul, inv = sym_tables(5)
    nodes = 0
    for sig in lex_leader_pairs(5):
        prefix = [index[row] for row in sig]
        sinv = [invert(row) for row in sig]
        # the prefix check is the same routine, on complete rows
        checks = [
            involutive_row_ok(prefix[: k + 1], k, perms, mul, inv)
            for k in range(len(prefix))
        ]
        assert checks == [
            row_products_hold(sig, sinv, k, 5) for k in range(len(prefix))
        ], prefix
        if all(checks):
            _assert_generator_matches_filter(prefix, 5, depth=1)
            nodes += 1
    assert nodes == 475


# ---------------------------------------------------------------------------
# the triple rule: the cycle-set identity on L[x][y] = sigma_x^-1(y)


def _cycle_set_identity_holds(sigma) -> bool:
    """(x.y).(x.z) = (y.x).(y.z) for all x, y, z, with x.y = sigma_x^-1(y)."""
    L = [invert(row) for row in sigma]
    return all(
        L[L[x][y]][L[x][z]] == L[L[y][x]][L[y][z]]
        for x, y, z in product(range(len(sigma)), repeat=3)
    )


def _triple_rule_verdicts(tables, monkeypatch) -> list[bool]:
    """Whether `diagnose` accepts each sigma table's involutive candidate,
    after checking that exactly then the cycle-set identity holds and the
    search, given the whole table as its prefix, reaches the leaf."""
    tables = list(tables)
    verdicts = [
        involutive_leaf(len(sigma), sigma, [invert(row) for row in sigma]) is not None
        for sigma in tables
    ]
    reached = []
    monkeypatch.setattr(solutions, "diagnose", lambda n, sigma, tau: reached.append(sigma))
    for sigma, accepted in zip(tables, verdicts):
        assert _cycle_set_identity_holds(sigma) == accepted, sigma
        reached.clear()
        search(len(sigma), sigma)
        assert reached == ([sigma] if accepted else []), sigma
    return verdicts


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 2), (3, 12)])
def test_triple_rule_is_diagnose_on_every_sigma_table(n, labeled, monkeypatch):
    tables = product(all_perms(n), repeat=n)
    assert sum(_triple_rule_verdicts(tables, monkeypatch)) == labeled


def test_triple_rule_is_diagnose_on_size4_solutions_and_their_row_swaps(monkeypatch):
    # the 168 labeled solutions, and every table that swaps two cells of one
    # of their rows: 168 * 4 * 6 near misses
    solved = [s.sigma for s in labeled_involutive_solutions(4)]
    swapped = []
    for sigma in solved:
        for x in range(4):
            for i, j in combinations(range(4), 2):
                row = list(sigma[x])
                row[i], row[j] = row[j], row[i]
                swapped.append(sigma[:x] + (tuple(row),) + sigma[x + 1 :])
    verdicts = _triple_rule_verdicts(solved + swapped, monkeypatch)
    assert verdicts[:168] == [True] * 168
    assert len(verdicts) == 168 * 25


# ---------------------------------------------------------------------------
# racks, and the rack rule: the row identity and automorphisms on a rack


def _rack_automorphisms(C) -> set:
    return {g for g in all_perms(len(C)) if relabel_table(C, g) == C}


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 6), (4, 19), (5, 74)])
def test_racks_are_the_least_table_of_each_class(n, classes):
    found = enumeration.racks(n)
    assert len(found) == classes
    assert found[0] == trivial_rack(n)
    for C in found:
        assert least_relabeling((C,))[0] == bytes(chain.from_iterable(C)), C


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 2), (3, 13)])
def test_rack_count_is_the_orbit_sum(n, labeled):
    assert sum(1 for _ in labeled_racks(n)) == labeled
    assert sum(
        math.factorial(n) // len(_rack_automorphisms(C)) for C in enumeration.racks(n)
    ) == labeled


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rack_automorphisms_are_every_relabeling_fixing_the_rack(n):
    for C in enumeration.racks(n):
        auts = enumeration.rack_automorphisms(C)
        assert len(auts) == len(set(auts)) and set(auts) == _rack_automorphisms(C), C


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 4), (3, 66)])
def test_rack_rule_is_diagnose_on_every_rack_and_sigma_table(n, labeled, monkeypatch):
    # every solution is one (rack, sigma) pair: tau_y(x) = sigma_u^-1(x <| u)
    # with u = sigma_x(y); given sigma as its prefix, the search reaches the
    # leaf exactly when diagnose accepts that (sigma, tau)
    reached = []
    diagnose = solutions.diagnose
    monkeypatch.setattr(
        solutions, "diagnose", lambda n, sigma, tau: reached.append((sigma, tau))
    )
    accepted = 0
    for C in labeled_racks(n):
        for sigma in product(all_perms(n), repeat=n):
            L = [invert(row) for row in sigma]
            tau = tuple(
                tuple(L[sigma[x][y]][C[sigma[x][y]][x]] for x in range(n))
                for y in range(n)
            )
            valid = diagnose(n, sigma, tau) is None
            reached.clear()
            search(n, sigma, rack=C)
            assert reached == ([(sigma, tau)] if valid else []), (C, sigma)
            accepted += valid
    # labeled_solutions(n), as test_all_mode_labeled_count_is_the_orbit_sum pins
    assert accepted == labeled


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 2), (3, 12), (4, 168)])
def test_labeled_count_is_the_orbit_sum(n, labeled, involutive_corpus):
    assert labeled_involutive_count(n) == labeled
    assert orbit_sum(involutive_corpus[n]) == labeled


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 4), (3, 66), (4, 1800)])
def test_all_mode_labeled_count_is_the_orbit_sum(n, labeled):
    classes = classes_of(run(n, "all"))
    if n <= 3:
        assert sum(1 for _ in labeled_solutions(n)) == labeled
    else:
        # the involutive solutions are those on the trivial rack; the others
        # are counted from their racks, one rack class at a time
        count = labeled_involutive_count(n)
        for rack in enumeration.racks(n)[1:]:
            relabelings = {relabel_table(rack, g) for g in all_perms(n)}
            found = sum(1 for C in relabelings for _ in rack_labeled_solutions(C))
            assert found == orbit_sum(s for s in classes if derived_rack(s) in relabelings)
            count += found
        assert count == labeled
    assert orbit_sum(classes) == labeled


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_uncut_leaves_on_each_rack_are_the_orbit_sum(n, monkeypatch):
    # without the cut, the search on a rack R reaches every solution whose
    # derived rack is R itself, each at one leaf, which off the trivial rack
    # calls canonical_form once; those of a class s are its relabelings by
    # the coset of Aut(R) that carries s's rack to R, |Aut(R)| / |Aut(s)| of
    # them
    leaves = []
    canonical = solutions.canonical_form

    def counting_canonical(s):
        leaves.append(s)
        return canonical(s)

    for rack in enumeration.racks(n)[1:]:
        classes = search(n, (), rack=rack)
        with monkeypatch.context() as m:
            m.setattr(enumeration, "has_smaller_relabeling", lambda rows, group=None: False)
            m.setattr(solutions, "canonical_form", counting_canonical)
            leaves.clear()
            assert search(n, (), rack=rack) == classes
        rack_aut = len(enumeration.rack_automorphisms(rack))
        keys = [0] * n
        orbits = 0
        for blob in classes:
            s = tables_from_bytes(blob, 2)
            orbit, rem = divmod(rack_aut, sum(1 for _ in table_isomorphisms(s, s, keys, keys)))
            assert rem == 0, blob.hex()
            orbits += orbit
        assert len(leaves) == orbits, rack


# ---------------------------------------------------------------------------
# the lex-leader prune


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lex_leader_check_matches_brute_force_on_search_nodes(n):
    for rows, _ in row_generator_nodes(n, [], [], depth=n):
        assert has_smaller_relabeling(rows) == smaller_relabeling_brute((rows,)), rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lex_leader_check_matches_brute_force_on_rack_nodes(n, monkeypatch):
    # every (rack, first k sigma rows) the all-mode search asks about off
    # the trivial rack, where the cut runs over the rack's automorphisms;
    # the racks are listed before the spy goes in, as `racks` cuts too
    asked = []
    cut = enumeration.has_smaller_relabeling
    nontrivial = enumeration.racks(n)[1:]

    def spy(rows, group=None):
        verdict = cut(rows, group)
        asked.append(((rack, tuple(rows)), verdict))
        return verdict

    monkeypatch.setattr(enumeration, "has_smaller_relabeling", spy)
    for rack in nontrivial:
        search(n, (), rack=rack)
    assert asked
    for tables, verdict in asked:
        assert verdict == smaller_relabeling_brute(tables), tables


def test_lex_leader_check_matches_brute_force_on_size5_subtree_prefixes():
    # every second row after a first row that passes, so that some are cut
    perms = all_perms(5)
    cut = 0
    for p0 in perms:
        if smaller_relabeling_brute(([p0],)):
            continue
        for p1 in perms:
            expected = smaller_relabeling_brute(([p0, p1],))
            assert has_smaller_relabeling([p0, p1]) == expected, (p0, p1)
            cut += expected
    assert cut > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subtree_keys_are_the_lex_leader_pairs(n, involutive_corpus):
    # the search cuts every pair the lex-leader rule cuts, and the ones the
    # propagation refutes, but never the first rows of a least member
    keys = trivial_keys(n)
    assert keys and set(keys) <= set(lex_leader_pairs(n))
    for s in involutive_corpus[n]:
        blob = solutions.canonical_form(s)
        assert first_rows(blob, n) in keys, blob.hex()


def test_trivial_rack_task_counts_are_pinned():
    assert [len(trivial_keys(n)) for n in range(1, 7)] == [1, 2, 7, 27, 132, 749]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_listing_reaches_the_tasks_in_sorted_order(n):
    # a task is handed out under its position as the listing reaches it, so
    # the order reached must be the list's, sorted and without repeats, as
    # it was when the list was sorted after the listing (7579 tasks at
    # n = 7 are too, in 1.5 s); `racks(6)` alone takes 0.5 s
    reached = []
    mode = "all" if n < 6 else "involutive"
    tasks = enumeration.subtree_tasks(n, mode, each=lambda *task: reached.append(task))
    assert reached == [(i, *task) for i, task in enumerate(tasks)]
    keys = trivial_keys(n)
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_involutive_tasks_are_the_all_mode_tasks_on_the_trivial_rack(n):
    involutive = enumeration.subtree_tasks(n, "involutive")
    assert all(rack == trivial_rack(n) for rack, _ in involutive)
    assert enumeration.subtree_tasks(n, "all") == involutive + [
        (rack, ()) for rack in enumeration.racks(n)[1:]
    ]


def test_canonical_members_lie_in_subtrees():
    # the trivial rack's keys drop pairs that non-involutive classes use:
    # their first two sigma rows are lex-leader pairs, and an involutive
    # class's are a key
    for n in range(1, 5):
        pairs, keys = set(lex_leader_pairs(n)), set(trivial_keys(n))
        full = run(n, "all")
        for blob, s in zip(full.canonicals, classes_of(full)):
            assert first_rows(blob, n) in (keys if s.involutive else pairs), blob.hex()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orderly_search_matches_unpruned_oracle_per_subtree(n):
    oracle = {prefix: unpruned_involutive_search(n, prefix) for prefix in lex_leader_pairs(n)}
    orderly = []
    for prefix in trivial_keys(n):
        orderly.append(search(n, prefix))
        # a subtree emits only classes the unpruned search reaches in it
        assert orderly[-1] <= oracle[prefix], prefix
    classes = set().union(*orderly)
    assert classes == set().union(*oracle.values())
    # each class comes from exactly one subtree ...
    assert sum(map(len, orderly)) == len(classes)
    # ... as the serialization of its canonical member
    for blob in classes:
        assert solutions.canonical_form(solutions.solution_from_canonical(blob)) == blob


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderly_all_search_matches_unpruned_oracle_per_subtree(n):
    # the search on each task against the search by sigma rows and tau cells
    # without the prune, over the lex-leader sigma pairs
    tasks = enumeration.subtree_tasks(n, "all")
    orderly = [search(n, prefix, rack=rack) for rack, prefix in tasks]
    oracle = set().union(*(unpruned_all_search(n, pair) for pair in lex_leader_pairs(n)))
    classes = set().union(*orderly)
    assert classes == oracle
    # the least (rack, sigma) member of a class is the one leaf left, so a
    # class comes from one task only ...
    assert sum(map(len, orderly)) == len(classes)
    for (rack, _), blobs in zip(tasks, orderly):
        for blob in blobs:
            sol = solutions.solution_from_canonical(blob)
            # ... is emitted as its canonical form ...
            assert solutions.canonical_form(sol) == blob
            # ... and has that rack as its derived rack, up to relabeling
            C = derived_rack(sol)
            assert least_relabeling((C,))[0] == bytes(chain.from_iterable(rack))
            assert sol.involutive == (rack == trivial_rack(n))


def test_all_mode_reaches_each_class_at_one_leaf(monkeypatch):
    # a surviving leaf is the least (rack, sigma) member: one diagnose per
    # class, and a canonical form for each class off the trivial rack, whose
    # leaves are emitted as they stand
    calls = {"canonical": 0, "diagnose": 0}
    canonical, diagnose = solutions.canonical_form, solutions.diagnose

    def counting_canonical(s):
        calls["canonical"] += 1
        return canonical(s)

    def counting_diagnose(n, sigma, tau):
        calls["diagnose"] += 1
        return diagnose(n, sigma, tau)

    monkeypatch.setattr(solutions, "canonical_form", counting_canonical)
    monkeypatch.setattr(solutions, "diagnose", counting_diagnose)
    for n, classes, involutive in zip(range(1, 5), [1, 4, 26, 253], [1, 2, 5, 23]):
        calls.update(canonical=0, diagnose=0)
        assert run(n, "all").total == classes
        assert calls == {"canonical": classes - involutive, "diagnose": classes}, n


@pytest.mark.parametrize(
    "mode, sizes", [("involutive", range(1, 6)), ("all", range(1, 5))]
)
def test_searches_do_not_recheck_their_subtree_key(mode, sizes, monkeypatch):
    # a task's prefix passed the cut at k = 1 and 2 when the search listed it
    tasks = [task for n in sizes for task in enumeration.subtree_tasks(n, mode)]
    asked = set()
    cut = enumeration.has_smaller_relabeling

    def spy(rows, group=None):
        asked.add((rack, tuple(rows)))
        return cut(rows, group)

    monkeypatch.setattr(enumeration, "has_smaller_relabeling", spy)
    for rack, prefix in tasks:
        search(len(rack), prefix, rack=rack)
    assert asked and not set(tasks) & asked


# ---------------------------------------------------------------------------
# caps, filters, determinism, checkpoints


def test_cap_enforced_and_overridable():
    with pytest.raises(EnumerationCapError):
        run(5, "all")
    with pytest.raises(EnumerationCapError):
        run(7, "involutive")
    # explicit cap raise lets the small case through unchanged
    assert run(3, "all", cap=5).total == 26


def test_a_size_whose_task_record_outgrows_a_pipe_write_is_refused():
    # a task record of size n has 5 + n(n + 2) bytes, and a pipe moves at
    # least 512 whole
    EnumerationTask(size=21, cap=21).validate()
    with pytest.raises(EnumerationCapError, match="exceeds 21"):
        EnumerationTask(size=22, cap=22).validate()


def test_filters():
    # the run keeps every class; decomposability and level are read off them
    classes = classes_of(run(4, "involutive"))
    inde = [s for s in classes if solutions.is_indecomposable(s)]
    assert (len(inde), len(classes) - len(inde)) == (5, 18)
    mp = [s for s in classes_of(run(3, "involutive"))
          if solutions.multipermutation_level(s) is not None]
    assert len(mp) == 5


def test_parallel_output_is_deterministic():
    sequential = run(3, "all", jobs=1)
    parallel = run(3, "all", jobs=2)
    assert sequential.canonicals == parallel.canonicals


def test_checkpoint_resume(tmp_path):
    first = run(3, "involutive", checkpoint_dir=tmp_path)
    files = list(tmp_path.glob("n3-task*.json"))
    assert len(files) == len(trivial_keys(3))
    again = run(3, "involutive", checkpoint_dir=tmp_path)
    assert again.canonicals == first.canonicals


def test_checkpoint_of_version_4_is_rejected(tmp_path):
    # version 4 named the tasks of the search without the diagonal rule,
    # whose positions differ, and version 5 files carried the run's mode;
    # an earlier version under the current name is refused
    run(3, "involutive", checkpoint_dir=tmp_path)
    path = enumeration._checkpoint_path(tmp_path, 3, 0)
    data = json.loads(path.read_text())
    assert data["version"] == 6
    path.write_text(json.dumps({**data, "version": 5, "mode": "involutive", "size": 3}))
    with pytest.raises(CheckpointMismatchError):
        run(3, "involutive", checkpoint_dir=tmp_path)


def test_checkpoint_mismatch_detected(tmp_path):
    run(3, "involutive", checkpoint_dir=tmp_path)
    victim = next(tmp_path.glob("*.json"))
    victim.write_text('{"version": 99}')
    with pytest.raises(CheckpointMismatchError):
        run(3, "involutive", checkpoint_dir=tmp_path)


# the faults an all-mode run reads: a non-involutive class in the first
# task's file, on the trivial rack, and an involutive one in the last task's,
# on another rack
ALL_MODE_FAULTS = ["not involutive, in all mode", "involutive, on another rack"]


def _damaged_task(fault) -> int:
    """The position of the size-3 task whose checkpoint holds the fault."""
    return len(enumeration.subtree_tasks(3, "all")) - 1 if fault == ALL_MODE_FAULTS[1] else 0


def _damaged_checkpoint(fault):
    rack, prefix = enumeration.subtree_tasks(3, "all")[_damaged_task(fault)]
    header = {
        "version": enumeration.CHECKPOINT_VERSION,
        "rack": [list(row) for row in rack],
        "prefix": [list(row) for row in prefix],
    }
    if fault == "no classes":
        return header
    if fault == "not an object":
        return [header]
    if fault == "bad hex":
        return {**header, "classes": ["zz"]}
    if fault == "short blob":
        return {**header, "classes": ["00"]}
    if fault == "wrong size":
        blob = run(2, "involutive").canonicals[0]
    elif fault == "not canonical":
        sol = solutions.solution_from_canonical(run(3, "involutive").canonicals[-1])
        blob = max(
            bytes(chain.from_iterable(r.sigma + r.tau))
            for r in (solutions.relabel(sol, g) for g in all_perms(3))
        )
    elif fault == ALL_MODE_FAULTS[1]:  # a valid canonical class, but involutive
        blob = run(3, "involutive").canonicals[0]
    else:  # a valid canonical class, but not involutive
        full = run(3, "all")
        blob = next(b for b, s in zip(full.canonicals, classes_of(full)) if not s.involutive)
    return {**header, "classes": [blob.hex()]}


@pytest.mark.parametrize(
    "fault",
    ["no classes", "not an object", "bad hex", "short blob", "wrong size",
     "not canonical", "not involutive", *ALL_MODE_FAULTS],
)
def test_damaged_checkpoint_is_rejected(tmp_path, fault):
    mode = "all" if fault in ALL_MODE_FAULTS else "involutive"
    run(3, mode, checkpoint_dir=tmp_path)
    path = enumeration._checkpoint_path(tmp_path, 3, _damaged_task(fault))
    path.write_text(json.dumps(_damaged_checkpoint(fault)))
    with pytest.raises(CheckpointMismatchError):
        run(3, mode, checkpoint_dir=tmp_path)


def _searched_racks(monkeypatch) -> list:
    """The racks of the tasks `_search` runs from now on, not counting the
    listing's search, which stops at depth 2."""
    searched = []
    search = enumeration._search

    def spy(n, rack, prefix, deadline, stop=None, reach=None):
        if stop is None:
            searched.append(rack)
        return search(n, rack, prefix, deadline, stop, reach)

    monkeypatch.setattr(enumeration, "_search", spy)
    return searched


def test_involutive_checkpoints_resume_an_all_mode_run(tmp_path, monkeypatch):
    # the trivial rack's tasks head the all-mode list, under the same names
    run(5, "involutive", checkpoint_dir=tmp_path)
    searched = _searched_racks(monkeypatch)
    resumed = run(5, "all", cap=5, checkpoint_dir=tmp_path)
    assert len(searched) == len(enumeration.racks(5)) - 1
    assert trivial_rack(5) not in searched
    assert digest(resumed.canonicals) == ALL_5_DIGEST
    assert resumed.counts() == {"involutive": 88, "non_involutive": 3519, "total": 3607}


def test_all_mode_checkpoints_resume_an_involutive_run(tmp_path, monkeypatch):
    run(5, "all", cap=5, checkpoint_dir=tmp_path)
    searched = _searched_racks(monkeypatch)
    resumed = run(5, "involutive", checkpoint_dir=tmp_path)
    assert searched == []
    monkeypatch.undo()
    assert resumed.canonicals == run(5, "involutive").canonicals


def test_checkpoint_of_another_rack_is_rejected(tmp_path):
    first = run(3, "all", checkpoint_dir=tmp_path)
    assert run(3, "all", checkpoint_dir=tmp_path).canonicals == first.canonicals
    # the first task's checkpoint, naming the last task's rack or the second
    # task's prefix, is refused, though its classes are valid
    tasks = enumeration.subtree_tasks(3, "all")
    path = enumeration._checkpoint_path(tmp_path, 3, 0)
    stored = path.read_text()
    for field, table in [("rack", tasks[-1][0]), ("prefix", tasks[1][1])]:
        data = json.loads(stored)
        assert data[field] != [list(row) for row in table]
        data[field] = [list(row) for row in table]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointMismatchError):
            run(3, "all", checkpoint_dir=tmp_path)
    path.write_text(stored)
    assert run(3, "all", checkpoint_dir=tmp_path).canonicals == first.canonicals


def test_time_budget_yields_partial_result_error(tmp_path, monkeypatch):
    # a clock that moves one second each time it is read: the run reads it
    # once at the start, every 4096 cells and before each task, so a budget
    # of 100 s ends it after the listing and some tasks, on any host
    now = count()
    monkeypatch.setattr(enumeration, "time", SimpleNamespace(monotonic=lambda: next(now)))
    budget = 100
    with pytest.raises(PartialResultError) as exc:
        enumerate_solutions(
            EnumerationTask(
                size=6, mode="involutive", time_budget=budget, checkpoint_dir=tmp_path,
            )
        )
    total = len(trivial_keys(6))
    assert exc.value.total_tasks == total
    assert 0 < len(exc.value.completed_tasks) < total
    # completed subtrees are persisted for resume
    assert len(list(tmp_path.glob("*.json"))) == len(exc.value.completed_tasks)


def test_past_deadline_stops_a_subtree_at_its_4096th_cell_assignment():
    # the clock is read every 4096 cell assignments, not every 4096 sigma-row
    # nodes, and the first subtree of size 6 makes more assignments than that
    key = trivial_keys(6)[0]
    ahead = enumeration._Deadline(time.monotonic() + 3600)
    search(6, key, deadline=ahead)
    assert ahead.ticks > 4096
    past = enumeration._Deadline(time.monotonic() - 1)
    with pytest.raises(enumeration.TimeBudgetExceeded):
        search(6, key, deadline=past)
    assert past.ticks == 4096


def test_time_budget_covers_listing_the_tasks(monkeypatch):
    # the clock starts before the task list is built, which takes about
    # 40 s at involutive n=8
    real = enumeration.subtree_tasks

    def slow_subtree_tasks(*args):
        time.sleep(0.3)
        return real(*args)

    monkeypatch.setattr(enumeration, "subtree_tasks", slow_subtree_tasks)
    with pytest.raises(PartialResultError) as exc:
        run(3, "involutive", time_budget=0.2)
    assert exc.value.completed_tasks == []


def test_past_deadline_stops_the_task_listing_at_its_4096th_cell():
    # listing the tasks of size 6 propagates 37,572 cells; the run's deadline
    # stops it as it stops a search, and the run has no task done
    past = enumeration._Deadline(time.monotonic() - 1)
    with pytest.raises(enumeration.TimeBudgetExceeded):
        enumeration.subtree_tasks(6, "involutive", past)
    assert past.ticks == 4096
    with pytest.raises(PartialResultError) as exc:
        run(6, "involutive", time_budget=0)
    assert exc.value.completed_tasks == []


@pytest.mark.parametrize("budget", [math.nan, -1.0])
def test_nan_or_negative_time_budget_is_rejected(budget):
    # time.monotonic() > nan is never true, so a NaN budget would never end
    # a run, and a negative one would list every task and do none of them
    with pytest.raises(ValueError, match="time budget"):
        run(4, "all", time_budget=budget)


class CountingDeadline:
    """A deadline that never passes and counts the cells propagated."""

    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


def _search_work(tasks, monkeypatch) -> tuple[int, int]:
    """Cells propagated and lex-leader cuts asked, over (rack, prefix) tasks
    listed before the spy goes in."""
    cuts = []
    cut = enumeration.has_smaller_relabeling

    def spy(rows, group=None):
        cuts.append(1)
        return cut(rows, group)

    monkeypatch.setattr(enumeration, "has_smaller_relabeling", spy)
    deadline = CountingDeadline()
    for rack, prefix in tasks:
        search(len(rack), prefix, rack=rack, deadline=deadline)
    return deadline.ticks, len(cuts)


def test_involutive_search_work_is_pinned(monkeypatch):
    # losing a propagation rule leaves the classes as they are, but not the
    # work: without the diagonal rule it is 161 tasks, 14,883 cells and 610
    # cuts
    tasks = enumeration.subtree_tasks(5, "involutive")
    assert len(tasks) == 132
    assert _search_work(tasks, monkeypatch) == (8519, 573)


def test_all_mode_search_work_is_pinned(monkeypatch):
    # the same over the 19 racks of size 4, where every rule runs (the
    # diagonal rule on the trivial rack only)
    tasks = [(rack, ()) for rack in enumeration.racks(4)]
    assert _search_work(tasks, monkeypatch) == (5235, 890)


def test_non_trivial_rack_search_work_at_size_5_is_pinned(monkeypatch):
    # the 73 non-trivial racks of size 5 read the identity along phi and then
    # phi^-1; read the other way round, or without phi^-1, the classes stay
    # but the work does not: 86,417 cells, or 95,554 cells and 11,266 cuts
    tasks = [(rack, ()) for rack in enumeration.racks(5)[1:]]
    assert _search_work(tasks, monkeypatch) == (86363, 10966)


def _mark(directory, position):
    # a forked helper's lists never reach the parent, its files do
    directory.mkdir(exist_ok=True)
    (directory / str(position)).touch()


def _marked(directory):
    return sorted(int(p.name) for p in directory.glob("*")) if directory.exists() else []


def _wait_for(condition):
    """Wait until condition() holds, or 10 s have passed."""
    give_up = time.monotonic() + 10
    while not condition() and time.monotonic() < give_up:
        time.sleep(0.01)


@contextmanager
def _within(seconds):
    """Fail, and not hang, when the block runs longer than seconds."""

    def late(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, late)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _records(tasks):
    """The tasks' queue records, and a clear stop byte: what `_run_subtrees`
    reads."""
    n = len(tasks[0][0])
    return [enumeration._record(n, i, *task) for i, task in enumerate(tasks)], mmap.mmap(-1, 1)


def _listing(count):
    """A stand-in for `subtree_tasks`: count tasks of size 1, each handed to
    the run as it is listed."""
    task = (((0,),), ())

    def listing(n, mode, deadline, each):
        for position in range(count):
            each(position, *task)
        return [task] * count

    return listing


def test_parallel_time_budget_keeps_finished_subtrees(tmp_path, monkeypatch):
    # the parent and one forked helper: the first subtree runs out of time at
    # once, the others take a while, so they finish after it
    tasks = enumeration.subtree_tasks(4, "involutive")
    real = enumeration._run_subtree
    ckpt, started, returned = tmp_path / "ckpt", tmp_path / "started", tmp_path / "returned"

    def run_subtree(args):
        position = args[0]
        _mark(started, position)
        if position == 0:
            raise enumeration.TimeBudgetExceeded
        time.sleep(0.05)
        result = real(args)
        _mark(returned, position)
        return result

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    with pytest.raises(PartialResultError) as exc:
        run(4, "involutive", jobs=2, checkpoint_dir=ckpt)
    # every subtree that returned is recorded and checkpointed ...
    assert exc.value.completed_tasks == _marked(returned)
    assert len(list(ckpt.glob("*.json"))) == len(_marked(returned))
    # ... and the queued ones were dropped, not run
    assert len(_marked(started)) < len(tasks)


def test_finished_subtree_is_checkpointed_before_the_next_one_starts(
    tmp_path, monkeypatch
):
    # the process runs out of time on its second subtree: by then the first
    # is on disk, and the stop byte is set so no other process starts more
    tasks = enumeration.subtree_tasks(4, "involutive")
    real = enumeration._run_subtree
    on_disk = []

    def run_subtree(args):
        if args[0] == 1:
            on_disk.extend(tmp_path.glob("*.json"))
            raise enumeration.TimeBudgetExceeded
        return real(args)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    records, stop = _records(tasks)
    finished = {}
    assert enumeration._run_subtrees(4, records, stop, tmp_path, None, finished)
    assert stop[0]
    assert list(finished) == [0]
    first = enumeration._checkpoint_path(tmp_path, 4, 0)
    assert on_disk == [first]


def test_worker_stops_at_the_deadline_between_subtrees():
    # subtrees this small never reach the in-search clock check
    tasks = enumeration.subtree_tasks(3, "involutive")
    records, stop = _records(tasks)
    finished = {}
    assert enumeration._run_subtrees(3, records, stop, None, time.monotonic() - 1, finished)
    assert stop[0] and finished == {}
    records, stop = _records(tasks)
    assert not enumeration._run_subtrees(3, records, stop, None, None, finished)
    assert len(finished) == len(tasks)


def test_interrupted_parallel_run_starts_no_further_subtree(tmp_path, monkeypatch):
    # an interrupt in the helper, on the first task it takes, once the parent
    # has started one: the parent finishes the subtree it is on, which is
    # checkpointed, and starts no other; the interrupt reaches the caller
    # through the helper's pipe
    tasks = enumeration.subtree_tasks(4, "involutive")
    real = enumeration._run_subtree
    parent = os.getpid()
    ckpt, started, returned = tmp_path / "ckpt", tmp_path / "started", tmp_path / "returned"
    interrupted = tmp_path / "interrupted"

    def run_subtree(args):
        _mark(started, args[0])
        if os.getpid() != parent:
            _wait_for(lambda: len(_marked(started)) == 2)
            interrupted.touch()
            raise KeyboardInterrupt
        _wait_for(interrupted.exists)
        result = real(args)
        _mark(returned, args[0])
        return result

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    with pytest.raises(KeyboardInterrupt):
        run(4, "involutive", jobs=2, checkpoint_dir=ckpt)
    assert len(list(ckpt.glob("*.json"))) == len(_marked(returned)) == 1
    assert len(_marked(started)) == 2 < len(tasks)


def test_each_task_is_taken_exactly_once_across_processes(tmp_path, monkeypatch):
    # more processes than cores read the one queue, which fills, so the
    # parent keeps a backlog; a split, lost or doubled record would drop or
    # repeat a position.  Each process logs its positions to one file
    # opened for appending, so no line is lost
    log = os.open(tmp_path / "taken", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run_subtree(args):
        os.write(log, f"{args[0]}\n".encode())
        return []

    monkeypatch.setattr(enumeration, "subtree_tasks", _listing(20_000))
    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    forks = _count_forks(monkeypatch)
    with _within(60):
        assert run(1, "involutive", jobs=4).total == 0
    os.close(log)
    assert len(forks) == 3
    taken = (tmp_path / "taken").read_text().split()
    assert sorted(map(int, taken)) == list(range(20_000))


def test_a_helper_that_dies_with_the_queue_full_does_not_block_the_parent(monkeypatch):
    # 20,000 records of 8 bytes are more than a 64 KiB pipe holds; with its
    # one reader dead, the parent keeps what the pipe has no room for, runs
    # it once the listing ends, then runs the pipe's, and the run raises
    parent = os.getpid()
    ran = []

    def run_subtree(args):
        if os.getpid() != parent:
            os._exit(3)
        ran.append(args[0])
        return []

    monkeypatch.setattr(enumeration, "subtree_tasks", _listing(20_000))
    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    with _within(60), pytest.raises(RuntimeError, match="exited with no result"):
        run(1, "involutive", jobs=2)
    assert len(set(ran)) == len(ran) == 20_000 - 1


def test_a_helper_starts_a_task_before_the_listing_ends(tmp_path, monkeypatch):
    # the listing waits at the third task of size 5 until the helper, forked
    # before the listing, has started a task; a helper forked only after the
    # listing never does, and the wait gives up
    parent = os.getpid()
    started = tmp_path / "started"
    real_run, real_list, real_load = (
        enumeration._run_subtree, enumeration.subtree_tasks, enumeration._load_checkpoint
    )
    listed, seen = [], []

    def run_subtree(args):
        if os.getpid() != parent:
            started.touch()
        return real_run(args)

    def listing(*args):
        tasks = real_list(*args)
        listed.append(len(tasks))
        return tasks

    def load(path, rack, prefix):
        if path.name.endswith("task0002.json"):
            _wait_for(started.exists)
            seen.append((started.exists(), list(listed)))
        return real_load(path, rack, prefix)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    monkeypatch.setattr(enumeration, "subtree_tasks", listing)
    monkeypatch.setattr(enumeration, "_load_checkpoint", load)
    assert run(5, "involutive", jobs=2, checkpoint_dir=tmp_path / "ckpt").total == 88
    assert seen == [(True, [])]
    assert listed == [132]


def test_a_helper_runs_its_tasks_from_a_stack_as_shallow_as_the_parents(tmp_path, monkeypatch):
    # the helper is forked before the listing, not deep in it: the search is
    # slower from deep in a stack (see the fork in `enumeration._run_tasks`)
    parent = os.getpid()
    real = enumeration._run_subtree

    def run_subtree(args):
        frame, depth = sys._getframe(), 0
        while frame := frame.f_back:
            depth += 1
        (tmp_path / f"{os.getpid() == parent}-{args[0]}").write_text(str(depth))
        return real(args)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    assert run(5, "involutive", jobs=2).total == 88
    depths = {True: [], False: []}
    for path in tmp_path.iterdir():
        depths[path.name.startswith("True")].append(int(path.read_text()))
    # one frame more, the helper's `_serve`
    assert depths[False] and max(depths[False]) <= min(depths[True]) + 1


def test_a_helper_interrupted_as_it_is_forked_never_returns_to_the_caller(tmp_path, monkeypatch):
    # an interrupt in a new helper, before it can serve, reaches the run's
    # clean-up in the helper, which must leave at once, not go on as a
    # second copy of the caller
    parent = os.getpid()
    escaped = tmp_path / "escaped"
    real = os.fork

    def fork():
        pid = real()
        if pid == 0:
            raise KeyboardInterrupt
        return pid

    monkeypatch.setattr(os, "fork", fork)
    try:
        with pytest.raises(RuntimeError, match="exited with no result"):
            run(5, "involutive", jobs=2)
    finally:
        if os.getpid() != parent:
            escaped.touch()
            os._exit(0)
    assert not escaped.exists()


def test_a_helper_that_fails_stops_the_listing(tmp_path, monkeypatch):
    # the listing waits at the third task of size 5 until the helper has
    # failed on its first task and exited; then the listing stops, this
    # process runs no task, and the helper's exception is raised
    parent = os.getpid()
    real_list, real_load = enumeration.subtree_tasks, enumeration._load_checkpoint
    listed, ran = [], []

    def run_subtree(args):
        if os.getpid() != parent:
            raise ValueError("a fault in the helper")
        ran.append(args[0])
        return []

    def listing(*args):
        tasks = real_list(*args)
        listed.append(len(tasks))
        return tasks

    def load(path, rack, prefix):
        if path.name.endswith("task0002.json"):
            # the helper has exited, unreaped, once waitid reports it
            _wait_for(lambda: os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT))
        return real_load(path, rack, prefix)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    monkeypatch.setattr(enumeration, "subtree_tasks", listing)
    monkeypatch.setattr(enumeration, "_load_checkpoint", load)
    with pytest.raises(ValueError, match="a fault in the helper"):
        run(5, "involutive", jobs=2, checkpoint_dir=tmp_path)
    assert listed == ran == []


def test_a_damaged_checkpoint_listed_after_the_fork_stops_the_run(tmp_path, monkeypatch):
    # the first ten tasks are pending, and the helper, forked before the
    # listing, takes them at 0.2 s a task; the listing reaches the last task,
    # whose checkpoint is damaged, and the helper stops after the one it is on
    ckpt, started = tmp_path / "ckpt", tmp_path / "started"
    run(5, "involutive", checkpoint_dir=ckpt)
    paths = sorted(ckpt.glob("*.json"))
    for path in paths[:10]:
        path.unlink()
    paths[-1].write_text('{"version": 99}')
    real = enumeration._run_subtree

    def run_subtree(args):
        _mark(started, args[0])
        time.sleep(0.2)
        return real(args)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    forks = _count_forks(monkeypatch)
    with pytest.raises(CheckpointMismatchError):
        run(5, "involutive", jobs=2, checkpoint_dir=ckpt)
    assert len(forks) == 1
    assert len(_marked(started)) < 10


def test_a_time_budget_spent_in_the_listing_keeps_the_helpers_tasks(tmp_path, monkeypatch):
    # the listing waits at the third task of size 6 until the helper has
    # checkpointed a task and the budget has run out; then the listing
    # stops, and the tasks the helper finished are the run's completed ones
    budget = 1.0
    real_list, real_load = enumeration.subtree_tasks, enumeration._load_checkpoint
    listed = []

    def listing(*args):
        tasks = real_list(*args)
        listed.append(len(tasks))
        return tasks

    def load(path, rack, prefix):
        if path.name.endswith("task0002.json"):
            _wait_for(lambda: any(tmp_path.glob("*.json")))
            time.sleep(budget)
        return real_load(path, rack, prefix)

    monkeypatch.setattr(enumeration, "subtree_tasks", listing)
    monkeypatch.setattr(enumeration, "_load_checkpoint", load)
    with pytest.raises(PartialResultError) as exc:
        run(6, "involutive", jobs=2, time_budget=budget, checkpoint_dir=tmp_path)
    assert listed == []
    assert exc.value.total_tasks == 0
    completed = exc.value.completed_tasks
    assert completed == sorted(int(p.stem[-4:]) for p in tmp_path.glob("*.json"))
    assert completed


def test_a_helper_that_dies_makes_the_run_raise(tmp_path, monkeypatch):
    # the helper exits on the first task it takes, with no result; the parent
    # waits for that before its own first task, then runs all the others
    tasks = enumeration.subtree_tasks(4, "involutive")
    real = enumeration._run_subtree
    parent = os.getpid()
    died = tmp_path / "died"

    def run_subtree(args):
        if os.getpid() != parent:
            died.touch()
            os._exit(3)
        _wait_for(died.exists)
        return real(args)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    ckpt = tmp_path / "ckpt"
    with pytest.raises(RuntimeError, match="exited with no result"):
        run(4, "involutive", jobs=2, checkpoint_dir=ckpt)
    assert died.exists()
    assert len(list(ckpt.glob("*.json"))) == len(tasks) - 1


def test_a_helper_leaves_the_parents_pending_output_alone(tmp_path, monkeypatch, capsys):
    # text printed but not yet flushed is in the buffer a helper inherits; a
    # helper that flushed it on exit would write it a second time.  capsys
    # keeps its text in memory, where a helper's copy never reaches, so a
    # block-buffered file stands in for standard output too
    argv = ["enumerate", "--size", "4", "--involutive"]
    print("pending", end="")
    assert cli.main([*argv, "--jobs", "2"]) == 0
    stream = capsys.readouterr().out
    assert stream.count("pending") == 1
    out = tmp_path / "stdout.txt"
    with open(out, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("pending", end="")
        assert cli.main([*argv, "--jobs", "2"]) == 0
    assert out.read_text() == stream


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def spy():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    return forks


def test_serial_run_forks_no_helper(monkeypatch):
    forks = _count_forks(monkeypatch)
    assert run(4, "all", jobs=1).total == 253
    assert forks == []


def test_parallel_run_forks_its_helpers_before_the_listing(tmp_path, monkeypatch):
    # --jobs j forks j - 1 helpers, not one process per task (132 at n = 5),
    # all of them before the listing starts; on a fully checkpointed resume
    # too, where every helper finds the queue empty
    forks = _count_forks(monkeypatch)
    real = enumeration.subtree_tasks
    forked = []

    def listing(*args):
        forked.append(len(forks))
        return real(*args)

    monkeypatch.setattr(enumeration, "subtree_tasks", listing)
    assert run(5, "involutive", jobs=2, checkpoint_dir=tmp_path).total == 88
    assert forked == [len(forks)] == [1]
    assert run(5, "involutive", jobs=4, checkpoint_dir=tmp_path).total == 88
    assert forked == [1, len(forks)] == [1, 1 + 3]


def test_a_fork_that_fails_reaps_the_helpers_forked_before_it(monkeypatch):
    # the second of the two forks of --jobs 3 fails; the run raises once the
    # first helper, whose queue ends as this process closes its write end,
    # is reaped
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)
    with _within(20), pytest.raises(OSError):
        run(5, "involutive", jobs=3)
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_above_one_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match=r"jobs > 1 needs os\.fork"):
        EnumerationTask(size=3, jobs=2).validate()
    assert run(3, "involutive", jobs=1).total == 5


# ---------------------------------------------------------------------------
# braces


def test_brace_counts_small():
    assert len(enumerate_braces(1)) == 1
    assert len(enumerate_braces(2)) == 1
    assert len(enumerate_braces(3)) == 1


def test_brace_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_braces(9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brace_oracle_equivalence(n):
    oracle = [braces.brace_canonical_form(A) for A in brute_force_braces(n)]
    engine = [braces.brace_canonical_form(A) for A in enumerate_braces(n)]
    assert oracle == engine


def test_emitted_braces_verify_and_are_distinct(brace_corpus):
    for n, classes in brace_corpus.items():
        forms = set()
        for A in classes:
            assert braces.diagnose_brace(A.add, A.mul) is None
            form = braces.brace_canonical_form(A)
            # each class is stored in its canonical labelling
            assert form == bytes(chain.from_iterable(A.add + A.mul))
            forms.add(form)
        assert len(forms) == len(classes)


def brace_automorphism_count(A) -> int:
    keys = list(zip(groups.element_orders(braces.additive_group(A)),
                    groups.element_orders(braces.multiplicative_group(A))))
    return sum(1 for _ in table_isomorphisms((A.add, A.mul), (A.add, A.mul), keys, keys))


@pytest.mark.parametrize("n", range(1, 9))
def test_brace_orbit_identity(n):
    """Labeled braces on G's least table = sum of |Aut(G)| / |Aut(A)| over
    the classes A kept on G; the representatives' Aut(G)-orbits are the
    labeled set, and no two representatives are isomorphic."""
    labeled_counts, class_counts = [], []
    for G in groups.groups_of_order(n):
        form, g = least_relabeling((G.table,), 1)
        least = groups.from_table(relabel_table(G.table, g))
        auts = groups.automorphisms(least)
        labeled = [A.mul for A in labeled_braces_on_group(least)]
        reps = [braces.verify_brace(*pair) for pair in enumeration._braces_on_group(G)]
        assert all(A.add == least.table for A in reps)
        assert all(bytes(chain.from_iterable(A.add)) == form for A in reps)
        assert sum(len(auts) // brace_automorphism_count(A) for A in reps) == len(labeled)
        assert {relabel_table(A.mul, phi) for A in reps for phi in auts} == set(labeled)
        for i, A in enumerate(reps):
            for B in reps[i + 1:]:
                assert braces.find_brace_isomorphism(A, B) is None
        labeled_counts.append(len(labeled))
        class_counts.append(len(reps))
    if n == 8:
        assert labeled_counts == [6, 28, 232, 20, 28]
        assert class_counts == [5, 14, 8, 12, 8]


def test_brace_leaf_rule_matches_the_whole_table_rule():
    # the leaf keeps mul when no listed non-identity automorphism of the
    # least table makes it smaller; the rule it replaced, every relabelled
    # table built whole and the identity tried too, is the oracle, on every
    # labeled brace, so that both verdicts are met
    kept = []
    for n in range(1, 9):
        for G in groups.groups_of_order(n):
            least = groups.from_table(
                relabel_table(G.table, least_relabeling((G.table,), 1)[1])
            )
            auts = groups.automorphisms(least)
            pairs = [(phi, invert(phi)) for phi in auts if phi != tuple(range(n))]
            for A in labeled_braces_on_group(least):
                expected = any(relabel_table(A.mul, phi) < A.mul for phi in auts)
                assert has_smaller_relabeling(A.mul, pairs) == expected, A.mul
                kept.append(not expected)
    # one least member per class: 1, 1, 1, 4, 1, 6, 1, 47 for n = 1..8
    assert sum(kept) == 62 and not all(kept)


def test_brace_search_reaches_each_labeled_brace_once_as_a_leaf(monkeypatch):
    # the leaf rule runs once per completed map, so the search's leaves are
    # exactly the labeled braces on G's least table, each reached once
    cut = enumeration.has_smaller_relabeling
    leaves = []

    def spy(rows, group=None):
        leaves.append(rows)
        return cut(rows, group)

    monkeypatch.setattr(enumeration, "has_smaller_relabeling", spy)
    for n in range(1, 9):
        leaf_counts, kept_counts = [], []
        for G in groups.groups_of_order(n):
            least = groups.from_table(
                relabel_table(G.table, least_relabeling((G.table,), 1)[1])
            )
            leaves.clear()
            kept = enumeration._braces_on_group(G)
            labeled = [A.mul for A in labeled_braces_on_group(least)]
            assert sorted(leaves) == sorted(labeled)
            leaf_counts.append(len(leaves))
            kept_counts.append(len(kept))
        if n == 8:
            assert leaf_counts == [6, 28, 232, 20, 28]
            assert kept_counts == [5, 14, 8, 12, 8]


@pytest.fixture()
def brace_calls(monkeypatch):
    """How often brace_canonical_form and verify_brace run during the test."""
    calls = {"canonical": 0, "verify": 0}
    canonical, verify = braces.brace_canonical_form, braces.verify_brace

    def counting_canonical(A):
        calls["canonical"] += 1
        return canonical(A)

    def counting_verify(add, mul):
        calls["verify"] += 1
        return verify(add, mul)

    monkeypatch.setattr(braces, "brace_canonical_form", counting_canonical)
    monkeypatch.setattr(braces, "verify_brace", counting_verify)
    return calls


def test_enumerate_braces_verifies_each_class_once(brace_calls):
    assert len(enumerate_braces(8)) == 47
    # the kept braces are their own canonical forms: one verify per class
    assert brace_calls == {"canonical": 0, "verify": 47}


# ---------------------------------------------------------------------------
# corpus statistics


def test_corpus_report_n2():
    stats = corpus_report(classes_of(run(2, "involutive")))
    assert stats.total == 2
    assert stats.multipermutation == 2
    assert stats.multipermutation_fraction == 1.0


def test_corpus_report_n4_flags_irretractable(sol4_irr, involutive_corpus):
    stats = corpus_report(involutive_corpus[4])
    assert stats.total == 23
    assert stats.multipermutation < stats.total
    # the irretractable class is among the non-multipermutation ones
    cf = solutions.canonical_form(sol4_irr)
    flagged = [
        s
        for s in involutive_corpus[4]
        if solutions.multipermutation_level(s) is None
    ]
    assert cf in {solutions.canonical_form(s) for s in flagged}


def test_corpus_report_rejects_noninvolutive(sol_3_noninvolutive):
    with pytest.raises(ValueError):
        corpus_report([sol_3_noninvolutive])


def test_cyclic_sylow_image_implies_multipermutation(involutive_corpus):
    from yangbaxter import groups

    for classes in involutive_corpus.values():
        for s in classes:
            if groups.has_all_cyclic_sylows(solutions.permutation_group(s)):
                assert solutions.multipermutation_level(s) is not None
