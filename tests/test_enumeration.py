import concurrent.futures
import json
import multiprocessing
import time
from itertools import chain
from concurrent.futures import ThreadPoolExecutor

import pytest
from oracles import (
    brute_force_braces,
    brute_force_solutions,
    involutive_row_ok,
    labeled_braces_on_group,
    labeled_involutive_count,
    labeled_solutions,
    orbit_sum,
    row_generator_nodes,
    smaller_relabeling_brute,
    sym_tables,
    unpruned_all_search,
    unpruned_involutive_search,
)

from yangbaxter import braces, enumeration, groups, solutions
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
    relabel_table,
    table_isomorphisms,
)


def run(n, mode, **kw):
    return enumerate_solutions(EnumerationTask(size=n, mode=mode, **kw))


# ---------------------------------------------------------------------------
# counts


def test_involutive_counts_small():
    assert run(1, "involutive").total == 1
    assert run(2, "involutive").total == 2
    assert run(3, "involutive").total == 5
    assert run(4, "involutive").total == 23


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
    for s in result.classes:
        assert solutions.diagnose(s.size, s.sigma, s.tau) is None
        cf = solutions.canonical_form(s)
        assert cf not in seen
        seen.add(cf)


def test_involutive_mode_is_the_involutive_slice_of_all_mode():
    inv = set(run(3, "involutive").canonicals)
    full = run(3, "all")
    sliced = {
        cf for cf, s in zip(full.canonicals, full.classes) if s.involutive
    }
    assert inv == sliced


# ---------------------------------------------------------------------------
# the no-pruning oracle


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence(n):
    assert brute_force_solutions(n) == run(n, "all").canonicals


# ---------------------------------------------------------------------------
# the involutive row generator


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
    generated = enumeration._involutive_rows(sig, sinv, n)
    assert generated == _filtered_rows(rows, n), (n, rows)
    if depth > 0 and len(rows) + 1 < n:
        for row in generated:
            _assert_generator_matches_filter(rows + [index[row]], n, depth - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_generator_matches_row_filter_on_whole_tree(n):
    _assert_generator_matches_filter([], n, depth=n)


def test_row_generator_matches_row_filter_below_size5_subtrees():
    perms, _, mul, inv = sym_tables(5)
    nodes = 0
    for prefix in enumeration.subtree_tasks(5):
        sig = [perms[r] for r in prefix]
        sinv = [perms[inv[r]] for r in prefix]
        # the prefix check is the same routine, on complete rows
        checks = [
            involutive_row_ok(list(prefix[: k + 1]), k, perms, mul, inv)
            for k in range(len(prefix))
        ]
        assert checks == [
            enumeration._row_products_hold(sig, sinv, k, 5) for k in range(len(prefix))
        ], prefix
        if all(checks):
            _assert_generator_matches_filter(list(prefix), 5, depth=1)
            nodes += 1
    assert nodes == 475


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 2), (3, 12), (4, 168)])
def test_labeled_count_is_the_orbit_sum(n, labeled, involutive_corpus):
    assert labeled_involutive_count(n) == labeled
    assert orbit_sum(involutive_corpus[n]) == labeled


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 4), (3, 66)])
def test_all_mode_labeled_count_is_the_orbit_sum(n, labeled):
    assert sum(1 for _ in labeled_solutions(n)) == labeled
    assert orbit_sum(run(n, "all").classes) == labeled


# ---------------------------------------------------------------------------
# the lex-leader prune


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lex_leader_check_matches_brute_force_on_search_nodes(n):
    for rows, _ in row_generator_nodes(n, [], [], depth=n):
        assert has_smaller_relabeling(rows) == smaller_relabeling_brute(rows), rows


def test_lex_leader_check_matches_brute_force_on_size5_subtree_prefixes():
    # every second row after a first row that passes, so that some are cut
    perms = all_perms(5)
    cut = 0
    for p0 in perms:
        if smaller_relabeling_brute([p0]):
            continue
        for p1 in perms:
            expected = smaller_relabeling_brute([p0, p1])
            assert has_smaller_relabeling([p0, p1]) == expected, (p0, p1)
            cut += expected
    assert cut > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtree_keys_are_the_lex_leader_pairs(n):
    perms = all_perms(n)
    if n == 1:
        assert enumeration.subtree_tasks(n) == [(0,)]
        return
    assert enumeration.subtree_tasks(n) == [
        (r0, r1)
        for r0, p0 in enumerate(perms)
        if not smaller_relabeling_brute([p0])
        for r1, p1 in enumerate(perms)
        if not smaller_relabeling_brute([p0, p1])
    ]


def test_canonical_members_lie_in_subtrees(involutive_corpus):
    # the first two sigma rows of every canonical serialization index a key
    blobs = [(n, solutions.canonical_form(s)) for n, c in involutive_corpus.items() for s in c]
    blobs += [(n, b) for n in range(1, 5) for b in run(n, "all").canonicals]
    keys = {n: set(enumeration.subtree_tasks(n)) for n, _ in blobs}
    for n, blob in blobs:
        index = {p: i for i, p in enumerate(all_perms(n))}
        key = tuple(index[tuple(blob[i * n : (i + 1) * n])] for i in range(min(n, 2)))
        assert key in keys[n], blob.hex()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orderly_search_matches_unpruned_oracle_per_subtree(n):
    orderly, oracle = [], []
    for prefix in enumeration.subtree_tasks(n):
        orderly.append(
            enumeration._search_involutive(n, prefix, enumeration._Deadline(None))
        )
        oracle.append(unpruned_involutive_search(n, prefix))
        # a subtree emits only classes the unpruned search reaches in it
        assert orderly[-1] <= oracle[-1], prefix
    classes = set().union(*orderly)
    assert classes == set().union(*oracle)
    # each class comes from exactly one subtree ...
    assert sum(map(len, orderly)) == len(classes)
    # ... as the serialization of its canonical member
    for blob in classes:
        assert solutions.canonical_form(solutions.solution_from_canonical(blob)) == blob


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orderly_all_search_matches_unpruned_oracle_per_subtree(n):
    orderly, oracle = [], []
    for prefix in enumeration.subtree_tasks(n):
        orderly.append(enumeration._search_all(n, prefix, enumeration._Deadline(None)))
        oracle.append(unpruned_all_search(n, prefix))
        assert orderly[-1] <= oracle[-1], prefix
    classes = set().union(*orderly)
    assert classes == set().union(*oracle)
    # the lex-leader check at k = n leaves only least sigma tables, the
    # canonical member's, so a class is found in one subtree only
    assert sum(map(len, orderly)) == len(classes)


# ---------------------------------------------------------------------------
# caps, filters, determinism, checkpoints


def test_cap_enforced_and_overridable():
    with pytest.raises(EnumerationCapError):
        run(5, "all")
    with pytest.raises(EnumerationCapError):
        run(7, "involutive")
    # explicit cap raise lets the small case through unchanged
    assert run(3, "all", cap=5).total == 26


def test_filters():
    # the run keeps every class; decomposability and level are read off them
    classes = run(4, "involutive").classes
    inde = [s for s in classes if solutions.is_indecomposable(s)]
    assert (len(inde), len(classes) - len(inde)) == (5, 18)
    mp = [s for s in run(3, "involutive").classes
          if solutions.multipermutation_level(s) is not None]
    assert len(mp) == 5


def test_parallel_output_is_deterministic():
    sequential = run(3, "all", jobs=1)
    parallel = run(3, "all", jobs=2)
    assert sequential.canonicals == parallel.canonicals


def test_checkpoint_resume(tmp_path):
    from yangbaxter.enumeration import subtree_tasks

    first = run(3, "involutive", checkpoint_dir=tmp_path)
    files = list(tmp_path.glob("involutive-n3-task*.json"))
    assert len(files) == len(subtree_tasks(3))
    again = run(3, "involutive", checkpoint_dir=tmp_path)
    assert again.canonicals == first.canonicals


def test_checkpoint_mismatch_detected(tmp_path):
    run(3, "involutive", checkpoint_dir=tmp_path)
    victim = next(tmp_path.glob("*.json"))
    victim.write_text('{"version": 99}')
    with pytest.raises(CheckpointMismatchError):
        run(3, "involutive", checkpoint_dir=tmp_path)


def _damaged_checkpoint(fault):
    header = {
        "version": enumeration.CHECKPOINT_VERSION, "mode": "involutive", "size": 3, "task": [0, 0],
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
    else:  # a valid canonical class, but not involutive
        full = run(3, "all")
        blob = next(b for b, s in zip(full.canonicals, full.classes) if not s.involutive)
    return {**header, "classes": [blob.hex()]}


@pytest.mark.parametrize(
    "fault",
    ["no classes", "not an object", "bad hex", "short blob", "wrong size",
     "not canonical", "not involutive"],
)
def test_damaged_checkpoint_is_rejected(tmp_path, fault):
    run(3, "involutive", checkpoint_dir=tmp_path)
    path = enumeration._checkpoint_path(tmp_path, "involutive", 3, (0, 0))
    path.write_text(json.dumps(_damaged_checkpoint(fault)))
    with pytest.raises(CheckpointMismatchError):
        run(3, "involutive", checkpoint_dir=tmp_path)


def test_time_budget_yields_partial_result_error(tmp_path):
    from yangbaxter.enumeration import subtree_tasks

    with pytest.raises(PartialResultError) as exc:
        enumerate_solutions(
            EnumerationTask(
                size=5, mode="involutive", time_budget=0.05,
                checkpoint_dir=tmp_path, cap=6,
            )
        )
    assert exc.value.total_tasks == len(subtree_tasks(5))
    # completed subtrees are persisted for resume
    assert len(list(tmp_path.glob("*.json"))) == len(exc.value.completed_tasks)


def test_parallel_time_budget_keeps_finished_subtrees(tmp_path, monkeypatch):
    # threads stand in for the worker processes so that the subtree runner
    # can be replaced: the first subtree runs out of time at once, the
    # others take a while, so they finish after it
    tasks = enumeration.subtree_tasks(4)
    real = enumeration._run_subtree
    started, returned = [], []

    def run_subtree(args):
        prefix = args[2]
        started.append(prefix)
        if prefix == tasks[0]:
            raise enumeration.TimeBudgetExceeded
        time.sleep(0.05)
        result = real(args)
        returned.append(prefix)
        return result

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    with pytest.raises(PartialResultError) as exc:
        run(4, "involutive", jobs=2, checkpoint_dir=tmp_path)
    # every subtree that returned is recorded and checkpointed ...
    assert exc.value.completed_tasks == sorted(returned)
    assert len(list(tmp_path.glob("*.json"))) == len(returned)
    # ... and the queued ones were cancelled, not run
    assert len(started) < len(tasks)


def test_finished_subtree_is_checkpointed_before_the_next_one_starts(
    tmp_path, monkeypatch
):
    # the worker runs out of time on its second subtree: by then the first is
    # on disk, and the counter is moved past the end so no worker starts more
    tasks = enumeration.subtree_tasks(4)
    real = enumeration._run_subtree
    on_disk = []

    def run_subtree(args):
        if args[2] == tasks[1]:
            on_disk.extend(tmp_path.glob("*.json"))
            raise enumeration.TimeBudgetExceeded
        return real(args)

    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    args = [(4, "involutive", t, None) for t in tasks]
    next_index = multiprocessing.Value("i", 0)
    finished, timed_out = enumeration._run_subtrees(args, tmp_path, next_index)
    assert timed_out
    assert [t for t, _ in finished] == [tasks[0]]
    first = enumeration._checkpoint_path(tmp_path, "involutive", 4, tasks[0])
    assert on_disk == [first]
    assert next_index.value == len(args)


def test_worker_stops_at_the_deadline_between_subtrees():
    # subtrees this small never reach the in-search clock check
    past = time.monotonic() - 1
    late = [(3, "involutive", t, past) for t in enumeration.subtree_tasks(3)]
    counter = multiprocessing.Value("i", 0)
    assert enumeration._run_subtrees(late, None, counter) == ([], True)
    counter.value = 0
    on_time = [(*a[:3], None) for a in late]
    finished, timed_out = enumeration._run_subtrees(on_time, None, counter)
    assert not timed_out and len(finished) == len(late)


def test_interrupted_parallel_run_starts_no_further_subtree(tmp_path, monkeypatch):
    # an interrupt in one worker: the other finishes the subtree it is on,
    # which is checkpointed, and starts no other
    tasks = enumeration.subtree_tasks(4)
    real = enumeration._run_subtree
    started, returned = [], []

    def run_subtree(args):
        started.append(args[2])
        if args[2] == tasks[0]:
            raise KeyboardInterrupt
        time.sleep(0.05)
        result = real(args)
        returned.append(args[2])
        return result

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(enumeration, "_run_subtree", run_subtree)
    with pytest.raises(KeyboardInterrupt):
        run(4, "involutive", jobs=2, checkpoint_dir=tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == len(returned)
    assert len(started) < len(tasks)


def test_parallel_run_submits_one_future_per_worker(monkeypatch):
    submitted = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    assert run(5, "involutive", jobs=2).total == 88
    # not one future per subtree (834 at n = 5)
    assert len(submitted) == 2


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
            forms.add(braces.brace_canonical_form(A))
        assert len(forms) == len(classes)


def brace_automorphism_count(A) -> int:
    keys = list(zip(groups.element_orders(braces.additive_group(A)),
                    groups.element_orders(braces.multiplicative_group(A))))
    return sum(1 for _ in table_isomorphisms((A.add, A.mul), (A.add, A.mul), keys, keys))


@pytest.mark.parametrize("n", range(1, 9))
def test_brace_orbit_identity(n):
    """Labeled braces on G = sum of |Aut(G)| / |Aut(A)| over the classes A
    found on G; the representatives' Aut(G)-orbits are the labeled set, and
    no two representatives are isomorphic."""
    labeled_counts, class_counts = [], []
    for G in groups.groups_of_order(n):
        auts = groups.automorphisms(G)
        labeled = [A.mul for A in labeled_braces_on_group(G)]
        reps = enumeration._braces_on_group(G)
        assert all(A.add == G.table for A in reps)
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


def test_enumerate_braces_canonicalizes_each_class_once(brace_calls):
    assert len(enumerate_braces(8)) == 47
    # one verify per representative, one per rebuild from its canonical bytes
    assert brace_calls == {"canonical": 47, "verify": 47 + 47}


# ---------------------------------------------------------------------------
# corpus statistics


def test_corpus_report_n2():
    stats = corpus_report(run(2, "involutive").classes)
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
