"""Shared fixtures: the worked examples and the small enumerated corpora."""

from __future__ import annotations

import os

import pytest

from yangbaxter import perms, solutions
from yangbaxter.enumeration import EnumerationTask, enumerate_braces, enumerate_solutions


def solution_from_cycles(n, sigma_cycles, tau_cycles):
    return solutions.verify(
        n,
        [perms.from_cycles(c, n) for c in sigma_cycles],
        [perms.from_cycles(c, n) for c in tau_cycles],
    )


RUN_LONG = os.environ.get("YBX_RUN_LONG") == "1"


def _open_fds():
    """The process's open file descriptors, or None where they cannot be listed."""
    fd_dir = "/proc/self/fd"
    return sorted(map(int, os.listdir(fd_dir))) if os.path.isdir(fd_dir) else None


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process, running or unreaped, or
    ends with other file descriptors open than it began with."""
    fds = _open_fds()
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail("the test left a child process")
    if _open_fds() != fds:
        pytest.fail(f"the test began with descriptors {fds} and ended with {_open_fds()}")


def classes_of(result):
    """The classes of an enumeration, rebuilt and verified from its canonical bytes."""
    return [solutions.solution_from_canonical(blob) for blob in result.canonicals]


@pytest.fixture(scope="session")
def sol4_irr():
    """The size-4 involutive, indecomposable, irretractable solution."""
    return solution_from_cycles(
        4, ["(12)", "(1324)", "(34)", "(1423)"], ["(14)", "(1243)", "(23)", "(1342)"]
    )


@pytest.fixture(scope="session")
def sol5_mp():
    """Size 5, multipermutation level 3, retraction sizes 5-3-2-1."""
    return solution_from_cycles(
        5, ["id", "id", "id", "(45)", "(23)(45)"], ["id", "id", "id", "(45)", "(23)(45)"]
    )


@pytest.fixture(scope="session")
def sol_3_noninvolutive():
    """The standard size-3 non-involutive solution with all sigmas equal."""
    return solution_from_cycles(3, ["(23)", "(23)", "(23)"], ["id", "(132)", "(123)"])


def _candidate(sigma_specs, tau_specs):
    sigma = [None] * 8
    tau = [None] * 8
    for positions, cyc in sigma_specs:
        for p in positions:
            sigma[p - 1] = perms.from_cycles(cyc, 8)
    for positions, cyc in tau_specs:
        for p in positions:
            tau[p - 1] = perms.from_cycles(cyc, 8)
    return solutions.verify(8, sigma, tau)


@pytest.fixture(scope="session")
def candidate():
    """Size-8 involutive solution whose retraction is the size-4 irretractable one.

    Of the row assignments of these four permutations (each used twice),
    exactly one isomorphism class retracts onto the size-4 irretractable
    solution; this is it.
    """
    return _candidate(
        [((1, 2), "(1826)"), ((3, 4), "(3745)"),
         ((5, 7), "(17842563)"), ((6, 8), "(13872465)")],
        [((1, 2), "(1527)"), ((3, 4), "(3648)"),
         ((5, 7), "(13562478)"), ((6, 8), "(16542873)")],
    )


@pytest.fixture(scope="session")
def candidate_row_scrambled():
    """Same permutation values with rows {1,2}<->{3,4}, {5,7}<->{6,8} exchanged.

    Still a valid involutive solution, but it retracts to a different size-4
    class; kept as a regression witness that the row assignment matters.
    """
    return _candidate(
        [((1, 2), "(3745)"), ((3, 4), "(1826)"),
         ((5, 7), "(13872465)"), ((6, 8), "(17842563)")],
        [((1, 2), "(3648)"), ((3, 4), "(1527)"),
         ((5, 7), "(16542873)"), ((6, 8), "(13562478)")],
    )


@pytest.fixture(scope="session")
def involutive_corpus():
    """Involutive classes by size, n = 1..5 (6 joins for YBX_RUN_LONG=1 runs)."""
    sizes = range(1, 7 if RUN_LONG else 6)
    corpus = {}
    for n in sizes:
        result = enumerate_solutions(
            EnumerationTask(size=n, mode="involutive", jobs=2 if n >= 5 else 1)
        )
        corpus[n] = classes_of(result)
    return corpus


@pytest.fixture(scope="session")
def brace_corpus():
    """One representative per brace isomorphism class, orders 1..8."""
    return {n: enumerate_braces(n) for n in range(1, 9)}
