"""Isomorph-free exhaustive enumeration of solutions and of skew braces.

A solution is enumerated through its derived rack: J(x, y) = (x, sigma_x(y))
carries r to (x, u) -> (u, x <| u), and r is fixed by the rack <| and its
sigma rows, which are automorphisms of the rack under one twisted row
identity (see `_search`).  The trivial rack gives exactly the involutive
solutions, where the identity is the cycle-set identity.  `racks(n)` lists
the least table of each rack class, and one search, `_search`, fills the
sigma cells one at a time on a given rack, propagating each cell set
through the identity and the automorphism rule, which force further cells
or fail the node.  On the trivial rack a diagonal rule fails a node too:
the map x -> sigma_x^-1(x) of an involutive solution is a bijection, so no
two diagonal cells may take one value.

One symmetry rule (lex-leader, as in orderly generation) serves the
searches, and one routine, `perms.has_smaller_relabeling`, decides it: a
node whose complete tables and first k rows some relabeling of {0..k-1}
onto itself makes strictly smaller is cut.  On a rack, the tables are the
rack and the sigma rows, so the relabelings that count are the rack's
automorphisms, listed once per rack and tried one by one; on the trivial
rack every relabeling is an automorphism, and the routine's branch and
bound runs on the sigma rows alone.  The least member of a class is never
cut, so each class reaches exactly one leaf, which is validated in full:
on the trivial rack it is emitted as its own serialization, on another
rack as its canonical form.

A task is a rack and a prefix of sigma rows.  The search lists the tasks
itself: stopped at depth 2 on the trivial rack, which holds the longest
runs, it gives the nodes there, past the cut and the propagation, as
prefixes, in sorted order; every other rack is one task.  An involutive
run takes the trivial rack's tasks, the head of the full list, so a task
is named by the size and its position alone, and one checkpoint directory
serves both kinds of run.  With `jobs` j, j - 1 helpers are forked
before the listing starts, each task is queued as soon as the listing
reaches it, and the parent and the helpers take them one at a time from
that one queue, each logging the tasks it finishes to a file of its own;
merged output is a sorted canonical list, identical for any `jobs`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import tempfile
import time
from binascii import hexlify, unhexlify
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from . import braces as braces_mod
from . import groups, solutions
from .braces import SkewBrace
from .perms import Perm, all_perms, cycle_type, has_smaller_relabeling, invert
from .perms import cayley_table, composer, least_relabeling, relabel_table, table_isomorphisms
from .solutions import Solution

DEFAULT_CAPS = {"involutive": 6, "all": 4}
CHECKPOINT_VERSION = 7


class EnumerationCapError(ValueError):
    pass


class CheckpointMismatchError(ValueError):
    pass


class TimeBudgetExceeded(RuntimeError):
    """In-flight signal that the wall-clock deadline passed inside a task."""


class PartialResultError(RuntimeError):
    def __init__(self, message: str, completed_tasks: list, total_tasks: int):
        super().__init__(message)
        self.completed_tasks = completed_tasks
        self.total_tasks = total_tasks


@dataclass
class EnumerationTask:
    size: int
    mode: str = "involutive"  # "involutive" | "all"
    jobs: int = 1
    cap: int | None = None
    time_budget: float | None = None
    checkpoint_dir: str | Path | None = None

    def validate(self) -> None:
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.mode not in ("involutive", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")
        cap = self.cap if self.cap is not None else DEFAULT_CAPS[self.mode]
        if self.size > cap:
            raise EnumerationCapError(
                f"size {self.size} exceeds the {self.mode}-mode cap {cap}; "
                "raise the cap for a long run"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if 5 + self.size * (self.size + 2) > 512:  # see `_record`
            raise EnumerationCapError(
                f"size {self.size} exceeds 21, the largest whose task records fit in PIPE_BUF"
            )
        if self.jobs > 1 and not hasattr(os, "fork"):
            raise ValueError("jobs > 1 needs os.fork")
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time budget must be at least 0 s, got {self.time_budget}")


@dataclass
class EnumerationResult:
    size: int
    mode: str
    canonicals: list[bytes]
    involutive: int  # the classes of the trivial rack's tasks

    @property
    def total(self) -> int:
        return len(self.canonicals)

    def counts(self) -> dict[str, int]:
        return {
            "involutive": self.involutive,
            "non_involutive": self.total - self.involutive,
            "total": self.total,
        }


class _Deadline:
    """Raises TimeBudgetExceeded once the clock, read every 4096 ticks, is
    past `at`.  The search ticks once per cell it propagates."""

    __slots__ = ("at", "ticks")

    def __init__(self, at: float | None):
        self.at = at
        self.ticks = 0

    def tick(self) -> None:
        if self.at is None:
            return
        self.ticks += 1
        if self.ticks & 0xFFF == 0 and time.monotonic() > self.at:
            raise TimeBudgetExceeded


# ---------------------------------------------------------------------------
# Racks, and sigma cells propagated on a rack


def racks(n: int) -> list[tuple[Perm, ...]]:
    """The least table of each rack class of size n, the trivial rack first.

    A rack is an operation x <| y on the points whose right translations
    R_y(x) = x <| y are permutations, with (x <| y) <| z = (x <| z) <| (y <| z),
    that is R_z R_y R_z^-1 = R_{R_z(y)}.  The table is C[y] = R_y, so
    C[y][x] = x <| y.  Its rows are placed in order, each checked against
    the rows placed before it; a row that the placed ones force is the only
    one tried, and the lex-leader cut `has_smaller_relabeling` prunes the
    node.  A table that survives at k = n is its own `least_relabeling`, and
    the least table of a class is never cut.  The counts are 1, 2, 6, 19, 74
    and 353 for n = 1..6 (OEIS A181771).
    """
    perms = all_perms(n)
    found: list[tuple[Perm, ...]] = []
    rows: list[Perm] = []

    def fits(k: int) -> bool:
        """R_z R_y = R_w R_z with w = R_z(y), on the y, z, w <= k that involve k."""
        for z in range(k + 1):
            Rz = rows[z]
            for y in range(k + 1):
                w = Rz[y]
                if w <= k and k in (y, z, w):
                    Ry, Rw = rows[y], rows[w]
                    if any(Rz[Ry[x]] != Rw[Rz[x]] for x in range(n)):
                        return False
        return True

    def dfs(k: int) -> None:
        if k and has_smaller_relabeling(rows):
            return
        if k == n:
            found.append(tuple(rows))
            return
        # R_k = R_z R_y R_z^-1 if a placed R_z carries a placed y to k
        forced = {
            tuple(Rz[rows[y][x]] for x in invert(Rz))
            for Rz in rows for y in range(k) if Rz[y] == k
        }
        if len(forced) > 1:
            return
        for p in forced or perms:
            rows.append(p)
            if fits(k):
                dfs(k + 1)
            rows.pop()

    dfs(0)
    return found


def rack_automorphisms(rack) -> list[Perm]:
    """Aut(rack), the relabelings g with relabel_table(rack, g) == rack, in
    lexicographic order.  An automorphism conjugates R_y to R_{g(y)}, so
    the cycle type of a row is the key of its point."""
    keys = [cycle_type(row) for row in rack]
    return list(table_isomorphisms((rack,), (rack,), keys, keys))


def _search(n: int, rack, prefix, deadline: _Deadline, stop=None, reach=None) -> set:
    """Canonical forms of the classes with derived rack `rack` whose least
    (rack, sigma) member lies below prefix, a sequence of sigma rows; with
    a depth stop, it calls reach with the rows of each node at that depth
    instead, in sorted order, as cells are set to their values in ascending
    order and the forced cells follow from the cells set before them.

    For r(x, y) = (sigma_x(y), tau_y(x)) let x <| u = sigma_u tau_y(x) with
    y = sigma_x^-1(u).  Then J(x, y) = (x, sigma_x(y)) carries r to
    (x, u) -> (u, x <| u), and r is a solution exactly when <| is a rack,
    every sigma_x is an automorphism of <|, and sigma_x sigma_y =
    sigma_u sigma_t for all x, y, where u = sigma_x(y) and
    t = sigma_u^-1(x <| u); then tau_y(x) = t.  <| is trivial exactly when
    r is involutive, and a relabeling carries one solution to another
    exactly when it carries one (<|, sigma) pair to the other
    (Soloviev, Math. Res. Lett. 7 (2000); Lebed-Vendramin, Proc. Edinb.
    Math. Soc. 62 (2019); Akgun-Mereb-Vendramin, Math. Comp. 91 (2022),
    enumerate through it).  `rack` is the table C[u][x] = x <| u.

    With L[x][y] = sigma_x^-1(y) and left(x, u, z) = L[a][b], where
    a = L[x][u] and b = L[x][z], the row identity reads
    left(x, u, z) = left(phi(x, u), z) on every triple, for the bijection
    phi(x, u) = (u, x <| u) of pairs; its inverse is
    phi^-1(x, u) = (R_x^-1(u), x).  The automorphism rule reads
    L[x][a <| b] = L[x][a] <| L[x][b].  On the trivial rack the identity is
    the cycle-set identity (x.u).(x.z) = (u.x).(u.z) (Rump, Adv. Math. 193
    (2005)), and the automorphism rule is empty.

    The search keeps the sigma table and L, with -1 in the unknown cells, and
    fills sigma row by row: cells z = 0..n-1, values in ascending order,
    skipping the cells already forced.  Setting sigma_k(z) = v sets
    L[k][v] = z and propagates.  Once the inner cells of both sides are
    known, a known side sets the unknown one, and a value already in its
    row fails the node; once L[x][a] and L[x][b] are known, the
    automorphism rule sets L[x][a <| b].  A set cell (p, q) is revisited in
    each triple where it is a (x = p, u = q), b (x = p, z = q) or L[a][b]
    (u = sigma_x(p), z = sigma_x(q)), with the other side read along phi
    and then along phi^-1, and where it is L[x][a] or L[x][b].  Along
    phi^-1 these three are the places c = L[u][x <| u], d = L[u][z] and
    L[c][d] that the cell takes on the right side of a triple read along
    phi, so every place of the cell in the identity is covered.  On the
    trivial rack phi is the swap and its own inverse, and it is read once.

    The diagonal rule, on the trivial rack only: a diagonal cell L[p][p]
    set to a value that another diagonal cell holds fails the node.  For
    an involutive solution the map x -> L[x][x] = sigma_x^-1(x), the
    square map x.x of its cycle set, is a bijection (Rump, Adv. Math. 193
    (2005); Etingof-Schedler-Soloviev, Duke Math. J. 100 (1999)): with
    y = sigma_x^-1(x), r(x, y) = (x, t) for t = tau_y(x), and r(x, t) =
    (x, y) since r o r = id, so sigma_x(t) = x, t = y and x = tau_y^-1(y):
    y -> tau_y^-1(y) undoes the map, which is therefore injective, and
    bijective on a finite set.  A node whose diagonal
    repeats a value therefore has no solution below it, and the classes
    and their leaves stay as they are.  Off the trivial rack the map is not
    proved bijective here, and the rule does not run.

    Orderly generation: a node whose k complete sigma rows some relabeling
    of {0..k-1} onto itself, fixing the rack, makes strictly smaller has no
    least member below it, since every completion is beaten by the same
    relabeling; the rack is the least table of its class, so the cut on
    (rack, rows) is that, and `has_smaller_relabeling` decides it.  The
    least member of a class is never cut, so each class reaches one leaf.
    On the trivial rack every relabeling fixes the rack, and the routine's
    branch and bound runs on the rows alone; tau is fixed by sigma there,
    so the leaf's own serialization is its canonical form.  On another rack
    it tries the listed automorphisms of the rack that keep {0..k-1}
    together, and the leaf is canonicalized.  A prefix is a node this
    search reached (`subtree_tasks`), past the cut, so the cut starts below
    it.  The cut runs before the depth stop, so a stopped node has passed it.
    """
    found: set = set()  # classes
    identity = tuple(range(n))
    trivial = all(row == identity for row in rack)
    T = list(zip(*rack))  # T[x][u] = x <| u
    sig = [[-1] * n for _ in range(n)]
    L = [[-1] * n for _ in range(n)]  # L[x][y] = sigma_x^-1(y)
    # phi and then phi^-1, each as (F, S): F[x][u] is the row of L at the
    # first coordinate of the image of (x, u), the row itself since L's
    # rows are set in place and never replaced, and S[x][u] the second;
    # on the trivial rack phi is the swap, its own inverse
    maps = [([L] * n, T)]
    if not trivial:
        maps.append((
            [[L[v] for v in invert(Rx)] for Rx in rack],
            [(x,) * n for x in range(n)],
        ))
    on_diagonal = [False] * n  # the values the diagonal cells L[x][x] hold
    trail: list[tuple[int, int]] = []  # the cells of L set so far, in order
    queue: list[tuple[int, int]] = []  # the cells set but not yet propagated

    def put(p: int, q: int, w: int) -> bool:
        """Set the unknown cell L[p][q] to w, unless w is in row p already
        or, on the trivial rack, in another diagonal cell."""
        if sig[p][w] >= 0:
            return False
        if p == q and trivial:
            if on_diagonal[w]:
                return False
            on_diagonal[w] = True
        L[p][q] = w
        sig[p][w] = q
        trail.append((p, q))
        queue.append((p, q))
        return True

    def assign(p: int, q: int, w: int) -> bool:
        """Set L[p][q] = w, sigma_p(w) = q, and every cell the rules force."""
        queue.clear()
        if not put(p, q, w):
            return False
        while queue:
            deadline.tick()
            p, q = queue.pop()
            Lp = L[p]
            w = Lp[q]
            # left(x, u, z) = L[a][b] equals left(m(x, u), z) = L[c][d] for
            # each map m; the loops are inlined, since the search spends
            # most of its time in them
            for F, S in maps:
                Fp = F[p]
                Sp = S[p]
                # a: (p, q, z), b = L[p][z]; (s, t) = m(p, q), c = L[s][t],
                # d = L[s][z]
                Lm = Fp[q]
                c = Lm[Sp[q]]
                if c >= 0:
                    La = L[w]
                    Lc = L[c]
                    for z in range(n):
                        b = Lp[z]
                        d = Lm[z]
                        if b >= 0 and d >= 0:
                            left = La[b]
                            right = Lc[d]
                            if left != right and not (
                                put(w, b, right) if left < 0
                                else right < 0 and put(c, d, left)
                            ):
                                return False
                # b: (p, u, q), a = L[p][u]; (s, t) = m(p, u), c = L[s][t],
                # d = L[s][q]
                for u in range(n):
                    a = Lp[u]
                    if a >= 0:
                        Lu = Fp[u]
                        c = Lu[Sp[u]]
                        d = Lu[q]
                        if c >= 0 and d >= 0:
                            left = L[a][w]
                            right = L[c][d]
                            if left != right and not (
                                put(a, w, right) if left < 0
                                else right < 0 and put(c, d, left)
                            ):
                                return False
                # L[a][b]: (x, sigma_x(p), sigma_x(q)), so that a = p and
                # b = q; (s, t) = m(x, u), c = L[s][t], d = L[s][z]
                for x in range(n):
                    sx = sig[x]
                    u = sx[p]
                    z = sx[q]
                    if u >= 0 and z >= 0:
                        Lu = F[x][u]
                        c = Lu[S[x][u]]
                        d = Lu[z]
                        if c >= 0 and d >= 0:
                            right = L[c][d]
                            if right != w and not (right < 0 and put(c, d, w)):
                                return False
            if trivial:
                continue
            # L[x][a] and L[x][b] with x = p: L[p][q <| b] = w <| L[p][b] and
            # L[p][a <| q] = L[p][a] <| w
            Tq = T[q]
            Tw = T[w]
            Cq = rack[q]
            Cw = rack[w]
            for y in range(n):
                v = Lp[y]
                if v >= 0:
                    for cell, value in ((Tq[y], Tw[v]), (Cq[y], Cw[v])):
                        known = Lp[cell]
                        if known != value and not (known < 0 and put(p, cell, value)):
                            return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            p, q = trail.pop()
            w = L[p][q]
            sig[p][w] = -1
            if p == q:
                on_diagonal[w] = False
            L[p][q] = -1

    rows = list(prefix)  # the complete sigma rows, for the cut
    # the relabelings the cut tries at each k: all of them on the trivial
    # rack, else the rack's automorphisms that keep {0..k-1} together
    stabilisers = [None] * (n + 1)
    if not trivial:
        auts = [(g, invert(g)) for g in rack_automorphisms(rack) if g != identity]
        stabilisers = [
            [(g, h) for g, h in auts if all(v < k for v in g[:k])] for k in range(n + 1)
        ]
    # the prefix's cells, each one that is forced already checked against it
    for x, row in enumerate(rows):
        for z, v in enumerate(row):
            if sig[x][z] != v and not (L[x][v] < 0 and assign(x, v, z)):
                return found

    def dfs(k: int) -> None:
        if k > len(prefix) and has_smaller_relabeling(rows, stabilisers[k]):
            return
        if k == stop:
            reach(tuple(rows))
            return
        if k == n:
            sigma = tuple(rows)
            tau = tuple(
                tuple(L[u][rack[u][x]] for x, u in enumerate(col))
                for col in zip(*sigma)
            )
            # the class's one full verify: a leaf that fails is a fault in the
            # propagation rules, which would otherwise lose its class silently
            diagnostic = solutions.diagnose(n, sigma, tau)
            if diagnostic is not None:
                raise solutions.InvalidSolutionError(diagnostic)
            found.add(
                bytes(chain.from_iterable(sigma + tau)) if trivial
                else solutions.canonical_form(Solution(n, sigma, tau))
            )
            return
        cells(k, 0)

    def cells(k: int, z: int) -> None:
        """Fill sigma_k(z), sigma_k(z+1), ..., skipping the forced cells."""
        row = sig[k]
        while z < n and row[z] >= 0:
            z += 1
        if z == n:
            rows.append(tuple(row))
            dfs(k + 1)
            rows.pop()
            return
        Lk = L[k]
        for v in range(n):
            if Lk[v] < 0:
                mark = len(trail)
                if assign(k, v, z):
                    cells(k, z + 1)
                undo(mark)

    dfs(len(rows))
    return found


# ---------------------------------------------------------------------------
# Task orchestration


def subtree_tasks(n: int, mode: str, deadline=_Deadline(None), each=None) -> list[tuple]:
    """The tasks of a run, as (rack, sigma prefix) pairs in a fixed order.

    The trivial rack, which holds the longest runs, is split at the nodes
    `_search` reaches at depth 2, past the cut at k = 1 and 2 and the
    propagation of their cells, in the sorted order it reaches them; every
    other rack is one task with the empty prefix.  Involutive mode has the
    trivial rack's tasks, all mode those of every rack in `racks(n)`, the
    trivial rack first, so the involutive list is the head of the all-mode
    one, and a task's position in the size's list names its checkpoint in
    either mode.  The listing ticks `deadline` as the search does, and
    calls `each`, if given, with the position, rack and prefix of each task
    as it reaches it.
    """
    tasks: list[tuple] = []

    def reach(rack, prefix) -> None:
        tasks.append((rack, prefix))
        if each is not None:
            each(len(tasks) - 1, rack, prefix)

    trivial = (tuple(range(n)),) * n
    _search(n, trivial, (), deadline, min(n, 2), lambda prefix: reach(trivial, prefix))
    if mode == "all":
        for rack in racks(n)[1:]:
            reach(rack, ())
    return tasks


def _run_subtree(args) -> list[bytes]:
    _, rack, prefix, deadline_at = args
    return sorted(_search(len(rack), rack, prefix, _Deadline(deadline_at)))


def _record(n: int, position: int, rack, prefix) -> bytes:
    """A task as one queue record of 5 + n(n + 2) bytes: the prefix's row
    count, the position, and the cells of the rack and of the prefix,
    padded to two rows.  `EnumerationTask.validate` keeps it within 512
    bytes, the least PIPE_BUF POSIX allows, so a pipe moves it whole."""
    cells = bytes(chain(*rack, *prefix)).ljust(n * (n + 2), b"\0")
    return bytes([len(prefix)]) + position.to_bytes(4, "little") + cells


def _records(queue: int, n: int):
    """The records read from the queue, a pipe of `_record`s, one per read,
    until it ends."""
    return iter(lambda: os.read(queue, 5 + n * (n + 2)), b"")


def _run_subtrees(n: int, records, stop, log, deadline_at) -> bool:
    """Run the tasks of the records in turn, until they end or the stop byte
    is set, appending each one's record and sorted classes, in hex, to log
    as one line before the next one starts.  Returns whether time ran out;
    a timeout, an interrupt or a fault sets the stop byte, so that no other
    process starts a task either."""
    try:
        for record in records:
            if stop[0]:
                break
            position = int.from_bytes(record[1:5], "little")
            rows = [tuple(record[i : i + n]) for i in range(5, 5 + n * (n + record[0]), n)]
            rack, prefix = tuple(rows[:n]), tuple(rows[n:])
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise TimeBudgetExceeded
            classes = _run_subtree((position, rack, prefix, deadline_at))
            log.write(b" ".join(map(hexlify, [record, *classes])) + b"\n")
            log.flush()
        return False
    except BaseException as exc:
        stop[0] = 1
        if not isinstance(exc, TimeBudgetExceeded):
            raise
        return True


def _log_lines(log):
    """The position, record and classes of each whole line of a log; a last
    line without its newline was cut short, and its task is not done."""
    for line in log:
        if not line.endswith(b"\n"):
            return
        try:
            head, *hexes = line.split()
            record, classes = unhexlify(head), list(map(unhexlify, hexes))
        except ValueError as exc:
            raise CheckpointMismatchError(f"checkpoint line {line[:40]!r} is not hex") from exc
        yield int.from_bytes(record[1:5], "little"), record, classes


def _serve(result: int, n: int, queue: int, stop, log, deadline_at) -> None:
    """A helper's run, from its fork: the tasks from the queue, logged to
    log, then whether time ran out, or the exception it raised, pickled to
    the pipe's write end result.  It leaves by `os._exit`, running no exit
    handler and flushing none of the buffers it shares with the parent."""
    try:
        try:
            run = _run_subtrees(n, _records(queue, n), stop, log, deadline_at)
        except BaseException as exc:
            run = exc
        with open(result, "wb") as pipe:
            pickle.dump(run, pipe)
    finally:
        os._exit(0)


def _run_tasks(
    task: EnumerationTask, stored: dict, logs: list, deadline_at, found: dict
) -> tuple[list, bool]:
    """The run's tasks, or [] if the listing did not end, and whether time
    ran out; a task loaded goes into found, one run into its process's log.

    The jobs - 1 helpers are forked first, and each runs the tasks it reads
    from the pipe (`_serve`).  As `subtree_tasks` then reaches a task, it
    is loaded from its stored line or else queued: written to the pipe, or
    kept in a backlog while the pipe is full, so that no helper, busy or
    dead, blocks the listing.  Once the listing ends, this process runs the
    backlog, moving each task the pipe has room for into it, then what the
    pipe holds.  A helper's exception, or its exit with no result, is raised
    here.  Once the shared stop byte is set no process starts a task, and
    every helper is reaped before this returns or raises.
    """
    n = task.size
    parent = os.getpid()
    stop = mmap.mmap(-1, 1)  # anonymous, so shared with the forked helpers
    queue, tail = os.pipe()
    backlog: deque[bytes] = deque()  # the records the pipe had no room for
    helpers: list[tuple[int, int]] = []  # each helper's pid and its pipe's read end

    def flush() -> None:
        """Move records from the backlog into the pipe while it has room."""
        try:
            while backlog:
                os.write(tail, backlog[0])
                backlog.popleft()
        except BlockingIOError:
            pass

    def each(position: int, rack, prefix) -> None:
        if stop[0]:  # a helper stopped; it says why when it is joined
            raise TimeBudgetExceeded
        classes = _load_checkpoint(stored, position, rack, prefix)
        if classes is not None:
            found[position] = classes
            return
        backlog.append(_record(n, position, rack, prefix))
        flush()

    def unqueued():
        """The backlog, less what the pipe takes as the helpers empty it."""
        while backlog:
            flush()
            if backlog:
                yield backlog.popleft()

    tasks: list[tuple] = []
    timed_out = False
    try:
        try:
            try:
                # forked here, a helper runs its tasks from as shallow a stack as
                # this process: CPython 3.11 maps and unmaps a 16 KiB frame-stack
                # chunk each time the search's recursion crosses the end of one,
                # and from the listing's depth a helper's tasks at involutive n=6
                # took 10,000 page faults instead of 1,300, and 40% longer
                for log in logs[1:]:
                    r, w = os.pipe()
                    try:
                        pid = os.fork()
                    except OSError:
                        os.close(r)
                        os.close(w)
                        raise
                    if pid == 0:
                        # a read end left open would outlive the parent's
                        # close of it, and tail would keep the queue open
                        for fd in [r, tail] + [fd for _, fd in helpers]:
                            os.close(fd)
                        _serve(w, n, queue, stop, log, deadline_at)
                    os.close(w)
                    helpers.append((pid, r))
                os.set_blocking(tail, False)
                tasks = subtree_tasks(n, task.mode, _Deadline(deadline_at), each)
                timed_out = _run_subtrees(n, unqueued(), stop, logs[0], deadline_at)
            finally:  # the helpers' reads end once the queue is empty and closed
                os.close(tail)
            queued = _records(queue, n)
            timed_out = _run_subtrees(n, queued, stop, logs[0], deadline_at) or timed_out
        except TimeBudgetExceeded:
            timed_out = True
        for pid, r in helpers:
            try:
                with open(r, "rb", closefd=False) as pipe:
                    run = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"helper process {pid} exited with no result") from exc
            if isinstance(run, BaseException):
                raise run
            timed_out = timed_out or run
    finally:
        if os.getpid() != parent:  # a helper interrupted before it could serve
            os._exit(1)
        stop[0] = 1  # after a fault, no process starts another task
        os.close(queue)
        for pid, r in helpers:
            os.close(r)
            os.waitpid(pid, 0)
    return tasks, timed_out


def _load_checkpoint(stored: dict, position: int, rack, prefix) -> list[bytes] | None:
    """The classes of the task at position from its stored line, or None.

    The stored record must be the task's `_record`, and each class must
    decode to a valid solution of size n that is its own canonical form,
    involutive exactly when the rack is trivial; anything else raises
    CheckpointMismatchError, so that a damaged line never joins the result.
    """
    if position not in stored:
        return None
    record, classes = stored.pop(position)
    n = len(rack)
    if record != _record(n, position, rack, prefix):
        raise CheckpointMismatchError(f"the line of task {position} does not match this run")
    trivial = all(row == tuple(range(n)) for row in rack)
    for blob in classes:
        try:
            sol = solutions.solution_from_canonical(blob)
        except ValueError as exc:
            raise CheckpointMismatchError(f"task {position}: {blob.hex()}: {exc}") from exc
        if sol.size != n or sol.involutive != trivial or solutions.canonical_form(sol) != blob:
            raise CheckpointMismatchError(
                f"task {position}: {blob.hex()} is not a canonical class of size {n}"
                f" {'on' if trivial else 'off'} the trivial rack"
            )
    return classes


def enumerate_solutions(task: EnumerationTask) -> EnumerationResult:
    """One canonical representative per isomorphism class at the given size.

    Identical output for any `jobs` value: each class reaches one leaf of one
    task, so the result is the tasks' disjoint class lists, sorted together.
    The result is read back from the processes' logs, kept in the checkpoint
    directory if there is one, whose logs a resumed run loads its tasks from.
    """
    task.validate()
    # the budget covers listing the tasks too, which takes about 40 s at
    # involutive n=8
    deadline_at = (
        time.monotonic() + task.time_budget if task.time_budget is not None else None
    )
    n = task.size
    name = f"n{n}-v{CHECKPOINT_VERSION}-"
    stored: dict[int, list] = {}  # the record and classes of each stored task
    ckpt_dir = None if task.checkpoint_dir is None else Path(task.checkpoint_dir)
    if ckpt_dir is not None:
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for path in ckpt_dir.glob(f"{name}*.log"):
            with open(path, "rb") as log:
                for position, *line in _log_lines(log):
                    if stored.setdefault(position, line) is not line:
                        raise CheckpointMismatchError(f"task {position} is stored twice")

    # the helpers are forked first and each task is queued as the listing
    # reaches it, so they work while the parent lists: listing the 132 tasks
    # took a quarter of an involutive n=5 run at jobs=2, with one core idle.
    # All take tasks one at a time from the one queue, so a heavy task never
    # holds up others queued behind it, and each logs a task as one line:
    # one future per task ran involutive n=5 at jobs=2 20-35% slower on 2
    # cores, and a process pool's start and shutdown, with the parent idle,
    # cost that run more than a second process saved
    found: dict[int, list[bytes]] = {}  # the classes of each finished task
    with ExitStack() as stack:
        logs = [
            stack.enter_context(
                tempfile.TemporaryFile() if ckpt_dir is None
                else open(tempfile.mkstemp(".log", name, ckpt_dir)[0], "r+b")
            )
            for _ in range(task.jobs)
        ]
        tasks, timed_out = _run_tasks(task, stored, logs, deadline_at, found)
        # each class was verified once, at its leaf
        for log in logs:
            log.seek(0)
            for position, _, classes in _log_lines(log):
                found[position] = classes
    if timed_out:
        done = f"/{len(tasks)} tasks done" if tasks else " tasks done, the listing unfinished"
        raise PartialResultError(
            f"time budget of {task.time_budget}s exceeded with {len(found)}{done}"
            + (" (completed work is checkpointed)" if ckpt_dir else ""),
            sorted(found),
            len(tasks),
        )

    # a class is involutive exactly when its rack is trivial (the loader checks it)
    trivial = (tuple(range(n)),) * n
    involutive = sum(len(found[i]) for i, (rack, _) in enumerate(tasks) if rack == trivial)
    return EnumerationResult(n, task.mode, sorted(chain(*found.values())), involutive)


# ---------------------------------------------------------------------------
# Skew brace enumeration


def enumerate_braces(n: int) -> list[SkewBrace]:
    """One representative per isomorphism class of skew braces of size n, in
    its `brace_canonical_form` labelling, sorted by those bytes.

    For each additive group G (up to isomorphism), `_braces_on_group` keeps
    the least brace of each Aut(G)-orbit on G's least table.  A brace
    isomorphism between two braces on one additive table is an automorphism
    of G that carries one `mul` to the other, so these orbits are exactly
    the classes with additive group G (Guarnieri-Vendramin, Math. Comp. 86
    (2017)), and each class is verified once.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > 8:  # groups_of_order is tabulated up to 8
        raise EnumerationCapError(f"size {n} exceeds the brace cap 8")
    kept = sorted(pair for G in groups.groups_of_order(n) for pair in _braces_on_group(G))
    return [braces_mod.verify_brace(add, mul) for add, mul in kept]


def _braces_on_group(G: groups.FiniteGroup) -> list[tuple]:
    """The least (add, mul) of each Aut(G)-orbit of the braces whose additive
    table add is G's least table (`least_relabeling` fixing 0).

    Searches the maps a -> lambda_a into Aut(G) with lambda_0 = id and
    lambda_a lambda_b = lambda_{a o b}, where a o b = a + lambda_a(b); these
    are exactly the braces on the table.  Each assignment forces
    lambda_{a o b} for the pairs it completes, and the forced values are
    followed in turn.  A completed map is kept only when no automorphism
    relabels its `mul` to a smaller one (orderly generation, Read, Ann.
    Discrete Math. 2 (1978)), which `has_smaller_relabeling` decides over
    the listed non-identity automorphisms; the search is complete, so each
    orbit keeps its least member.  That pair is its own
    `brace_canonical_form`: add is serialized first, and the relabelings
    fixing 0 that keep it least are its automorphisms.
    """
    n = G.order
    table = relabel_table(G.table, least_relabeling((G.table,), 1)[1])
    auts = groups.automorphisms(groups.from_table(table))
    # the whole table pays: composing on demand takes 163,332 compositions on
    # C2^3 instead of these 28,224 at C level, and enumerate_braces(8) 2.9x longer
    amul = cayley_table(auts)
    # row[a][i] is row a of the product a o b = a + lambda_a(b) when lambda_a = auts[i]
    row = tuple(zip(*(map(composer(p), table) for p in auts)))
    ident_idx = auts.index(tuple(range(n)))
    pairs = [(g, invert(g)) for i, g in enumerate(auts) if i != ident_idx]
    assign: list[int | None] = [None] * n
    assign[0] = ident_idx
    out: list[tuple] = []

    def propagate(a: int, trail: list[int]) -> bool:
        """Check the pairs (a, b) and (b, a) of every newly assigned a against
        the assigned b, assigning and queueing each lambda they force."""
        queue = [a]
        while queue:
            a = queue.pop()
            fa = assign[a]
            for b in range(n):
                fb = assign[b]
                if fb is None:
                    continue
                for x, fx, y, fy in ((a, fa, b, fb), (b, fb, a, fa)):
                    c = row[x][fx][y]
                    req = amul[fx][fy]
                    fc = assign[c]
                    if fc is None:
                        assign[c] = req
                        trail.append(c)
                        queue.append(c)
                    elif fc != req:
                        return False
        return True

    def dfs() -> None:
        try:
            a = assign.index(None)
        except ValueError:
            mul = tuple(row[a][f] for a, f in enumerate(assign))
            if not has_smaller_relabeling(mul, pairs):
                out.append((table, mul))
            return
        for choice in range(len(auts)):
            assign[a] = choice
            trail = [a]
            if propagate(a, trail):
                dfs()
            for c in trail:
                assign[c] = None

    dfs()
    return out


# ---------------------------------------------------------------------------
# Corpus statistics


@dataclass(frozen=True)
class CorpusStats:
    size: int
    total: int
    multipermutation: int
    indecomposable: int
    diagonal_cycle: int
    sylow_cyclic_perm_group: int

    @property
    def multipermutation_fraction(self) -> float:
        return self.multipermutation / self.total if self.total else 0.0


def corpus_report(stream) -> CorpusStats:
    """Classify an involutive enumeration stream (iterable of Solutions)."""
    sols = list(stream)
    if not sols:
        raise ValueError("empty corpus")
    size = sols[0].size
    if any(not s.involutive for s in sols):
        raise ValueError("corpus_report expects involutive solutions")
    mp = sum(1 for s in sols if solutions.multipermutation_level(s) is not None)
    ind = sum(1 for s in sols if solutions.is_indecomposable(s))
    diag = sum(1 for s in sols if solutions.diagonal_is_full_cycle(s))
    sylow = sum(
        1
        for s in sols
        if groups.has_all_cyclic_sylows(solutions.permutation_group(s))
    )
    return CorpusStats(size, len(sols), mp, ind, diag, sylow)
