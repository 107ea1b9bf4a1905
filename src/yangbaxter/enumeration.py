"""Isomorph-free exhaustive enumeration of solutions and of skew braces.

The solution search backtracks over the rows of the sigma family (and, in
`all` mode, the tau family), pruning with partial braid consequences:

  * row products: sigma_{sigma_x(y)} o sigma_{tau_y(x)} = sigma_x o sigma_y.
    In involutive mode, where tau_y(x) = sigma_u^-1(x) with u = sigma_x(y),
    it is the cycle-set identity on the table L[x][y] = sigma_x^-1(y): the
    sigma cells are set one at a time, and each cell set is propagated
    through the identity's triples, which force further cells of L or fail
    the node;
  * in `all` mode the identity makes the row sigma_{tau_y(x)} equal to
    sigma_u^-1 sigma_x sigma_y: during the sigma phase these required rows
    must fit into the rows still to be placed (a pigeonhole bound), and
    they pin each value tau_y(x) to the rows carrying them, which yields
    cell domains for the tau rows;
  * partial injectivity of the pair map;
  * the remaining braid components on resolved triples.

One symmetry rule (lex-leader, as in orderly generation) serves both
searches: a node whose k sigma rows some relabeling of {0..k-1} onto itself
makes strictly smaller is cut, and the same test at k = 1 and k = 2 picks
the subtree keys, the first two sigma rows.  In `all` mode the rule goes on
below a complete sigma table: a node whose sigma table and first k tau rows
some relabeling of {0..k-1} onto itself makes strictly smaller is cut.  The
canonical member of a class is never cut, since its serialization starts
with these rows.  So in both modes a leaf that survives is that member; it
is validated in full and emitted as its own serialization, and each class
reaches exactly one leaf.  The workers take the subtrees one at a time from
a shared counter, checkpointing each as it finishes; merged output is a
sorted canonical list, identical for any parallelism degree.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

from . import braces as braces_mod
from . import groups, solutions
from .braces import SkewBrace
from .perms import all_perms, compose, has_smaller_relabeling, invert, nth_perm
from .perms import relabel_table, tables_from_bytes
from .solutions import Solution

DEFAULT_CAPS = {"involutive": 6, "all": 4}
CHECKPOINT_VERSION = 2


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
                f"size {self.size} exceeds the {self.mode} cap {cap}; "
                "raise cap= explicitly for a long run"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


@dataclass
class EnumerationResult:
    size: int
    mode: str
    canonicals: list[bytes]

    @cached_property
    def classes(self) -> list[Solution]:
        """The classes rebuilt (and verified) from their canonical bytes, once."""
        return [solutions.solution_from_canonical(b) for b in self.canonicals]

    @property
    def total(self) -> int:
        return len(self.canonicals)

    def counts(self) -> dict[str, int]:
        # the bytes come from verified leaves: read r o r = id off the decoded
        # tables without rebuilding and re-verifying each class
        inv = sum(
            Solution(self.size, *tables_from_bytes(blob, 2)).involutive
            for blob in self.canonicals
        )
        return {
            "involutive": inv,
            "non_involutive": self.total - inv,
            "total": self.total,
        }


# ---------------------------------------------------------------------------
# Subtrees: the first two sigma rows


def subtree_tasks(n: int) -> list[tuple[int, ...]]:
    """Independent search subtrees: (row0, row1) index pairs into `all_perms(n)`.

    A pair is kept when no relabeling fixing 0 makes row 0 smaller and none
    mapping {0, 1} onto itself makes rows 0, 1 smaller: the lex-leader rule
    of the searches at k = 1 and k = 2.  The canonical member of every class
    passes both, since its serialization starts with these rows.  Size 1 has
    a single task.  The identifiers double as checkpoint keys, so a given
    (size, mode) run always produces the same task list in the same order.
    """
    if n == 1:
        return [(0,)]
    perms = all_perms(n)
    return [
        (r0, r1)
        for r0, p0 in enumerate(perms)
        if not has_smaller_relabeling(([p0],))
        for r1, p1 in enumerate(perms)
        if not has_smaller_relabeling(([p0, p1],))
    ]


class _Deadline:
    """Raises TimeBudgetExceeded once the clock, read every 4096 ticks, is
    past `at`.  The involutive search ticks once per cell it sets, the
    all-mode search once per node."""

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
# Involutive search: sigma cells, propagated on the cycle-set table


def _search_involutive(n: int, prefix, deadline: _Deadline) -> set[bytes]:
    """Canonical forms of the classes whose canonical member lies below prefix.

    An involutive solution is fixed by its sigma rows: tau_y(x) =
    sigma_u^-1(x) with u = sigma_x(y).  Written in the cycle-set table
    L[x][y] = x.y = sigma_x^-1(y), the row-product identity
    sigma_x o sigma_y = sigma_u o sigma_{tau_y(x)} on all pairs is the
    cycle-set identity (x.y).(x.z) = (y.x).(y.z) on all triples, every row
    of L being a permutation (Rump, Adv. Math. 193 (2005)).  A finite cycle
    set is non-degenerate, so its tau rows are bijections.

    The search keeps the sigma table and L, with -1 in the unknown cells, and
    fills sigma row by row: cells z = 0..n-1, values in ascending order,
    skipping the cells already forced.  Setting sigma_k(z) = v sets
    L[k][v] = z and propagates.  The triple (x, y, z) ties L[a][b] to
    L[c][d] once a = L[x][y], b = L[x][z], c = L[y][x] and d = L[y][z] are
    known: a known cell on one side sets the cell on the other, and a value
    already in its row fails the node.  The triple (y, x, z) is (x, y, z)
    with its sides swapped, so a set cell (p, q) is revisited in the
    triples (p, q, .) and (p, ., q), where it is a, b, c or d, and in the
    triples (x, sigma_x(p), sigma_x(q)), where it is L[a][b].

    Orderly generation: a node whose k complete sigma rows some relabeling
    of {0..k-1} onto itself makes strictly smaller has no canonical member
    below it, since every completion is beaten by the same relabeling.  The
    canonical member of a class is never cut: no relabeling lowers any
    prefix of it, so its first two rows form a subtree key.  The key passed
    the cut when it was picked, so the cut starts below it.  A leaf that
    survives at k = n is that member, and since tau is fixed by sigma, its
    own serialization is its canonical form.
    """
    found: set[bytes] = set()
    sig = [[-1] * n for _ in range(n)]
    L = [[-1] * n for _ in range(n)]  # L[x][y] = sigma_x^-1(y)
    trail: list[tuple[int, int]] = []  # the cells of L set so far, in order
    queue: list[tuple[int, int]] = []  # the cells set but not yet propagated

    def put(p: int, q: int, w: int) -> bool:
        """Set the unknown cell L[p][q] to w, unless w is in row p already."""
        if sig[p][w] >= 0:
            return False
        L[p][q] = w
        sig[p][w] = q
        trail.append((p, q))
        queue.append((p, q))
        return True

    def assign(p: int, q: int, w: int) -> bool:
        """Set L[p][q] = w, sigma_p(w) = q, and every cell the triples force."""
        queue.clear()
        if not put(p, q, w):
            return False
        while queue:
            deadline.tick()
            p, q = queue.pop()
            Lp = L[p]
            Lq = L[q]
            w = Lp[q]
            # (p, q, z): a = w, b = L[p][z], c = L[q][p], d = L[q][z]
            c = Lq[p]
            if c >= 0:
                La = L[w]
                Lc = L[c]
                for z in range(n):
                    b = Lp[z]
                    d = Lq[z]
                    if b >= 0 and d >= 0:
                        left = La[b]
                        right = Lc[d]
                        if left != right and not (
                            put(w, b, right) if left < 0
                            else right < 0 and put(c, d, left)
                        ):
                            return False
            # (p, y, q): a = L[p][y], b = w, c = L[y][p], d = L[y][q]
            for y in range(n):
                a = Lp[y]
                if a >= 0:
                    Ly = L[y]
                    c = Ly[p]
                    d = Ly[q]
                    if c >= 0 and d >= 0:
                        left = L[a][w]
                        right = L[c][d]
                        if left != right and not (
                            put(a, w, right) if left < 0
                            else right < 0 and put(c, d, left)
                        ):
                            return False
            # (x, sigma_x(p), sigma_x(q)): a = p, b = q, so L[a][b] = w
            for x in range(n):
                sx = sig[x]
                y = sx[p]
                z = sx[q]
                if y >= 0 and z >= 0:
                    Ly = L[y]
                    c = Ly[x]
                    d = Ly[z]
                    if c >= 0 and d >= 0:
                        right = L[c][d]
                        if right != w and not (right < 0 and put(c, d, w)):
                            return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            p, q = trail.pop()
            sig[p][L[p][q]] = -1
            L[p][q] = -1

    rows = [nth_perm(n, r) for r in prefix]  # the complete sigma rows, for the cut
    # the key's cells, each one that is forced already checked against it
    for x, row in enumerate(rows):
        for z, v in enumerate(row):
            if sig[x][z] != v and not (L[x][v] < 0 and assign(x, v, z)):
                return found

    def dfs(k: int) -> None:
        if k > len(prefix) and has_smaller_relabeling((rows,)):
            return
        if k == n:
            sigma = tuple(rows)
            tau = tuple(tuple(L[sigma[x][y]][x] for x in range(n)) for y in range(n))
            if solutions.diagnose(n, sigma, tau) is None:
                found.add(bytes(chain.from_iterable(sigma + tau)))
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
# General search: sigma phase, then tau rows over forced cell domains


def _required_row(sig, sinv, x: int, y: int) -> tuple[int, ...]:
    """sigma_u^-1 sigma_x sigma_y with u = sigma_x(y): by the row-product
    identity, the row sigma_{tau_y(x)} equals it."""
    sx = sig[x]
    su_inv = sinv[sx[y]]
    return tuple([su_inv[sx[v]] for v in sig[y]])


def _new_required_rows(sig, sinv, k: int) -> set[tuple[int, ...]]:
    """The required rows of the pairs x, y <= k with u = sigma_x(y) <= k in
    which one of x, y, u is k; the pairs within rows below k came earlier."""
    sk = sig[k]
    pairs = [(k, y) for y in range(k + 1) if sk[y] <= k]
    for x in range(k):
        if sig[x][k] <= k:
            pairs.append((x, k))
        y = sinv[x][k]
        if y < k:
            pairs.append((x, y))
    return {_required_row(sig, sinv, x, y) for x, y in pairs}


def _tau_domains(sig, sinv, n: int):
    """Cell domains D[y][x]: candidate values for tau_y(x), or None if one is empty."""
    by_row: dict[tuple[int, ...], list[int]] = {}
    for t, row in enumerate(sig):
        by_row.setdefault(row, []).append(t)
    domains = []
    for y in range(n):
        drow = []
        for x in range(n):
            opts = by_row.get(_required_row(sig, sinv, x, y))
            if not opts:
                return None
            drow.append(opts)
        domains.append(drow)
    return domains


def _tau_rows_ok(trows, k: int, n: int, sig) -> bool:
    # braid component 3: tau_{tau_z(y)} o tau_{sigma_y(z)} = tau_z o tau_y
    for y in range(k + 1):
        for z in range(k + 1):
            a = trows[z][y]
            if a > k:
                continue
            b = sig[y][z]
            if b > k:
                continue
            if y != k and z != k and a != k and b != k:
                continue
            ta, tz = trows[a], trows[z]
            if [ta[v] for v in trows[b]] != [tz[v] for v in trows[y]]:
                return False
    # braid component 2 on resolved triples
    for y in range(k + 1):
        tr_y = trows[y]
        for x in range(n):
            sig_t = sig[tr_y[x]]
            for z in range(k + 1):
                w = sig_t[z]
                if w > k:
                    continue
                v = sig[y][z]
                if v > k:
                    continue
                if y != k and z != k and w != k and v != k:
                    continue
                if trows[w][sig[x][y]] != sig[trows[v][x]][trows[z][y]]:
                    return False
    return True


def _search_all(n: int, prefix, deadline: _Deadline) -> set[bytes]:
    """Canonical forms of the classes whose canonical member lies below prefix.

    The sigma rows, the prefix's first, are cut by the lex-leader rule of
    the involutive search and by a pigeonhole bound: the rows required by
    the row-product identity on the resolved pairs must fit into the rows
    still to be placed.  A sigma table that passes the rule at k = n is the
    least of its class, the canonical member's.  The tau rows are then built
    cell by cell over the cell domains, each row and the pair map kept
    injective, and the rule runs on (sigma, first k tau rows) at every tau
    node with k >= 1.  A leaf that survives is the canonical member: it is
    validated in full and emitted as its own serialization, as in
    involutive mode.
    """
    perms = all_perms(n)
    inverses = [invert(p) for p in perms]
    found: set[bytes] = set()
    sig: list[tuple[int, ...]] = []
    sinv: list[tuple[int, ...]] = []

    def tau_phase() -> None:
        domains = _tau_domains(sig, sinv, n)
        if domains is None:
            return
        sigma = tuple(sig)
        trows: list[tuple[int, ...]] = []
        pairs = [False] * (n * n)  # pair codes sigma_x(y) * n + tau_y(x) taken

        def dfs_tau(k: int) -> None:
            deadline.tick()
            if k and has_smaller_relabeling((sigma, trows)):
                return
            if k == n:
                tau = tuple(trows)
                if solutions.diagnose(n, sigma, tau) is None:
                    found.add(bytes(chain.from_iterable(sigma + tau)))
                return
            cells(k, 0, [0] * n, [False] * n)

        def cells(k: int, x: int, row: list[int], used: list[bool]) -> None:
            """Fill tau_k(x), tau_k(x+1), ... from the cell domains, keeping the
            row and the pair map injective."""
            if x == n:
                trows.append(tuple(row))
                if _tau_rows_ok(trows, k, n, sigma):
                    dfs_tau(k + 1)
                trows.pop()
                return
            base = sigma[x][k] * n
            for t in domains[k][x]:
                if not used[t] and not pairs[base + t]:
                    used[t] = pairs[base + t] = True
                    row[x] = t
                    cells(k, x + 1, row, used)
                    used[t] = pairs[base + t] = False

        dfs_tau(0)

    def dfs_sigma(k: int, required: set) -> None:
        deadline.tick()
        if k > len(prefix) and has_smaller_relabeling((sig,)):
            return
        if k == n:
            tau_phase()
            return
        for r in [prefix[k]] if k < len(prefix) else range(len(perms)):
            sig.append(perms[r])
            sinv.append(inverses[r])
            grown = required | _new_required_rows(sig, sinv, k)
            if len(grown.difference(sig)) <= n - 1 - k:
                dfs_sigma(k + 1, grown)
            sig.pop()
            sinv.pop()

    dfs_sigma(0, set())
    return found


# ---------------------------------------------------------------------------
# Task orchestration


def _run_subtree(args) -> list[bytes]:
    n, mode, prefix, deadline_at = args
    deadline = _Deadline(deadline_at)
    if mode == "involutive":
        found = _search_involutive(n, prefix, deadline)
    else:
        found = _search_all(n, prefix, deadline)
    return sorted(found)


def _run_subtrees(args: list, ckpt_dir: Path | None, next_index) -> tuple[list, bool]:
    """Run the subtrees that the shared counter hands out, one at a time.

    Each finished subtree is checkpointed at once.  Returns the finished
    ones and whether time ran out; on a timeout the counter is moved past
    the end, so that no other worker starts a subtree either.
    """
    finished = []
    while True:
        with next_index.get_lock():
            i = next_index.value
            next_index.value += 1
        if i >= len(args):
            return finished, False
        n, mode, task_id, deadline_at = args[i]
        try:
            if deadline_at is not None and time.monotonic() > deadline_at:
                raise TimeBudgetExceeded
            classes = _run_subtree(args[i])
        except TimeBudgetExceeded:
            _drop_queued(next_index, len(args))
            return finished, True
        if ckpt_dir is not None:
            path = _checkpoint_path(ckpt_dir, mode, n, task_id)
            _store_checkpoint(path, mode, n, task_id, classes)
        finished.append((task_id, classes))


def _drop_queued(next_index, end: int) -> None:
    with next_index.get_lock():
        next_index.value = end


_worker_next_index = None  # set at worker start: a shared Value cannot go into a task


def _share_next_index(next_index) -> None:
    global _worker_next_index
    _worker_next_index = next_index


def _run_shared_subtrees(args: list, ckpt_dir: Path | None) -> tuple[list, bool]:
    return _run_subtrees(args, ckpt_dir, _worker_next_index)


def _checkpoint_path(directory: Path, mode: str, n: int, task_id) -> Path:
    suffix = "-".join(f"{r:04d}" for r in task_id)
    return directory / f"{mode}-n{n}-task{suffix}.json"


def _load_checkpoint(path: Path, mode: str, n: int, task_id) -> list[bytes] | None:
    """The stored classes of a subtree, or None if it has no checkpoint.

    Each class must decode to a valid solution of size n (involutive in
    involutive mode) and be its own canonical form; anything else raises
    CheckpointMismatchError, so that a damaged file never joins the result.
    """
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointMismatchError(f"unreadable checkpoint {path}: {exc}") from exc
    if (
        not isinstance(data, dict)
        or data.get("version") != CHECKPOINT_VERSION
        or data.get("mode") != mode
        or data.get("size") != n
        or data.get("task") != list(task_id)
    ):
        raise CheckpointMismatchError(
            f"checkpoint {path} does not match this run "
            f"(wanted version={CHECKPOINT_VERSION} mode={mode} size={n} task={task_id})"
        )
    hexes = data.get("classes")
    if not isinstance(hexes, list) or not all(isinstance(h, str) for h in hexes):
        raise CheckpointMismatchError(f"checkpoint {path} has no list of classes")
    blobs = []
    for h in hexes:
        try:
            blob = bytes.fromhex(h)
            sol = solutions.solution_from_canonical(blob)
        except ValueError as exc:
            raise CheckpointMismatchError(f"checkpoint {path}: bad class {h!r}: {exc}") from exc
        if (
            sol.size != n
            or (mode == "involutive" and not sol.involutive)
            or solutions.canonical_form(sol) != blob
        ):
            raise CheckpointMismatchError(
                f"checkpoint {path}: {h!r} is not a canonical {mode} class of size {n}"
            )
        blobs.append(blob)
    return blobs


def _store_checkpoint(
    path: Path, mode: str, n: int, task_id, classes: list[bytes]
) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "mode": mode,
        "size": n,
        "task": list(task_id),
        "classes": [b.hex() for b in classes],
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def enumerate_solutions(task: EnumerationTask) -> EnumerationResult:
    """One canonical representative per isomorphism class at the given size.

    Identical output for any `jobs` value: subtree results are merged into a
    sorted set of canonical forms.  With a checkpoint directory, finished
    subtrees are persisted and reused on resume.
    """
    task.validate()
    n = task.size
    subtree_ids = subtree_tasks(n)
    n_tasks = len(subtree_ids)
    deadline_at = (
        time.monotonic() + task.time_budget if task.time_budget is not None else None
    )

    ckpt_dir: Path | None = None
    if task.checkpoint_dir is not None:
        ckpt_dir = Path(task.checkpoint_dir)
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    pending: list[tuple[int, ...]] = []
    merged: set[bytes] = set()
    completed: list[tuple[int, ...]] = []
    for task_id in subtree_ids:
        if ckpt_dir is not None:
            stored = _load_checkpoint(
                _checkpoint_path(ckpt_dir, task.mode, n, task_id), task.mode, n, task_id
            )
            if stored is not None:
                merged.update(stored)
                completed.append(task_id)
                continue
        pending.append(task_id)

    # the workers take subtrees one at a time from a shared counter, so a
    # heavy subtree never holds up others queued behind it, and the pool
    # gets one future per worker rather than one per subtree
    args = [(n, task.mode, task_id, deadline_at) for task_id in pending]
    next_index = multiprocessing.Value("i", 0)
    workers = min(task.jobs, len(args))
    try:
        if workers <= 1:
            runs = [_run_subtrees(args, ckpt_dir, next_index)]
        else:
            # imported here, by the one run that starts a pool: the module
            # costs every other process about 1.5 MB of RSS
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_share_next_index,
                initargs=(next_index,),
            ) as pool:
                futures = [
                    pool.submit(_run_shared_subtrees, args, ckpt_dir)
                    for _ in range(workers)
                ]
                try:
                    runs = [fut.result() for fut in futures]
                except BaseException:
                    # an interrupt or a failed worker: start no further
                    # subtree; the running ones finish and are checkpointed
                    _drop_queued(next_index, len(args))
                    raise
        for finished, _ in runs:
            for task_id, classes in finished:
                merged.update(classes)
                completed.append(task_id)
        if any(timed_out for _, timed_out in runs):
            raise TimeBudgetExceeded
    except TimeBudgetExceeded:
        raise PartialResultError(
            f"time budget of {task.time_budget}s exceeded with "
            f"{len(completed)}/{n_tasks} subtrees done"
            + (" (completed work is checkpointed)" if ckpt_dir else ""),
            sorted(completed),
            n_tasks,
        ) from None

    return EnumerationResult(n, task.mode, sorted(merged))


# ---------------------------------------------------------------------------
# Skew brace enumeration


def enumerate_braces(n: int) -> list[SkewBrace]:
    """One representative per isomorphism class of skew braces of size n.

    For each additive group G (up to isomorphism), `_braces_on_group` finds
    one brace per Aut(G)-orbit of the braces on G's table.  A brace
    isomorphism between two braces on one additive table is an automorphism
    of G that carries one `mul` to the other, so these orbits are exactly
    the classes with additive group G (Guarnieri-Vendramin, Math. Comp. 86
    (2017)), and each class is canonicalized once.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if n > 8:  # groups_of_order is tabulated up to 8
        raise EnumerationCapError(f"size {n} exceeds the brace cap 8")
    canon = [
        braces_mod.brace_canonical_form(brace)
        for G in groups.groups_of_order(n)
        for brace in _braces_on_group(G)
    ]
    return [braces_mod.brace_from_canonical(b) for b in sorted(canon)]


def _braces_on_group(G: groups.FiniteGroup) -> list[SkewBrace]:
    """One verified brace per Aut(G)-orbit of the braces whose additive table
    is G.table.

    Searches the maps a -> lambda_a into Aut(G) with lambda_0 = id and
    lambda_a lambda_b = lambda_{a o b}, where a o b = a + lambda_a(b); these
    are exactly the braces on G.  Each assignment forces lambda_{a o b} for
    the pairs it completes, and the forced values are followed in turn.  A
    completed map whose `mul` lies in the orbit of a brace already found is
    skipped: it is that brace relabelled by an automorphism of G, so it is a
    brace too, and the search stays complete, so every orbit is reached.
    """
    n = G.order
    table = G.table
    auts = groups.automorphisms(G)
    aut_index = {p: i for i, p in enumerate(auts)}
    # the whole table pays: composing on demand takes 163,332 compositions
    # on C2^3 instead of these 28,224, and enumerate_braces(8) about 1.8x longer
    amul = [
        [aut_index[compose(p, q)] for q in auts] for p in auts
    ]
    ident_idx = aut_index[tuple(range(n))]
    assign: list[int | None] = [None] * n
    assign[0] = ident_idx
    seen: set[tuple] = set()
    out: list[SkewBrace] = []

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
                    c = table[x][auts[fx][y]]
                    req = amul[fx][fy]
                    fc = assign[c]
                    if fc is None:
                        assign[c] = req
                        trail.append(c)
                        queue.append(c)
                    elif fc != req:
                        return False
        return True

    def emit() -> None:
        mul = tuple(
            tuple(table[a][auts[assign[a]][b]] for b in range(n))
            for a in range(n)
        )
        if mul in seen:
            return
        out.append(braces_mod.verify_brace(table, mul))
        seen.update(relabel_table(mul, phi) for phi in auts)

    def dfs() -> None:
        try:
            a = assign.index(None)
        except ValueError:
            emit()
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

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "total": self.total,
            "multipermutation": self.multipermutation,
            "indecomposable": self.indecomposable,
            "diagonal_cycle": self.diagonal_cycle,
            "sylow_cyclic_perm_group": self.sylow_cyclic_perm_group,
            "multipermutation_fraction": round(self.multipermutation_fraction, 4),
        }


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
