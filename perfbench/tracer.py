"""Spans around the public functions of each `yangbaxter` layer.

A span is (name, start, end, parent, op, info).  Spans are kept in memory
and written out when the operation ends.  Each function is replaced where
its caller looks it up: on the module for `module.func` calls (which also
covers same-module calls through the module's globals), and again on every
module that imported the function by name.
"""

from __future__ import annotations

import functools
import time


# (module, attribute, span name, what to keep from the return value)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("enumeration", "enumerate_solutions", "enumeration.enumerate_solutions", None),
    ("enumeration", "subtree_tasks", "enumeration.subtree_tasks", len),
    ("enumeration", "enumerate_braces", "enumeration.enumerate_braces", None),
    ("solutions", "diagnose", "solutions.diagnose", None),
    ("solutions", "canonical_form", "solutions.canonical_form", None),
    ("solutions", "solution_from_canonical", "solutions.solution_from_canonical", None),
    ("solutions", "verify", "solutions.verify", None),
    ("fileio", "verify", "solutions.verify", None),
    ("braces", "brace_canonical_form", "braces.brace_canonical_form", None),
    ("braces", "brace_from_canonical", "braces.brace_from_canonical", None),
    ("braces", "verify_brace", "braces.verify_brace", None),
    ("fileio", "verify_brace", "braces.verify_brace", None),
    ("groups", "groups_of_order", "groups.groups_of_order", None),
    ("groups", "automorphisms", "groups.automorphisms", None),
    ("structgroup", "ball_sizes", "structgroup.ball_sizes",
     lambda result: list(result.values)),
    ("structgroup", "affine_representation", "structgroup.affine_representation", None),
    ("structgroup", "guess_rational_series", "structgroup.guess_rational_series", None),
    ("structgroup", "promislow_set", "structgroup.promislow_set", None),
    ("structgroup", "upp_falsify", "structgroup.upp_falsify", None),
    ("fileio", "stream_to_text", "fileio.stream_to_text", lambda text: len(text.encode())),
    ("fileio", "parse_file", "fileio.parse_file", None),
]


class Tracer:
    """Records nested spans of one process; single-threaded use only."""

    def __init__(self, op_id: int = 0):
        self.op_id = op_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, keep=None):
        spans, stack, op_id = self.spans, self._stack, self.op_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[5] = keep(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every function in TRACED on the given `yangbaxter` package."""
        for module_name, attr, name, keep in TRACED:
            module = getattr(package, module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, keep))

    def as_dicts(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "info")
        return [dict(zip(keys, span)) for span in self.spans]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def span_problem(spans: list[dict], root: str) -> str | None:
    """Why the spans do not nest as calls do, or None.

    There must be one span without a parent, named `root`; every other span
    must lie within its parent's [start, end], and no span's self time may be
    negative, as it would be if its children overlapped.
    """
    roots = [s["name"] for s in spans if s["parent"] is None]
    if roots != [root]:
        return f"expected one root span {root!r}, found {roots}"
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            return f"span {i} ({s['name']}) ends before it starts"
        if s["parent"] is None:
            continue
        parent = spans[s["parent"]]
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            return f"span {i} ({s['name']}) lies outside its parent {parent['name']}"
    for i, own in enumerate(self_times(spans)):
        if own < -1e-9:
            return f"span {i} ({spans[i]['name']}) has negative self time {own}"
    return None
