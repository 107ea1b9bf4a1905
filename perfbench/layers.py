"""Per-layer metrics from the spans of traced operations.

A layer is a `yangbaxter` module; a span's layer is the first part of its
name, and `bench` is the benchmark's own root span.  Self time is a span's
duration minus its direct children's, so over the span tree each child's
time is counted once and the layers' self times of one operation sum to its
root span's time, `trace.wall_s`, by construction.  That sum is a partition
of the wall time only if the spans nest, which `tracer.span_problem` checks
on every traced operation.  All time metrics come from one operation, the
traced one with the median wall time.  Names and units of the metrics are
those listed in BENCHMARK.json; `op_metrics` only computes the values.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import TRACED, self_times, span_problem

# every layer that has a traced function, and `bench`, the root span's
LAYERS = sorted({name.split(".")[0] for _, _, name, _ in TRACED} | {"bench"})


def op_metrics(spans: list[dict], classes: int) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def dur(i: int) -> float:
        return spans[i]["end"] - spans[i]["start"]

    def total(name: str) -> float:
        return sum(dur(i) for i in by_name[name])

    def self_of(name: str) -> float:
        return sum(own[i] for i in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    def per_class(count: float) -> float:
        return count / classes if classes else 0.0

    # diagnose calls made by the search itself, not by class rebuilds
    search_diag = [
        i for i in by_name["solutions.diagnose"]
        if spans[i]["parent"] is not None
        and spans[spans[i]["parent"]]["name"] == "enumeration.enumerate_solutions"
    ]
    canon_calls = calls("solutions.canonical_form")
    balls = [spans[i]["info"] for i in by_name["structgroup.ball_sizes"]]
    # BFS expands levels 0..R-1, each element by the 2n generators and
    # inverses; n follows from the first sphere, v[1] = 1 + 2n
    products = sum((v[1] - 1) * v[-2] for v in balls if len(v) > 1)
    ball_s = total("structgroup.ball_sizes")
    layer_self: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        layer_self[s["name"].split(".")[0]] += own[i]

    m = {
        "enumeration.search_self_s": self_of("enumeration.enumerate_solutions"),
        "enumeration.subtrees": sum(spans[i]["info"] for i in by_name["enumeration.subtree_tasks"]),
        "enumeration.subtree_tasks_s": total("enumeration.subtree_tasks"),
        "enumeration.brace_search_self_s": self_of("enumeration.enumerate_braces"),
        "solutions.canonical_form_s": total("solutions.canonical_form"),
        "solutions.canonical_form_calls": canon_calls,
        "solutions.canonical_calls_per_class": per_class(canon_calls),
        "solutions.diagnose_s": total("solutions.diagnose"),
        "solutions.diagnose_calls": calls("solutions.diagnose"),
        "solutions.leaf_yield": canon_calls / len(search_diag) if search_diag else 0.0,
        "solutions.rebuild_s": total("solutions.solution_from_canonical"),
        "solutions.rebuilds_per_class": per_class(calls("solutions.solution_from_canonical")),
        "braces.canonical_form_s": total("braces.brace_canonical_form"),
        "braces.canonical_form_calls": calls("braces.brace_canonical_form"),
        "braces.labeled_per_class": per_class(calls("braces.brace_canonical_form")),
        "braces.verify_brace_s": total("braces.verify_brace"),
        "groups.automorphisms_s": total("groups.automorphisms"),
        "groups.groups_of_order_s": total("groups.groups_of_order"),
        "structgroup.ball_sizes_s": ball_s,
        "structgroup.ball_elements": sum(v[-1] for v in balls),
        "structgroup.products": products,
        "structgroup.products_per_s": products / ball_s if ball_s else 0.0,
        "structgroup.affine_representation_s": total("structgroup.affine_representation"),
        "structgroup.guess_s": total("structgroup.guess_rational_series"),
        "structgroup.upp_s": total("structgroup.promislow_set") + total("structgroup.upp_falsify"),
        "fileio.stream_to_text_s": total("fileio.stream_to_text"),
        "fileio.stream_bytes": sum(spans[i]["info"] for i in by_name["fileio.stream_to_text"]),
        "fileio.parse_s": total("fileio.parse_file"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    m["trace.wall_s"] = total("bench.op")
    return m


def classes_of(result: dict) -> int:
    if "stream" in result:
        return result["stream"].count("kind: solution")
    return len(result["braces"])


def per_layer(results: list[dict]) -> dict[str, float]:
    """Metrics of the median traced operation, plus the tracing overhead.

    Raises ValueError if an operation's spans do not nest under one root.
    """
    traced = [r for r in results if r["trace"]]
    untraced = [r for r in results if not r["trace"]
                and traced and r["jobs"] == traced[0]["jobs"]]
    if not traced or not untraced:
        raise ValueError("need a traced and an untraced operation that succeeded")
    for r in traced:
        problem = span_problem(r["spans"], "bench.op")
        if problem is not None:
            raise ValueError(f"operation {r['op']}: {problem}")
    traced.sort(key=lambda r: r["wall"])
    rep = traced[(len(traced) - 1) // 2]
    m = op_metrics(rep["spans"], classes_of(rep))
    m["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                             - statistics.median(r["wall"] for r in untraced))
    return m
