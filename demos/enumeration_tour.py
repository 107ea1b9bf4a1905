#!/usr/bin/env python3
"""Exhaustive enumeration at small sizes and what the corpus looks like.

Run:  python demos/enumeration_tour.py   (about a second)
"""

import time

from yangbaxter import braces
from yangbaxter.enumeration import (
    EnumerationTask,
    corpus_report,
    enumerate_braces,
    enumerate_solutions,
)


def main():
    print("=" * 64)
    print("  Isomorph-free enumeration")
    print("=" * 64)

    sizes = [1, 2, 3, 4]
    print("\nsolutions by size (one representative per isomorphism class):")
    print(f"  {'n':>2} {'involutive':>10} {'non-inv':>8} {'total':>6} {'secs':>6}")
    for n in sizes:
        t0 = time.time()
        result = enumerate_solutions(EnumerationTask(size=n, mode="all", jobs=2))
        c = result.counts()
        print(f"  {n:>2} {c['involutive']:>10} {c['non_involutive']:>8} "
              f"{c['total']:>6} {time.time() - t0:>6.1f}")

    t0 = time.time()
    result = enumerate_solutions(EnumerationTask(size=5, mode="involutive", jobs=2))
    print(f"   5 {result.total:>10} {'-':>8} {'-':>6} {time.time() - t0:>6.1f}"
          "   (involutive only)")

    print("\ninvolutive corpus statistics:")
    for n in (2, 3, 4):
        result = enumerate_solutions(EnumerationTask(size=n, mode="involutive"))
        stats = corpus_report(result.classes)
        print(f"  n={n}: {stats.total} classes, "
              f"{stats.multipermutation} multipermutation "
              f"({100 * stats.multipermutation_fraction:.0f}%), "
              f"{stats.indecomposable} indecomposable, "
              f"{stats.diagonal_cycle} with full-cycle diagonal")

    print("\nskew braces by order:")
    for n in range(1, 9):
        t0 = time.time()
        classes = enumerate_braces(n)
        abelian = sum(1 for A in classes if A.is_abelian_type)
        two_sided = sum(1 for A in classes if braces.is_two_sided(A))
        print(f"  n={n}: {len(classes):>3} classes "
              f"({abelian} abelian type, {two_sided} two-sided) "
              f"[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
