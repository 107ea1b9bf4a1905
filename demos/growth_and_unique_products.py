#!/usr/bin/env python3
"""Structure groups: exact matrices, Cayley-ball growth, unique products.

Run:  python demos/growth_and_unique_products.py
"""

from yangbaxter import perms, solutions, structgroup


def main():
    print("=" * 64)
    print("  Structure groups through exact affine matrices")
    print("=" * 64)

    s = solutions.verify(
        4,
        [perms.from_cycles(c, 4) for c in ["(12)", "(1324)", "(34)", "(1423)"]],
        [perms.from_cycles(c, 4) for c in ["(14)", "(1243)", "(23)", "(1342)"]],
    )
    gens = structgroup.affine_representation(s)
    print("\ngenerator x_1 as a 5x5 integer matrix:")
    for row in gens[0].to_matrix():
        print("   ", " ".join(f"{v:2d}" for v in row))

    print("\ndefining relations hold exactly, e.g. x1*x1 == x2*x4:",
          structgroup.eval_word(gens, (1, 1)) == structgroup.eval_word(gens, (2, 4)))

    print("\nball sizes (closed form for Z^4, and a BFS over exact matrices):")
    a = structgroup.ball_sizes(s, 3)
    b = structgroup.ball_sizes_via_matrices(s, 3)
    print("   closed form: ", a.values)
    print("   matrix BFS:  ", b.values)

    print("\ngrowth of free abelian structure groups:")
    for n in (1, 2):
        g = structgroup.ball_sizes(solutions.make_trivial(n), 6)
        guess = structgroup.guess_rational_series(g.values)
        print(f"   trivial solution n={n}: {g.values}")
        print(f"     conjectured series: {guess}")

    print("\nunique product property, falsified by a 14-word set:")
    x, y = structgroup.promislow_matrix_generators()
    print("   presentation relations hold for the matrix pair:",
          structgroup.promislow_relations_hold(x, y))
    verdict = structgroup.upp_falsify(structgroup.promislow_set(x, y))
    print("   matrix model:", verdict)

    wx = structgroup.eval_word(gens, structgroup.parse_word("1 2'"))
    wy = structgroup.eval_word(gens, structgroup.parse_word("1 3'"))
    verdict = structgroup.upp_falsify(structgroup.promislow_set(wx, wy))
    print("   size-4 structure group, words 1 2' and 1 3':", verdict)

    print("\npresentation and generator collapse:")
    pres = structgroup.structure_presentation(s)
    print(f"   {pres.generators} generators, {len(pres.relations)} relations")
    sp = solutions.make_permutation(
        perms.from_cycles("(12)", 4), perms.from_cycles("(34)", 4)
    )
    part = structgroup.generator_collapse(structgroup.structure_presentation(sp))
    print("   collapse for the (12)/(34) permutation solution:", part)


if __name__ == "__main__":
    main()
