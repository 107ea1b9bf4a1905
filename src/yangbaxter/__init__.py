"""Set-theoretic Yang-Baxter solutions and finite skew braces.

Submodules:
  perms        permutations as image tuples
  groups       finite groups via multiplication tables
  solutions    braid-identity solutions: verification, constructions, retraction
  braces       skew braces, ideals, radical-ring correspondences
  enumeration  isomorph-free exhaustive search for solutions and braces
  structgroup  affine structure-group representation, growth, unique products
  fileio       on-disk text container
  cli          the ybx command line
"""

from .braces import (
    BraceIdeal,
    FiniteRing,
    InvalidBraceError,
    SkewBrace,
    analyze_brace,
    associated_solution,
    brace_canonical_form,
    brace_from_radical_ring,
    find_brace_isomorphism,
    is_two_sided,
    make_almost_trivial_brace,
    make_exact_factorization,
    make_trivial_brace,
    right_nilpotency,
    ring_from_two_sided,
    solution_order_check,
    verify_brace,
)
from .enumeration import (
    EnumerationResult,
    EnumerationTask,
    corpus_report,
    enumerate_braces,
    enumerate_solutions,
)
from .groups import FiniteGroup, generate, is_transitive
from .perms import Perm, from_cycles, to_cycles
from .solutions import (
    InvalidSolutionError,
    Solution,
    SolutionReport,
    analyze,
    canonical_form,
    find_isomorphism,
    is_indecomposable,
    make_alexander,
    make_conjugation,
    make_core,
    make_permutation,
    make_trivial,
    make_wada,
    multipermutation_level,
    permutation_group,
    retract,
    verify,
)
from .structgroup import (
    AffineElement,
    GrowthResult,
    Presentation,
    RationalMatrix,
    affine_representation,
    ball_sizes,
    eval_word,
    generator_collapse,
    guess_rational_series,
    parse_word,
    promislow_matrix_generators,
    promislow_relations_hold,
    promislow_set,
    structure_presentation,
    upp_falsify,
)

__version__ = "0.1.0"
