"""Exact-arithmetic workbench for the Gassner representation of pure braids.

Subpackages:

* ``laurent`` — sparse Laurent polynomials, truncated series, matrices.
* ``braid``   — generator matrices, word parsing and evaluation.
* ``hall``    — basic commutators, the Witt rank oracle.
* ``graded``  — graded coefficient extraction, class matrices, rank/kernel.
* ``tables``  — embedded reference tables for the graded images.
* ``search``  — bounded search for exact-kernel candidates.
* ``cli``     — the ``gassner`` command-line front end.
"""

from .braid import (
    BraidLetter,
    BraidWord,
    delete_strand_reduction,
    evaluate_exact,
    evaluate_truncated,
    gassner_generator,
    gassner_generator_inverse,
    parse_word,
)
from .graded import (
    GradedClass,
    IntMatrix,
    KernelReport,
    assemble_phi_matrix,
    integer_kernel,
    integer_rank,
    kernel_report,
    phi,
    pi,
    sfold_property_check,
    verify_tables,
)
from .hall import (
    CommutatorTerm,
    basic_commutators,
    commutator_to_word,
    parse_commutator,
    witt_rank,
)
from .laurent import (
    DomainError,
    LaurentPoly,
    SquareMatrix,
    TruncatedSeries,
    UsageError,
    series_matrix_inverse,
    specialize,
)

__version__ = "0.1.0"
