"""Bounded search for exact-kernel elements among graded-kernel classes.

The weight-w class matrix has a left kernel: integer combinations of basic
commutators whose degree-w data vanishes.  Words representing those
combinations are the only candidates that can evaluate to the identity, so
the harness enumerates bounded integer combinations of the kernel basis,
builds a representative word for each, and tests it.

A candidate's image is read degree by degree in the truncated ring.  Every
weight-w basic commutator g_i is congruent to I modulo the w-th power of
the ideal J = (t_1 - 1, ..., t_n - 1), so below degree 2w the image of
prod g_i^{m_i} minus I equals the integer combination sum m_i (g_i - I):
every cross term of the product has degree at least 2w.  Below that degree
a candidate sum c_k K_k of kernel basis vectors therefore costs one integer
combination of its at most ``support_bound`` kernel columns
K_d[k] = sum_i K_k[i] (g_i - I)_d, each built once per degree d, and only
when some candidate first reaches d after w (degree w is the candidate's
weight-w class, zero in the kernel).  Truncated matrix products run only
when the probe reaches degree 2w and the combination vanishes below it.  A
nonzero truncation certifies non-identity exactly, because truncation is a
ring homomorphism.  Truncated images are deviations X = M - I
(``graded._commutator_matrix``); products compose them (``graded._compose``)
and both routes read X through ``graded.graded_parts``.  Only candidates
trivial to the probed degree escalate to integer specializations of the
variables and finally to full exact evaluation.  Specialized images are
A B A^-1 B^-1 modulo p (``_specialized_commutator``).  Both recursions invert a
commutator by [a, b]^-1 = [b, a] over closed-form letters and their
inverses, and both rungs multiply one cached power per commutator, a
negative one of the inverse image, so no matrix is ever inverted.  Every
reported conclusion is exact.

The weight-5 breakdown regression is certified from the same truncated
images by the same fact: below degree 2w their quotient minus I is the
difference of their deviations, nonzero in degree 6, which proves their
exact matrices differ without an inverse image, a product or a word.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import gcd
from typing import Iterator

from .braid import BraidWord, _letter_rows, evaluate_exact
from .graded import (
    GradedClass,
    Part,
    _commutator_matrix,
    _compose,
    _primitive,
    congruent_parts,
    first_degree,
    kernel_report,
    phi,
    pi,
)
from .hall import CommutatorTerm, basic_commutators, commutator_to_word
from .laurent import _MAX_TRUNC_DEG, SquareMatrix, UsageError

_SPECIALIZATION_PRIME = 2**61 - 1
_SPECIALIZATION_COUNT = 3


@dataclass(frozen=True)
class SearchConfig:
    n: int = 4
    weight: int = 5
    coeff_bound: int = 2
    support_bound: int = 3
    degree_probe: int = 8
    budget: int = 10_000
    seed: int = 20041101

    def __post_init__(self):
        if min(self.coeff_bound, self.support_bound, self.degree_probe) < 1:
            raise UsageError("search bounds must be positive")
        if self.degree_probe > _MAX_TRUNC_DEG:
            raise UsageError(
                f"degree probe must be at most {_MAX_TRUNC_DEG}, "
                f"got {self.degree_probe}"
            )
        if self.budget < 0:
            raise UsageError("budget must be nonnegative")


@dataclass
class CandidateResult:
    """Outcome of testing one kernel combination."""

    coefficients: tuple[tuple[str, int], ...]  # (commutator text, multiplicity)
    word_length: int
    is_identity: bool
    first_nonvanishing_degree: int | None  # None: trivial up to the probe depth

    def to_dict(self) -> dict:
        return {
            "coefficients": [
                {"commutator": c, "m": str(m)} for c, m in self.coefficients
            ],
            "word_length": self.word_length,
            "is_identity": self.is_identity,
            "first_nonvanishing_degree": self.first_nonvanishing_degree,
        }


def _kernel_combinations(
    cfg: SearchConfig, dim: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Integer combinations of kernel basis vectors as ((k, c_k), ...).

    Indices increase; at most ``support_bound`` coefficients, each in
    [-coeff_bound, coeff_bound], the first positive and all coprime (a
    multiple's normalization appears earlier).  Ordered by support size,
    support, then coefficients; the budget caps the count.  ``_combine``
    makes the primitive vector ``run_search`` tests.
    """
    emitted = 0
    for size in range(1, min(cfg.support_bound, dim) + 1):
        for support in combinations(range(dim), size):
            for coeffs in _coefficient_tuples(size, cfg.coeff_bound):
                if emitted >= cfg.budget:
                    return
                if gcd(*coeffs) != 1:
                    continue
                yield tuple(zip(support, coeffs))
                emitted += 1


def _combine(
    combination: tuple[tuple[int, int], ...], kernel_basis: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """The primitive basis-coordinate vector of sum c_k K_k."""
    vector = [0] * len(kernel_basis[0])
    for index, c in combination:
        for k, v in enumerate(kernel_basis[index]):
            if v:
                vector[k] += c * v
    return _primitive(vector)


def _coefficient_tuples(size: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nonzero tuples in [-bound, bound] with a positive first entry.

    In lexicographic order, drawn from ranges so that nothing grows with
    ``bound``; of the one-entry tuples only (1,) has content 1.
    """
    if size == 1:
        return iter([(1,)])
    nonzero = (range(-bound, 0), range(1, bound + 1))
    tuples = ((c,) for c in nonzero[1])
    for _ in range(size - 1):
        tuples = (t + (c,) for t in tuples for c in chain(*nonzero))
    return tuples


def vector_to_word(vector: tuple[int, ...], n: int, w: int) -> BraidWord:
    """Concatenate commutator words in basis order with their multiplicities."""
    basis = basic_commutators(n - 1, w)
    if len(vector) != len(basis):
        raise UsageError(
            f"vector length {len(vector)} does not match basis size {len(basis)}"
        )
    word = BraidWord.identity(n)
    for term, m in zip(basis, vector):
        if m:
            word = word * commutator_to_word(term, n) ** m
    return word


# ---------------------------------------------------------------------------
# Candidate testing


@lru_cache(maxsize=None)
def _commutator_power(
    term: CommutatorTerm, n: int, max_deg: int, m: int
) -> SquareMatrix:
    """The term's image to the power m != 0 minus I; m < 0 uses the inverse."""
    sign = 1 if m > 0 else -1
    image = _commutator_matrix(term, n, max_deg, sign)
    if m == sign:
        return image
    return _compose(_commutator_power(term, n, max_deg, m - sign), image)


def _candidate_matrix(
    vector: tuple[int, ...], n: int, w: int, max_deg: int
) -> SquareMatrix:
    """The image of a nonzero candidate ``vector`` minus I, at ``max_deg``."""
    basis = basic_commutators(n - 1, w)
    powers = (_commutator_power(t, n, max_deg, m) for t, m in zip(basis, vector) if m)
    return reduce(_compose, powers)


class _LinearScreen:
    """First nonvanishing degree of kernel combinations through ``depth``.

    Requires depth <= 2w - 1.  Each weight-w basic commutator g_i is
    congruent to I modulo J^w, so in every degree d <= 2w - 1 the part of
    prod g_i^{m_i} - I is sum m_i (g_i - I)_d: every other term of the
    expanded product, including those of g_i^m beyond m (g_i - I), has
    degree at least 2w.

    The screen works in kernel coordinates.  For kernel basis vector K_k
    and degree d it caches the integer map K_d[k] = sum_i K_k[i] (g_i - I)_d,
    so a candidate sum c_k K_k costs one combination of at most
    ``support_bound`` of these columns in each degree, not one per basic
    commutator in its support.  The vector ``run_search`` tests is that
    sum divided by its content, up to sign; a nonzero scalar changes no
    vanishing pattern, so the first nonvanishing degree is the same.  It
    starts at degree w + 1: K_w[k] is the class of a kernel vector, zero.

    Degrees are built on demand: the first candidate to reach degree d
    reads (g_i - I)_d, for each i a kernel column needs, from the image
    truncated at d.  Truncation at d is a ring homomorphism, so that part
    equals the degree-d part of the image at any greater depth.
    """

    def __init__(
        self, basis, kernel: list[tuple[int, ...]], n: int, w: int, depth: int
    ):
        self.basis, self.kernel = basis, kernel
        self.n, self.w, self.depth = n, w, depth
        self._parts: dict[tuple[int, int], Part] = {}
        self._columns: dict[tuple[int, int], Part] = {}

    def _part(self, index: int, d: int) -> Part:
        """(g_index - I)_d, read from the image truncated at degree d."""
        part = self._parts.get((index, d))
        if part is None:
            image = _commutator_matrix(self.basis[index], self.n, d, 1)
            part = congruent_parts(image, self.w).get(d, {})
            self._parts[(index, d)] = part
        return part

    def _column(self, k: int, d: int) -> Part:
        """K_d[k] = sum_i K_k[i] (g_i - I)_d, without zero entries."""
        column = self._columns.get((k, d))
        if column is None:
            acc: Part = {}
            for index, m in enumerate(self.kernel[k]):
                if m:
                    for key, c in self._part(index, d).items():
                        acc[key] = acc.get(key, 0) + m * c
            column = {key: c for key, c in acc.items() if c}
            self._columns[(k, d)] = column
        return column

    def first_nonvanishing_degree(
        self, combination: tuple[tuple[int, int], ...]
    ) -> int | None:
        """Smallest degree in w+1..depth where sum c_k K_k is nonzero."""
        for d in range(self.w + 1, self.depth + 1):
            acc: Part = {}
            for k, c in combination:
                for key, v in self._column(k, d).items():
                    acc[key] = acc.get(key, 0) + c * v
            if any(acc.values()):
                return d
        return None


@lru_cache(maxsize=None)
def _specialization_points(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(seed)
    return tuple(
        tuple(rng.randrange(2, _SPECIALIZATION_PRIME - 1) for _ in range(n))
        for _ in range(_SPECIALIZATION_COUNT)
    )


def _mod_matmul(a, b):
    p, size = _SPECIALIZATION_PRIME, len(a)
    return tuple(
        tuple(
            sum(a[i][k] * b[k][j] for k in range(size)) % p for j in range(size)
        )
        for i in range(size)
    )


def _mod_identity(size):
    return tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )


@lru_cache(maxsize=None)
def _specialized_commutator(
    term: CommutatorTerm, n: int, point_index: int, seed: int, m: int
):
    """The term's image to the power m != 0 mod p; m < 0 uses the inverse.

    At m = ±1, the bracket recursion of ``graded._commutator_matrix`` over
    the closed-form letters and their inverses instantiated at the point,
    with t_i^{±1} = point[i]^{±1} mod p; other powers multiply cached ones,
    as ``_commutator_power`` does.
    """
    sign = 1 if m > 0 else -1
    if m != sign:
        factors = ((term, m - sign), (term, sign))
    elif term.is_leaf:
        point = _specialization_points(n, seed)[point_index]
        p = _SPECIALIZATION_PRIME

        def ring():
            return 1, lambda i, e: pow(point[i - 1], e, p)

        rows = _letter_rows(n, term.gen, n, sign, ring)
        return tuple(tuple(x % p for x in row) for row in rows)
    else:
        a, b = (term.left, term.right) if sign == 1 else (term.right, term.left)
        factors = ((a, 1), (b, 1), (a, -1), (b, -1))
    return reduce(
        _mod_matmul,
        (_specialized_commutator(t, n, point_index, seed, k) for t, k in factors),
    )


def _specialized_candidate_is_identity(
    vector: tuple[int, ...], n: int, w: int, seed: int
) -> bool:
    """True when every specialization of the candidate gives the identity."""
    basis = basic_commutators(n - 1, w)
    identity = _mod_identity(n)
    for point_index in range(_SPECIALIZATION_COUNT):
        powers = (
            _specialized_commutator(t, n, point_index, seed, m)
            for t, m in zip(basis, vector)
            if m
        )
        if reduce(_mod_matmul, powers, identity) != identity:
            return False
    return True


@dataclass
class SearchReport:
    config: SearchConfig
    kernel_dimension: int
    candidates: list[CandidateResult] = field(default_factory=list)
    identities_found: int = 0
    notice: str | None = None

    def to_json_lines(self) -> Iterator[str]:
        import json

        yield json.dumps(
            {
                "config": asdict(self.config),
                "kernel_dimension": self.kernel_dimension,
                **({"notice": self.notice} if self.notice else {}),
            },
            sort_keys=True,
        )
        for result in self.candidates:
            yield json.dumps(result.to_dict(), sort_keys=True)
        yield json.dumps(
            {
                "candidates_tested": len(self.candidates),
                "identities_found": self.identities_found,
            },
            sort_keys=True,
        )


def run_search(cfg: SearchConfig, progress=None) -> SearchReport:
    """Enumerate and test kernel candidates under the configured bounds.

    Each candidate's truncated image certifies non-identity whenever it is
    nontrivial below the probe depth; candidates trivial to that depth are
    retested under integer specializations and, if still unresolved, by
    full exact evaluation, so ``is_identity`` is always an exact statement.

    Candidates are walked once, as kernel combinations ((k, c_k), ...)
    (``_kernel_combinations``) tested as primitive vectors (``_combine``).
    Through degree min(probe, 2w - 1) each combination is read off the
    linear screen (``_LinearScreen``) in kernel coordinates, building a
    degree's columns only when a candidate reaches it; the product of
    deviations to the probe depth runs only when the probe reaches 2w and
    the screen finds nothing below it.  Labels come from one list of basis
    texts per run.
    """
    n, w = cfg.n, cfg.weight
    report = kernel_report(n, w)
    basis = report.row_labels
    result = SearchReport(config=cfg, kernel_dimension=len(report.kernel))
    if not report.kernel:
        result.notice = (
            f"the weight-{w} classes on {n} strands are linearly independent; "
            "there are no kernel directions to search"
        )
        return result
    labels = [str(t) for t in basis]
    word_lengths = [len(commutator_to_word(t, n)) for t in basis]
    screen = _LinearScreen(
        basis, report.kernel, n, w, min(cfg.degree_probe, 2 * w - 1)
    )
    for combination in _kernel_combinations(cfg, len(report.kernel)):
        vector = _combine(combination, report.kernel)
        first = screen.first_nonvanishing_degree(combination)
        if first is None and cfg.degree_probe > screen.depth:
            matrix = _candidate_matrix(vector, n, w, cfg.degree_probe)
            first = first_degree(matrix)
        is_identity = (
            first is None
            and _specialized_candidate_is_identity(vector, n, w, cfg.seed)
            and evaluate_exact(vector_to_word(vector, n, w)).is_identity()
        )
        support = [(k, m) for k, m in enumerate(vector) if m]
        outcome = CandidateResult(
            coefficients=tuple((labels[k], m) for k, m in support),
            word_length=sum(abs(m) * word_lengths[k] for k, m in support),
            is_identity=is_identity,
            first_nonvanishing_degree=first,
        )
        result.candidates.append(outcome)
        if is_identity:
            result.identities_found += 1
        if progress is not None:
            progress(outcome)
    return result


# ---------------------------------------------------------------------------
# Built-in regression: the weight-5 pair whose truncations collide


BREAKDOWN_WORD_TEXTS = (
    "[[[A(2,4),A(1,4)],A(1,4)],[A(3,4),A(1,4)]]",
    "[[[A(3,4),A(1,4)],A(1,4)],[A(2,4),A(1,4)]]",
)
BREAKDOWN_COMMUTATORS = ("[[[x2,x1],x1],[x3,x1]]", "[[[x3,x1],x1],[x2,x1]]")

# First total degree at which the two words' images differ; established by
# direct computation and pinned as a regression value.
EXPECTED_FIRST_DIFFERENCE_DEGREE = 6


class RegressionError(AssertionError):
    """A pinned breakdown fact failed to reproduce."""


@dataclass
class BreakdownReport:
    truncations_equal: bool
    exact_equal: bool
    classes_equal: bool
    first_difference_degree: int
    difference_class: GradedClass

    def to_dict(self) -> dict:
        return {
            "truncations_equal_at_weight": self.truncations_equal,
            "exact_matrices_equal": self.exact_equal,
            "graded_classes_equal": self.classes_equal,
            "first_difference_degree": self.first_difference_degree,
            "difference_class": self.difference_class.to_dict(),
        }


def breakdown_regression(n: int = 4) -> BreakdownReport:
    """Reproduce the weight-5 collision: equal truncations, unequal matrices.

    Asserts that the two fixed commutators agree modulo degree 5, have
    identical weight-5 classes, and first differ in degree 6; any failure
    raises ``RegressionError``.  The two images are read one depth at a
    time from 5, which ``phi`` has cached, up to the probe 8.  Below 2w =
    10 their quotient minus I is the difference of their deviations, so
    nothing is inverted or multiplied, and as truncation is a ring
    homomorphism a nonzero difference certifies the exact matrices differ
    without building them.  Returns the report with its degree-6 class;
    the tests check both images against ``BREAKDOWN_WORD_TEXTS``.
    """
    from .hall import parse_commutator

    if n != 4:
        raise UsageError("the breakdown regression is specific to 4 strands")
    c1 = parse_commutator(BREAKDOWN_COMMUTATORS[0])
    c2 = parse_commutator(BREAKDOWN_COMMUTATORS[1])
    classes_equal = phi(c1, n) == phi(c2, n)

    probe = max(EXPECTED_FIRST_DIFFERENCE_DEGREE + 2, 8)
    assert probe < 10, "cross terms of weight-5 images start in degree 10"
    for depth in range(5, probe + 1):
        x1, x2 = (_commutator_matrix(c, n, depth, 1) for c in (c1, c2))
        difference = x1 - x2
        first = first_degree(difference)
        if first is not None:
            break
    truncations_equal = first is None or first > 5
    exact_equal = first is None

    if not truncations_equal:
        raise RegressionError("weight-5 truncations no longer agree")
    if not classes_equal:
        raise RegressionError("weight-5 classes no longer agree")
    if first != EXPECTED_FIRST_DIFFERENCE_DEGREE:
        raise RegressionError(
            f"first difference degree {first} != {EXPECTED_FIRST_DIFFERENCE_DEGREE}"
        )
    difference_class = pi(difference, first)
    return BreakdownReport(
        truncations_equal=truncations_equal,
        exact_equal=exact_equal,
        classes_equal=classes_equal,
        first_difference_degree=first,
        difference_class=difference_class,
    )
