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
when some candidate first needs it after degree w (degree w is the
candidate's weight-w class, zero in the kernel).  Each column is packed
into one integer, its entries in fields of a per-degree width wide enough
that the combination's packed sum is zero only when the combination is;
the width grows when a candidate's coefficients need it.  A candidate's
vector is kept as its support, and made dense only for the rungs after
the screen.  Truncated matrix products run only
when the probe reaches degree 2w and the combination vanishes below it.  A
nonzero truncation certifies non-identity exactly, because truncation is a
ring homomorphism.  Truncated images are deviations X = M - I
(``graded._commutator_matrix``); products compose them (``graded._compose``).
The screen reads (g_i - I)_d through ``graded._degree_coords`` and the
product route its first degree through ``graded.first_degree``, both from
the packed series keys.  Only candidates
trivial to the probed degree escalate to integer specializations of the
variables and finally to full exact evaluation.  Specialized images are
A B A^-1 B^-1 modulo p (``_specialized_commutator``).  Both recursions invert a
commutator by [a, b]^-1 = [b, a] over closed-form letters and their
inverses, and both rungs use one cached power per commutator, a negative
one of the inverse image, so no matrix is ever inverted.  A mod-p power is
stored as packed rows, one integer per row (``_push``).  The rung
multiplies no powers together: it pushes probe row vectors through them,
u <- u P mod p, first u = (1, ..., n) and then the unit vectors.  A probe
that comes back changed proves the product is not I; every unit vector
coming back unchanged proves it is.  Every reported conclusion is exact.

The weight-5 breakdown regression is the same screen on two terms: below
degree 2w the quotient of the pair's images minus I is the combination
(g_1 - I) - (g_2 - I), nonzero in degree 6, which proves their exact
matrices differ without an inverse image, a product or a word.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import gcd
from operator import mul
from typing import Iterator

from .braid import BraidWord, _letter_rows, evaluate_exact
from .graded import (
    Coord,
    GradedClass,
    _commutator_matrix,
    _compose,
    _degree_coords,
    _dense,
    _primitive,
    first_degree,
    kernel_report,
    phi,
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
    makes the primitive support of the vector ``run_search`` tests.
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
    combination: tuple[tuple[int, int], ...],
    kernel_supports: list[tuple[tuple[int, int], ...]],
) -> tuple[tuple[int, int], ...]:
    """The primitive support ((i, m_i), ...) of sum c_k K_k, i increasing.

    ``kernel_supports`` holds each kernel basis vector's support, so only
    nonzero entries are read and written.
    """
    sums: dict[int, int] = {}
    for index, c in combination:
        for k, v in kernel_supports[index]:
            sums[k] = sums.get(k, 0) + c * v
    return _primitive({k: v for k, v in sums.items() if v})


def _support(vector: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The nonzero entries (i, v_i) of ``vector``, i increasing."""
    return tuple((k, v) for k, v in enumerate(vector) if v)


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


def _word_length(term: CommutatorTerm) -> int:
    """len(commutator_to_word(term, n)), without building the word.

    A leaf is one letter and [a, b] expands to a b a^-1 b^-1 with no
    cancellation, so len [a, b] = 2 (len a + len b).
    """
    if term.is_leaf:
        return 1
    return 2 * (_word_length(term.left) + _word_length(term.right))


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


class _PackedDegree:
    """One degree's kernel columns, each packed into one integer.

    ``index`` gives each coordinate a position p, in the order columns
    bring them; a column with entries v_p packs to P = sum v_p 2^(width p).
    P is Z-linear, and injective on vectors whose entries all have
    |e| < 2^width: at the lowest nonzero position p, P = 0 would need
    e_p = -2^width (rest), so |e_p| >= 2^width or e_p = 0.  ``peak`` is
    the largest |entry| over the packed columns.
    """

    __slots__ = ("index", "width", "peak", "columns")

    def __init__(self):
        self.index: dict[Coord, int] = {}
        self.width = self.peak = 0
        self.columns: dict[int, int] = {}


class _LinearScreen:
    """First nonvanishing degree of kernel combinations through ``depth``.

    Requires depth <= 2w - 1.  Each weight-w basic commutator g_i is
    congruent to I modulo J^w, so in every degree d <= 2w - 1 the part of
    prod g_i^{m_i} - I is sum m_i (g_i - I)_d: every other term of the
    expanded product, including those of g_i^m beyond m (g_i - I), has
    degree at least 2w.

    The screen works in kernel coordinates.  For kernel basis vector K_k
    and degree d it caches the integer map K_d[k] = sum_i K_k[i] (g_i - I)_d
    (``_column``), and packs it once into one integer P(K_d[k]) over a
    per-degree index of coordinates (``_PackedDegree``).  P is Z-linear, so
    a candidate sum c_k K_k vanishes in degree d exactly when
    sum c_k P(K_d[k]) does, provided the packing is injective on that
    combination: its entries are at most (sum |c_k|) · peak_d in absolute
    value, so 2^width_d must exceed that.  Each candidate checks this bound;
    a candidate that needs more widens degree d to twice the bits it needs,
    which covers needs up to that need squared, and repacks the degree's
    columns from the cached maps.  The width is read from the data, never
    set.  A candidate so costs at most ``support_bound`` integer
    multiply-adds per degree.  The vector ``run_search`` tests is that sum
    divided by its content, up to sign; a nonzero scalar changes no
    vanishing pattern, so the first nonvanishing degree is the same.  It
    starts at degree w + 1: K_w[k] is the class of a kernel vector, zero.

    Degrees and columns are built on demand, one column per (k, d) the
    first time a candidate needs it: that column reads (g_i - I)_d, for
    each i in the support of K_k, from the image truncated at d.
    Truncation at d is a ring homomorphism, so that part equals the
    degree-d part of the image at any greater depth.
    """

    def __init__(
        self, basis, kernel: list[tuple[int, ...]], n: int, w: int, depth: int
    ):
        self.basis, self.kernel = basis, kernel
        self.n, self.w, self.depth = n, w, depth
        self._parts: dict[tuple[int, int], dict[Coord, int]] = {}
        self._columns: dict[tuple[int, int], dict[Coord, int]] = {}
        self._degrees: dict[int, _PackedDegree] = {}

    def _part(self, index: int, d: int) -> dict[Coord, int]:
        """(g_index - I)_d, read from the image truncated at degree d."""
        part = self._parts.get((index, d))
        if part is None:
            image = _commutator_matrix(self.basis[index], self.n, d, 1)
            part = self._parts[(index, d)] = _degree_coords(image, d, self.w)
        return part

    def _column(self, k: int, d: int) -> dict[Coord, int]:
        """K_d[k] = sum_i K_k[i] (g_i - I)_d, without zero entries."""
        column = self._columns.get((k, d))
        if column is None:
            acc: dict[Coord, int] = {}
            for index, m in enumerate(self.kernel[k]):
                if m:
                    for key, c in self._part(index, d).items():
                        acc[key] = acc.get(key, 0) + m * c
            column = {key: c for key, c in acc.items() if c}
            self._columns[(k, d)] = column
        return column

    def _pack(self, k: int, d: int) -> int:
        """P(K_d[k]) at degree d's current width, indexing new coordinates."""
        degree = self._degrees[d]
        index, width = degree.index, degree.width
        packed = 0
        for key, v in self._column(k, d).items():
            p = index.get(key)
            if p is None:
                p = index[key] = len(index)
            packed += v << (width * p)
        return packed

    def _packed_columns(
        self, d: int, combination: tuple[tuple[int, int], ...], norm: int
    ) -> dict[int, int]:
        """Degree d's packed columns, injective on ``combination``'s sum.

        Packs the combination's missing columns; when norm · peak_d
        reaches 2^width_d, with ``norm`` = sum |c_k|, widens the degree
        first and repacks its columns.
        """
        degree = self._degrees.get(d)
        if degree is None:
            degree = self._degrees[d] = _PackedDegree()
        columns = degree.columns
        missing = [k for k, _ in combination if k not in columns]
        for k in missing:
            entries = self._column(k, d).values()
            degree.peak = max(degree.peak, max(map(abs, entries), default=0))
        need = norm * degree.peak
        if need >> degree.width:
            degree.width = 2 * need.bit_length()
            missing = [*columns, *missing]
        for k in missing:
            columns[k] = self._pack(k, d)
        return columns

    def first_nonvanishing_degree(
        self, combination: tuple[tuple[int, int], ...]
    ) -> int | None:
        """Smallest degree in w+1..depth where sum c_k K_k is nonzero."""
        norm = sum(abs(c) for _, c in combination)
        for d in range(self.w + 1, self.depth + 1):
            columns = self._packed_columns(d, combination, norm)
            if sum(c * columns[k] for k, c in combination):
                return d
        return None


@lru_cache(maxsize=None)
def _specialization_points(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(seed)
    return tuple(
        tuple(rng.randrange(2, _SPECIALIZATION_PRIME - 1) for _ in range(n))
        for _ in range(_SPECIALIZATION_COUNT)
    )


def _field_width(n: int) -> int:
    """Bits F per field of a packed row, so that n (p - 1)^2 < 2^F."""
    return (n * (_SPECIALIZATION_PRIME - 1) ** 2).bit_length()


def _push(u, rows: tuple[int, ...], width: int) -> list[int]:
    """u P mod p, for residues u and P's packed rows R_i = sum_j P_ij 2^(F j).

    Field j of sum u_i R_i is sum_i u_i P_ij <= n (p - 1)^2 < 2^F, so no
    field carries into the next.
    """
    acc, mask, v = sum(map(mul, u, rows)), (1 << width) - 1, []
    for _ in rows:
        v.append((acc & mask) % _SPECIALIZATION_PRIME)
        acc >>= width
    return v


@lru_cache(maxsize=None)
def _specialized_commutator(
    term: CommutatorTerm, n: int, point_index: int, seed: int, m: int
) -> tuple[int, ...]:
    """The term's image to the power m != 0 mod p, as packed rows (``_push``).

    m < 0 uses the inverse.  At m = ±1, the bracket recursion of
    ``graded._commutator_matrix`` over the closed-form letters and their
    inverses at the point, t_i^{±1} = point[i]^{±1} mod p; other powers
    multiply cached ones: row i of a product is row i of its first factor
    pushed through the others.
    """
    sign, width = (1 if m > 0 else -1), _field_width(n)
    shifts = range(0, width * n, width)
    if m != sign:
        factors = ((term, m - sign), (term, sign))
    elif term.is_leaf:
        point = _specialization_points(n, seed)[point_index]
        p = _SPECIALIZATION_PRIME

        def ring():
            return 1, lambda i, e: pow(point[i - 1], e, p)

        rows = _letter_rows(n, term.gen, n, sign, ring)
        return tuple(sum(x % p << s for x, s in zip(r, shifts)) for r in rows)
    else:
        a, b = (term.left, term.right) if sign == 1 else (term.right, term.left)
        factors = ((a, 1), (b, 1), (a, -1), (b, -1))
    first, *rest = (
        _specialized_commutator(t, n, point_index, seed, k) for t, k in factors
    )
    mask, rows = (1 << width) - 1, []
    for row in first:
        v = [row >> s & mask for s in shifts]
        for image in rest:
            v = _push(v, image, width)
        rows.append(sum(x << s for x, s in zip(v, shifts)))
    return tuple(rows)


def _probes(n: int) -> Iterator[tuple[int, ...]]:
    """Probe row vectors, all fixed by M exactly when M = I.

    First (1, ..., n), whose distinct entries a matrix other than I
    rarely fixes; then e_1 ... e_n, needed only when it is fixed: e_i M is
    row i of M, so M fixes every e_i only if it is I.
    """
    yield tuple(range(1, n + 1))
    for i in range(n):
        yield tuple(int(i == j) for j in range(n))


def _fixes(u: tuple[int, ...], factors) -> bool:
    """True when u P_1 ... P_k = u mod p, one ``_push`` per factor."""
    v, width = u, _field_width(len(u))
    for rows in factors:
        v = _push(v, rows, width)
    return list(v) == list(u)


def _specialized_candidate_is_identity(
    support: tuple[tuple[int, int], ...], n: int, w: int, seed: int
) -> bool:
    """True when every specialization of the candidate ((i, m_i), ...) is I.

    At each point the probes (``_probes``) are pushed through the cached
    powers.  u M != u proves M != I, so False is exact; True means every
    unit vector is fixed at every point, which is M = I there.
    """
    basis = basic_commutators(n - 1, w)
    for point_index in range(_SPECIALIZATION_COUNT):
        factors = [
            _specialized_commutator(basis[i], n, point_index, seed, m)
            for i, m in support
        ]
        if not all(_fixes(u, factors) for u in _probes(n)):
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
    (``_kernel_combinations``), each made into the primitive support
    ((i, m_i), ...) of its vector (``_combine``) over the kernel basis
    vectors' supports.  Through degree min(probe, 2w - 1) each combination
    is read off the linear screen (``_LinearScreen``) in kernel
    coordinates: at most ``support_bound`` multiply-adds of packed columns
    per degree, each column packed when a candidate first needs it and the
    packing widened when a candidate's coefficients need it.  Labels and
    word lengths are read from the support, through one list of basis texts
    and one of word lengths per run (``_word_length``), and so is the
    specialization rung.  A dense vector is made only for the product of
    deviations to the probe depth, which runs only when the probe reaches
    2w, and for the exact rung.
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
    word_lengths = [_word_length(t) for t in basis]
    kernel = [_support(v) for v in report.kernel]
    screen = _LinearScreen(
        basis, report.kernel, n, w, min(cfg.degree_probe, 2 * w - 1)
    )
    for combination in _kernel_combinations(cfg, len(kernel)):
        support = _combine(combination, kernel)
        first = screen.first_nonvanishing_degree(combination)
        is_identity = False
        if first is None:
            if cfg.degree_probe > screen.depth:
                vector = _dense(support, len(basis))
                first = first_degree(_candidate_matrix(vector, n, w, cfg.degree_probe))
            is_identity = (
                first is None
                and _specialized_candidate_is_identity(support, n, w, cfg.seed)
                and evaluate_exact(
                    vector_to_word(_dense(support, len(basis)), n, w)
                ).is_identity()
            )
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

    Both commutators are I mod J^5, so their truncations at degree 5 agree
    exactly when their weight-5 classes do; the pair must then first differ
    in degree 6.  Any failure raises ``RegressionError``.  The pair is read
    as a two-term ``_LinearScreen``, basis (c1, c2) and kernel vector
    (1, -1), probed to degree 8: below 2w = 10 the quotient of the images
    minus I is the difference of their deviations, so no matrix is
    inverted, multiplied or subtracted.  The screen's first nonvanishing
    degree is the first difference degree, and its column there is the
    difference class.  As truncation is a ring homomorphism, a nonzero
    difference certifies that the exact matrices differ without building
    them.  The tests check both images against ``BREAKDOWN_WORD_TEXTS``.
    """
    from .hall import parse_commutator

    if n != 4:
        raise UsageError("the breakdown regression is specific to 4 strands")
    c1 = parse_commutator(BREAKDOWN_COMMUTATORS[0])
    c2 = parse_commutator(BREAKDOWN_COMMUTATORS[1])
    if phi(c1, n) != phi(c2, n):
        raise RegressionError("weight-5 truncations no longer agree")

    screen = _LinearScreen((c1, c2), [(1, -1)], n, 5, 8)
    first = screen.first_nonvanishing_degree(((0, 1),))
    if first != EXPECTED_FIRST_DIFFERENCE_DEGREE:
        raise RegressionError(
            f"first difference degree {first} != {EXPECTED_FIRST_DIFFERENCE_DEGREE}"
        )
    return BreakdownReport(
        truncations_equal=True,
        exact_equal=False,
        classes_equal=True,
        first_difference_degree=first,
        difference_class=GradedClass(n, first, screen._column(0, first)),
    )
