"""Reference coefficient tables for graded images of basic commutators.

Each table lists, for one bracket shape, the matrix contributed to every
monomial factor.  Rows are (factor pattern, terms); a factor pattern is a
tuple of index symbols, and a term is (row symbol, col symbol, deltas,
coefficient) where the Kronecker deltas are pairs of symbols that must
coincide for the term to be active.  ``instantiate`` substitutes the
concrete indices of a basic commutator, evaluates the deltas, and sums rows
whose concrete monomials collide, yielding the expected coordinate dict of
the commutator's graded class.

The weight-4 left-normed table circulates with three suspect entries: one
term is printed twice (so summing it literally means coefficient -2,
reading the repetition as an erratum means -1), and two entries break the
r/s antisymmetry of the bracket that produces the table.  All variants are
kept: ``printed`` is the table exactly as transmitted, ``corrected``
applies the three single-character repairs (repetition dropped, sign of
the e[n,s] double-delta term flipped in the t_r*t_n^3 row and of the
e[n,v] term in the t_s*t_n^3 row, and the two t_r*t_s*t_n^2 deltas
restored), and ``corrected_dup2`` keeps the repairs but counts the
repeated term twice.  The verification report states which variant the
computation reproduces instead of silently picking one.
"""

from __future__ import annotations

from .hall import CommutatorTerm, is_left_normed, leaf_sequence, weight
from .laurent import UsageError

VARIANTS = ("corrected", "printed", "corrected_dup2")

Term = tuple[str, str, tuple[tuple[str, str], ...], int]
Row = tuple[tuple[str, ...], tuple[Term, ...]]


PHI1: tuple[Row, ...] = (
    (("n",), (("r", "r", (), 1), ("n", "r", (), -1))),
    (("r",), (("r", "n", (), -1), ("n", "n", (), 1))),
)

PHI2: tuple[Row, ...] = (
    (("s", "n"), (("s", "r", (), -1), ("n", "r", (), 1))),
    (("r", "n"), (("r", "s", (), 1), ("n", "s", (), -1))),
    (("r", "s"), (("r", "n", (), -1), ("s", "n", (), 1))),
)

PHI3: tuple[Row, ...] = (
    (
        ("s", "n", "n"),
        (
            ("s", "r", (("u", "s"),), 1),
            ("s", "r", (("u", "r"),), -1),
            ("n", "r", (("u", "s"),), -1),
            ("n", "r", (("u", "r"),), 1),
        ),
    ),
    (
        ("s", "u", "n"),
        (
            ("s", "n", (("r", "u"),), 1),
            ("u", "r", (), 1),
            ("n", "n", (("r", "u"),), -1),
            ("n", "r", (), -1),
        ),
    ),
    (
        ("r", "n", "n"),
        (
            ("r", "s", (("u", "s"),), 1),
            ("r", "s", (("u", "r"),), -1),
            ("n", "s", (("u", "r"),), 1),
            ("n", "s", (("u", "s"),), -1),
        ),
    ),
    (
        ("r", "u", "n"),
        (
            ("r", "n", (("u", "s"),), -1),
            ("u", "s", (), -1),
            ("n", "n", (("u", "s"),), 1),
            ("n", "s", (), 1),
        ),
    ),
    (
        ("r", "s", "n"),
        (
            ("r", "n", (("u", "r"),), 1),
            ("r", "u", (), 1),
            ("n", "n", (("u", "r"),), -1),
            ("s", "n", (("u", "s"),), -1),
            ("s", "u", (), -1),
            ("n", "n", (("u", "s"),), 1),
        ),
    ),
    (("r", "s", "u"), (("r", "n", (), -1), ("s", "n", (), 1))),
)

# The repeated term in the t_r*t_s*t_n^2 row of the left-normed table.
DUPLICATE_TERM: Term = ("n", "u", (("v", "s"),), -1)

PHI4_LEFT_PRINTED: tuple[Row, ...] = (
    (
        ("s", "n", "n", "n"),
        (
            ("s", "v", (("u", "s"), ("v", "r")), 1),
            ("v", "r", (("v", "s"),), -1),
            ("n", "r", (("s", "u"), ("v", "s")), 1),
            ("s", "v", (("u", "r"), ("v", "r")), -1),
            ("v", "r", (("u", "r"), ("v", "s")), 1),
            ("n", "r", (("u", "r"), ("v", "s")), -1),
            ("n", "v", (("u", "s"), ("v", "r")), -1),
            ("n", "v", (("u", "r"), ("v", "r")), -1),
        ),
    ),
    (
        ("s", "v", "n", "n"),
        (
            ("s", "n", (("u", "s"), ("r", "v")), -1),
            ("s", "n", (("u", "r"), ("r", "v")), 1),
            ("v", "r", (("u", "s"),), -1),
            ("n", "n", (("u", "s"), ("r", "v")), 1),
            ("n", "r", (("u", "s"),), 1),
            ("v", "r", (("u", "r"),), 1),
            ("n", "n", (("u", "r"), ("r", "v")), -1),
            ("n", "r", (("u", "r"),), -1),
        ),
    ),
    (
        ("u", "s", "n", "n"),
        (
            ("v", "n", (("r", "u"), ("v", "s")), -1),
            ("s", "v", (("r", "u"),), -1),
            ("n", "n", (("r", "u"), ("s", "v")), 1),
            ("u", "v", (("r", "v"),), 1),
            ("v", "r", (("u", "v"),), -1),
            ("n", "r", (("u", "v"),), 1),
            ("n", "v", (("r", "u"),), 1),
            ("n", "v", (("r", "v"),), -1),
        ),
    ),
    (
        ("u", "s", "v", "n"),
        (
            ("s", "n", (("r", "u"),), 1),
            ("u", "n", (("r", "v"),), -1),
            ("v", "n", (("r", "u"),), -1),
            ("v", "r", (), -1),
            ("n", "n", (("r", "v"),), 1),
            ("n", "r", (), 1),
        ),
    ),
    (
        ("r", "n", "n", "n"),
        (
            ("r", "v", (("u", "s"), ("v", "s")), 1),
            ("v", "s", (("u", "s"), ("v", "r")), -1),
            ("n", "s", (("u", "s"), ("v", "r")), 1),
            ("r", "v", (("u", "r"), ("v", "s")), -1),
            ("v", "s", (("u", "r"), ("v", "r")), 1),
            ("n", "s", (("u", "r"), ("v", "r")), 1),
            ("n", "v", (("u", "r"), ("s", "v")), 1),
            ("n", "v", (("u", "s"), ("v", "s")), -1),
        ),
    ),
    (
        ("r", "v", "n", "n"),
        (
            ("r", "n", (("u", "s"), ("v", "s")), -1),
            ("r", "n", (("u", "r"), ("v", "s")), 1),
            ("v", "s", (("u", "r"),), 1),
            ("n", "n", (("u", "r"), ("v", "s")), -1),
            ("n", "s", (("u", "r"),), -1),
            ("v", "s", (("u", "s"),), -1),
            ("n", "n", (("u", "s"), ("v", "s")), 1),
            ("n", "s", (("u", "s"),), 1),
        ),
    ),
    (
        ("r", "u", "n", "n"),
        (
            ("v", "n", (("u", "s"), ("v", "r")), 1),
            ("r", "v", (("u", "s"),), 1),
            ("n", "n", (("u", "s"), ("v", "r")), -1),
            ("u", "v", (("v", "s"),), -1),
            ("v", "s", (("u", "v"),), 1),
            ("n", "s", (("u", "v"),), -1),
            ("n", "v", (("u", "s"),), -1),
            ("n", "v", (("v", "s"),), 1),
        ),
    ),
    (
        ("r", "u", "v", "n"),
        (
            ("r", "n", (("u", "s"),), -1),
            ("u", "n", (("v", "s"),), 1),
            ("v", "n", (("u", "s"),), 1),
            ("v", "s", (), 1),
            ("n", "n", (("v", "s"),), -1),
            ("n", "s", (), -1),
        ),
    ),
    (
        ("r", "s", "n", "n"),
        (
            ("v", "n", (("u", "r"), ("v", "r")), -1),
            ("r", "v", (("u", "r"),), -1),
            ("n", "n", (("u", "r"), ("v", "r")), 1),
            ("r", "v", (("u", "v"),), 1),
            ("v", "u", (("v", "r"),), -1),
            ("n", "u", (("v", "r"),), 1),
            ("n", "v", (("u", "r"),), 1),
            ("v", "n", (("u", "s"), ("v", "s")), 1),
            ("s", "v", (("u", "s"),), 1),
            ("n", "n", (("u", "s"), ("v", "s")), -1),
            ("s", "v", (), -1),
            ("v", "u", (("v", "s"),), 1),
            DUPLICATE_TERM,
            DUPLICATE_TERM,
            ("n", "v", (("v", "s"),), -1),
        ),
    ),
    (
        ("r", "s", "v", "n"),
        (
            ("r", "n", (("u", "r"),), 1),
            ("r", "n", (("u", "v"),), -1),
            ("v", "n", (("u", "r"),), -1),
            ("s", "n", (("u", "s"),), -1),
            ("s", "n", (("u", "v"),), 1),
            ("v", "n", (("u", "s"),), 1),
        ),
    ),
    (
        ("r", "s", "u", "n"),
        (
            ("v", "n", (("r", "v"),), 1),
            ("v", "n", (("s", "v"),), -1),
            ("r", "v", (), 1),
            ("n", "n", (("r", "v"),), -1),
            ("s", "v", (), -1),
            ("n", "n", (("s", "v"),), 1),
        ),
    ),
    (("r", "s", "u", "v"), (("r", "n", (), -1), ("s", "n", (), 1))),
)

# (row index, term as printed, replacement); None deletes one occurrence.
PHI4_LEFT_CORRECTIONS: tuple[tuple[int, Term, Term | None], ...] = (
    (0, ("n", "v", (("u", "r"), ("v", "r")), -1), ("n", "v", (("u", "r"), ("v", "r")), 1)),
    (4, ("n", "s", (("u", "r"), ("v", "r")), 1), ("n", "s", (("u", "r"), ("v", "r")), -1)),
    (8, ("s", "v", (), -1), ("s", "v", (("u", "v"),), -1)),
    (8, ("n", "v", (("v", "s"),), -1), ("n", "v", (("u", "s"),), -1)),
    (8, DUPLICATE_TERM, None),
)

PHI4_DOUBLE: tuple[Row, ...] = (
    (
        ("s", "v", "n", "n"),
        (
            ("s", "u", (("r", "v"),), 1),
            ("v", "r", (("u", "s"),), -1),
            ("n", "r", (("u", "s"),), 1),
            ("n", "u", (("r", "v"),), -1),
        ),
    ),
    (
        ("s", "u", "n", "n"),
        (
            ("s", "v", (("r", "u"),), -1),
            ("u", "r", (("v", "s"),), 1),
            ("n", "r", (("v", "s"),), -1),
            ("n", "v", (("r", "u"),), 1),
        ),
    ),
    (
        ("s", "u", "v", "n"),
        (
            ("s", "n", (("r", "u"),), 1),
            ("s", "n", (("r", "v"),), 1),
            ("u", "r", (), 1),
            ("n", "n", (("r", "u"),), -1),
            ("v", "r", (), -1),
            ("n", "n", (("r", "v"),), 1),
        ),
    ),
    (
        ("r", "v", "n", "n"),
        (
            ("r", "u", (("s", "v"),), -1),
            ("v", "s", (("r", "u"),), 1),
            ("n", "s", (("r", "u"),), -1),
            ("n", "u", (("s", "v"),), 1),
        ),
    ),
    (
        ("r", "u", "n", "n"),
        (
            ("r", "v", (("u", "s"),), 1),
            ("u", "s", (("r", "v"),), -1),
            ("n", "s", (("r", "v"),), 1),
            ("n", "v", (("s", "u"),), -1),
        ),
    ),
    (
        ("r", "u", "v", "n"),
        (
            ("r", "n", (("u", "s"),), -1),
            ("r", "n", (("v", "s"),), 1),
            ("u", "s", (), -1),
            ("n", "n", (("u", "s"),), 1),
            ("v", "s", (), 1),
            ("n", "n", (("v", "s"),), -1),
        ),
    ),
    (
        ("r", "s", "v", "n"),
        (
            ("v", "n", (("r", "u"),), -1),
            ("r", "u", (), -1),
            ("n", "n", (("r", "u"),), 1),
            ("v", "n", (("s", "u"),), 1),
            ("s", "u", (), 1),
            ("n", "n", (("s", "u"),), -1),
        ),
    ),
    (
        ("r", "s", "u", "n"),
        (
            ("u", "n", (("r", "v"),), 1),
            ("r", "v", (), 1),
            ("n", "n", (("r", "v"),), -1),
            ("u", "n", (("s", "v"),), -1),
            ("s", "v", (), -1),
            ("n", "n", (("s", "v"),), 1),
        ),
    ),
    (("r", "s", "u", "v"), ()),
)


def _apply_corrections(rows: tuple[Row, ...]) -> tuple[Row, ...]:
    out = [list(terms) for _, terms in rows]
    for row_index, printed, replacement in PHI4_LEFT_CORRECTIONS:
        terms = out[row_index]
        terms.remove(printed)
        if replacement is not None:
            terms.append(replacement)
    return tuple(
        (factor, tuple(terms)) for (factor, _), terms in zip(rows, out)
    )


PHI4_LEFT_CORRECTED: tuple[Row, ...] = _apply_corrections(PHI4_LEFT_PRINTED)
PHI4_LEFT_CORRECTED_DUP2: tuple[Row, ...] = tuple(
    (factor, terms + (DUPLICATE_TERM,)) if index == 8 else (factor, terms)
    for index, (factor, terms) in enumerate(PHI4_LEFT_CORRECTED)
)


# shape -> (weight, leaf symbols, table or tables by variant); a weight with
# two shapes lists the left-normed one first.
_SHAPES: dict[str, tuple[int, tuple[str, ...], tuple[Row, ...] | dict]] = {
    "weight1": (1, ("r",), PHI1),
    "weight2": (2, ("r", "s"), PHI2),
    "weight3": (3, ("r", "s", "u"), PHI3),
    "weight4_left_normed": (
        4,
        ("r", "s", "u", "v"),
        {
            "printed": PHI4_LEFT_PRINTED,
            "corrected": PHI4_LEFT_CORRECTED,
            "corrected_dup2": PHI4_LEFT_CORRECTED_DUP2,
        },
    ),
    "weight4_double": (4, ("r", "s", "u", "v"), PHI4_DOUBLE),
}


def shapes_for_weight(w: int) -> tuple[str, ...]:
    return tuple(shape for shape, entry in _SHAPES.items() if entry[0] == w)


def shape_of(term: CommutatorTerm) -> str:
    w = weight(term)
    shapes = shapes_for_weight(w)
    if not shapes:
        raise UsageError(f"no reference table for weight {w}")
    return shapes[0] if is_left_normed(term) else shapes[-1]


def _assignment(shape: str, term: CommutatorTerm, n: int) -> dict[str, int]:
    if shape not in _SHAPES:
        raise UsageError(f"unknown table shape {shape}")
    leaves = leaf_sequence(term)
    symbols = _SHAPES[shape][1]
    if len(leaves) != len(symbols):
        raise UsageError(f"{term} does not have shape {shape}")
    assignment = dict(zip(symbols, leaves))
    assignment["n"] = n
    return assignment


def instantiate(
    shape: str, term: CommutatorTerm, n: int, variant: str = "corrected"
) -> dict[tuple[tuple[int, ...], int, int], int]:
    """Expected graded coordinates of one basic commutator.

    Substitutes the commutator's concrete indices into every table row,
    drops terms whose deltas fail, and sums rows whose concrete factor
    monomials coincide.
    """
    if variant not in VARIANTS:
        raise UsageError(f"unknown table variant {variant!r}")
    assignment = _assignment(shape, term, n)
    table = _SHAPES[shape][2]
    if isinstance(table, dict):
        table = table[variant]
    out: dict[tuple[tuple[int, ...], int, int], int] = {}
    for factor, terms in table:
        mono = tuple(sorted(assignment[sym] for sym in factor))
        for row_sym, col_sym, deltas, coeff in terms:
            if any(assignment[a] != assignment[b] for a, b in deltas):
                continue
            key = (mono, assignment[row_sym], assignment[col_sym])
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                del out[key]
    return out
