"""Exact rational arithmetic used throughout the package.

All graph weights and certificates are kept in exact rationals; floating
point only ever appears inside the eigensolver and in the simplex's
candidate ranking.  Elimination (the simplex basis inverse, kernels,
ranks, the exact PSD test) runs fraction-free over integers through
bareiss_step, and all but the PSD test through bareiss_eliminate, so
rationals (``fractions.Fraction``) appear only at the API boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Q = Fraction
HAVE_GMPY2 = False  # the benchmark reads it to name the rational backend
QZERO = Q(0)


def is_rational(x) -> bool:
    """True for the exact types we accept as weights (no floats)."""

    return isinstance(x, (int, Fraction))


def as_q(x):
    """Coerce an int, Fraction or 'p/q' string to a Fraction."""

    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Q(x)
    raise TypeError(f"not an exact rational: {x!r}")


def format_q(x) -> str:
    """Render a rational as 'p' or 'p/q' (canonical lowest terms)."""

    return str(as_q(x))


def parse_q(text: str):
    """Parse 'p' or 'p/q' into an exact rational."""

    try:
        return Q(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal: {text!r}") from exc


def numer(x) -> int:
    if type(x) is int:
        return x
    return as_q(x).numerator


def denom(x) -> int:
    if type(x) is int:
        return 1
    return as_q(x).denominator


def denominator_lcm(values) -> int:
    """lcm of the denominators of an iterable of rationals (1 for empty)."""

    out = 1
    for v in values:
        d = denom(v)
        out = out * d // gcd(out, d)
    return out


# ---------------------------------------------------------------------------
# fraction-free elimination


def integer_row(values) -> tuple[list[int], int]:
    """(values * s as ints, s) with s the lcm of the denominators."""

    s = denominator_lcm(values)
    return [numer(v) * (s // denom(v)) for v in values], s


def bareiss_step(rows, r, col, prev, targets=None) -> None:
    """One fraction-free (Bareiss) elimination step on integer rows.

    col[i] is row i's entry in the pivot column and p = col[r] the pivot.
    Every target row i != r (all rows by default) becomes
    (p * rows[i] - col[i] * rows[r]) // prev, where prev is the pivot of
    the previous step (1 before the first); the pivot row is left as it is.
    By Sylvester's identity every entry stays an integer, a minor of the
    original matrix, so the division is exact and entries grow only as
    determinants do.

    When p == prev the step is x - f * y // prev, and prev divides f * y,
    so a target row changes only where the pivot row is nonzero: only
    those entries are recomputed.  Updated rows are new lists stored in
    rows; the lists the caller passed in are never written.
    """

    p = col[r]
    prow = rows[r]
    same = p == prev
    if same:
        support = [(k, y) for k, y in enumerate(prow) if y]
    for i in range(len(rows)) if targets is None else targets:
        if i == r:
            continue
        f = col[i]
        if not f:
            if not same:
                rows[i] = [p * x // prev for x in rows[i]]
        elif same:
            row = rows[i][:]
            for k, y in support:
                row[k] -= f * y // p
            rows[i] = row
        else:
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], prow)]


def bareiss_eliminate(rows, jordan=True) -> tuple[dict[int, int], int]:
    """Fraction-free elimination of integer rows in place, column by column.

    Returns ({pivot column: its row}, last pivot).  Each pivot is one
    bareiss_step on every other row (jordan: Gauss-Jordan, after which
    each pivot column is the last pivot times a unit vector, the reduced
    row echelon form over that pivot) or on the rows below it only
    (forward elimination, which is enough for the rank).  The pivot of a
    column is the first remaining row whose entry is +-prev, a row holding
    -prev being negated first, so that the step takes bareiss_step's
    sparse update; with no such row, the first nonzero one.  Negating a
    row is negating a row of the input, so every entry stays a minor and
    every division exact; and since swapping and negating rows moves
    neither the rank nor the row space, the reduced row echelon form, or
    the adjugate |det B| B^-1 read off [B | I], is the same whichever row
    wins.
    """

    nrows = len(rows)
    pivots: dict[int, int] = {}
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == nrows:
            break
        live = [i for i in range(r, nrows) if rows[i][c]]
        if not live:
            continue
        pr = next((i for i in live if abs(rows[i][c]) == abs(prev)), live[0])
        if rows[pr][c] == -prev:
            rows[pr] = [-x for x in rows[pr]]
        rows[r], rows[pr] = rows[pr], rows[r]
        bareiss_step(rows, r, [row[c] for row in rows], prev,
                     targets=None if jordan else range(r + 1, nrows))
        prev = rows[r][c]
        pivots[c] = r
    return pivots, prev
