"""Symmetric eigenvalues by LAPACK and exact rational certificate machinery.

Eigenvalues come from LAPACK (numpy.linalg.eigh) on the floating image
of the matrix, which delivers the full spectrum with orthonormal
eigenvectors; they serve as hints and displayed values.  Exact claims
such as "-2 is the smallest eigenvalue" never rest on floating point.
All exact work runs fraction-free over integers on s A, with s the lcm
of the entries' denominators, through rationals.bareiss_step: r is an
eigenvalue when the rank of s (A - rI), from forward elimination, is
below n, and r is the smallest one when a single LDL^T finds s (A - rI)
positive semidefinite and singular.  Only kernel vectors, which the
decomposition certificates read, need the full Gauss-Jordan
rational_nullspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .graphs import Multigraph, SimpleGraph, WeightedGraph, as_weighted, require_order
from .rationals import (
    Q,
    QZERO,
    as_q,
    bareiss_eliminate,
    bareiss_step,
    denom,
    denominator_lcm,
    integer_row,
    numer,
)

MAX_ORDER = 2048
# `spectral-lb spectrum` certifies integer eigenvalues exactly up to this order
EXACT_MAX_ORDER = 64


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with aligned orthonormal eigenvectors.

    values are ascending, vectors[:, i] belongs to values[i], and residual
    is max |A v - lambda v| over all pairs.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    @property
    def lambda_min(self) -> float:
        return float(self.values[0])

    @property
    def lambda_max(self) -> float:
        return float(self.values[-1])


def spectrum(a) -> Spectrum:
    """Full spectrum of a graph value or a symmetric matrix (rational entries or floats).

    The order is capped at MAX_ORDER.  A graph's order is checked before
    its adjacency matrix is built, so a graph above the cap costs nothing.
    """

    if isinstance(a, (SimpleGraph, Multigraph, WeightedGraph)):
        require_order("spectrum", a.n, MAX_ORDER)
        a = (a if isinstance(a, SimpleGraph) else as_weighted(a)).adjacency(dtype=float)
    af = np.array(a, dtype=float)
    if af.shape == (0,):  # [] is the 0 x 0 matrix
        af = af.reshape(0, 0)
    if af.ndim != 2 or af.shape[0] != af.shape[1]:
        raise ValueError("matrix must be square")
    n = af.shape[0]
    require_order("spectrum", n, MAX_ORDER)
    if not np.array_equal(af, af.T):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(af)
    resid = 0.0
    if n:
        resid = float(np.max(np.abs(af @ vectors - vectors * values[None, :])))
    return Spectrum(values, vectors, resid)


def _nonempty_spectrum(g) -> Spectrum:
    spec = spectrum(g)
    if not len(spec.values):
        raise ValueError("empty graph has no eigenvalues")
    return spec


def lambda_min(g) -> float:
    """Smallest adjacency eigenvalue of a simple, multi- or weighted graph."""

    return _nonempty_spectrum(g).lambda_min


def lambda_max(g) -> float:
    """Largest adjacency eigenvalue."""

    return _nonempty_spectrum(g).lambda_max


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _integer_matrix(mat) -> tuple[list[list[int]], int]:
    """(s * mat as integer rows, s) with s the lcm of all the entries' denominators."""

    s = denominator_lcm(x for row in mat for x in row)
    return [[numer(x) * (s // denom(x)) for x in row] for row in mat], s


def rational_nullspace(mat) -> list[list]:
    """Exact basis of the kernel of a rational matrix via Gaussian elimination.

    Returns a (possibly empty) list of rational vectors; the basis vectors
    carry a 1 in their free coordinate, so the result is deterministic.
    Rows are scaled to integers and reduced by fraction-free Gauss-Jordan
    (bareiss_eliminate), which leaves every pivot entry equal to the last
    pivot p, so the reduced row echelon form is the result over p.
    Callers that only need to know whether the kernel is trivial use
    rational_rank instead.
    """

    a = [integer_row(row)[0] for row in mat]
    ncols = len(a[0]) if a else 0
    pivots, prev = bareiss_eliminate(a)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [QZERO] * ncols
        vec[fc] = Q(1)
        for c, pr in pivots.items():
            vec[c] = Q(-a[pr][fc], prev)
        basis.append(vec)
    return basis


def rational_rank(mat) -> int:
    """Rank of a rational matrix, each row scaled to integers, by forward elimination."""

    return len(bareiss_eliminate([integer_row(row)[0] for row in mat], jordan=False)[0])


def _require_symmetric(a) -> None:
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")


def _psd_rank(a) -> int | None:
    """Rank of a symmetric integer matrix when it is PSD, else None.

    LDL^T with symmetric pivoting: at each step the largest remaining
    diagonal entry is pivoted; a negative diagonal entry, or a zero
    diagonal with a nonzero residual row, certifies an indefinite matrix.
    Elimination is fraction-free (bareiss_step), so the remaining block is
    the rational Schur complement times the last pivot, which is a positive
    principal minor: every sign and every ordering is the rational one.
    Each positive pivot adds one to the rank; the zero-diagonal exit leaves
    a zero block, so a PSD matrix is singular exactly when it takes that
    exit.  a is consumed.
    """

    active = list(range(len(a)))
    prev = 1
    while active:
        piv = max(active, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return None
        if a[piv][piv] == 0:
            # all remaining diagonals are <= 0 here, so PSD needs a zero block
            if any(a[i][j] for i in active for j in active):
                return None
            return len(a) - len(active)
        active.remove(piv)
        bareiss_step(a, piv, [row[piv] for row in a], prev, targets=active)
        prev = a[piv][piv]
    return len(a)


def psd_check_exact(mat) -> bool:
    """Exact rational PSD decision: an LDL^T of the matrix scaled to integers (_psd_rank)."""

    a, _ = _integer_matrix(mat)
    _require_symmetric(a)
    return _psd_rank(a) is not None


def _singular_at(a, k) -> bool:
    """Is the square integer matrix a - kI singular?  a is left as it is."""

    b = [row[:] for row in a]
    for i, row in enumerate(b):
        row[i] -= k
    return len(bareiss_eliminate(b, jordan=False)[0]) < len(b)


def is_exact_eigenvalue(mat, r) -> bool:
    """Exact membership test: is the rational r an eigenvalue of the matrix?

    r is one exactly when t (A - rI) is singular, with t the lcm of the
    denominators of A and r: an integer matrix whose rank comes from
    fraction-free forward elimination.
    """

    a, s = _integer_matrix(mat)
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    r = as_q(r)
    t = lcm(s, r.denominator)
    a = [[x * (t // s) for x in row] for row in a]
    return _singular_at(a, r.numerator * (t // r.denominator))


def lambda_min_exact(mat, hint: float | None = None):
    """Certify the smallest eigenvalue as an exact rational, when it is one.

    With s the lcm of the entries' denominators, s A is an integer matrix
    with a monic integer characteristic polynomial, so every rational
    eigenvalue of A is k/s for an integer k.  The one candidate
    r = round(s * hint)/s wins when s A - kI is PSD and singular, which
    one LDL^T decides (_psd_rank).  Returns the rational or None (an
    irrational minimum).  A rational minimum is missed only when the float
    hint is off by at least 1/(2s), which needs entries of s A near 2^50.
    """

    a, s = _integer_matrix(mat)
    _require_symmetric(a)
    if hint is None:
        hint = spectrum(mat).lambda_min
    k = round(s * hint)
    for i, row in enumerate(a):
        row[i] -= k
    rank = _psd_rank(a)
    if rank is not None and rank < len(a):
        return Q(k, s)
    return None


def verified_integer_eigenvalues(mat, values=None) -> list[int]:
    """Integers that are certified (by exact elimination) to be eigenvalues.

    Each integer within 1e-8 of a LAPACK eigenvalue is a candidate r, and
    is kept when s (A - rI) is singular (_singular_at), with the integer
    image s A built once.  values, when given, are the float eigenvalues
    of the matrix, which spares a second LAPACK call; like the hint of
    lambda_min_exact they only choose the candidates.
    """

    if values is None:
        values = spectrum(mat).values
    a, s = _integer_matrix(mat)
    out = []
    for r in sorted({round(float(v)) for v in values}):
        if any(abs(float(v) - r) < 1e-8 for v in values):
            if _singular_at(a, s * r):
                out.append(int(r))
    return out
