"""Symmetric eigenvalues by LAPACK and exact rational certificate machinery.

Eigenvalues come from LAPACK (numpy.linalg.eigh) on the floating image
of the matrix, which delivers the full spectrum with orthonormal
eigenvectors; they serve as hints and displayed values.  Exact claims
such as "-2 is the smallest eigenvalue" never rest on floating point:
they are certified with exact elimination (eigenvalue membership) plus
an exact LDL^T positive-semidefiniteness check of the shifted matrix,
both fraction-free over integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Multigraph, SimpleGraph, WeightedGraph
from .rationals import (
    Q,
    QZERO,
    as_q,
    bareiss_step,
    denom,
    denominator_lcm,
    integer_row,
    numer,
)

MAX_ORDER = 2048


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
    """Full spectrum of a symmetric matrix (rational entries or floats)."""

    af = np.array(a, dtype=float)
    if af.shape == (0,):  # [] is the 0 x 0 matrix
        af = af.reshape(0, 0)
    if af.ndim != 2 or af.shape[0] != af.shape[1]:
        raise ValueError("matrix must be square")
    n = af.shape[0]
    if n > MAX_ORDER:
        raise ValueError(f"matrix order {n} exceeds the supported cap {MAX_ORDER}")
    if not np.array_equal(af, af.T):
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(af)
    resid = 0.0
    if n:
        resid = float(np.max(np.abs(af @ vectors - vectors * values[None, :])))
    return Spectrum(values, vectors, resid)


def _graph_matrix(g) -> np.ndarray:
    if isinstance(g, (SimpleGraph, Multigraph, WeightedGraph)):
        if g.n == 0:
            raise ValueError("empty graph has no eigenvalues")
        return g.adjacency(dtype=float)
    return g


def lambda_min(g) -> float:
    """Smallest adjacency eigenvalue of a simple, multi- or weighted graph."""

    return spectrum(_graph_matrix(g)).lambda_min


def lambda_max(g) -> float:
    """Largest adjacency eigenvalue."""

    return spectrum(_graph_matrix(g)).lambda_max


# ---------------------------------------------------------------------------
# exact rational linear algebra


def _q_matrix(mat) -> list[list]:
    return [[as_q(x) for x in row] for row in mat]


def rational_nullspace(mat) -> list[list]:
    """Exact basis of the kernel of a rational matrix via Gaussian elimination.

    Returns a (possibly empty) list of rational vectors; the basis vectors
    carry a 1 in their free coordinate, so the result is deterministic.
    Rows are scaled to integers and reduced by fraction-free Gauss-Jordan
    (one bareiss_step per pivot), which leaves every pivot entry equal to
    the last pivot p, so the reduced row echelon form is the result over p.
    """

    a = [integer_row(row)[0] for row in mat]
    if not a:
        return []
    nrows, ncols = len(a), len(a[0])
    pivot_of_col: dict[int, int] = {}
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        bareiss_step(a, r, [row[c] for row in a], prev)
        prev = a[r][c]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    for fc in free_cols:
        vec = [QZERO] * ncols
        vec[fc] = Q(1)
        for c, pr in pivot_of_col.items():
            vec[c] = Q(-a[pr][fc], prev)
        basis.append(vec)
    return basis


def rational_rank(mat) -> int:
    if not mat:
        return 0
    return len(mat[0]) - len(rational_nullspace(mat))


def psd_check(p, tol: float = 1e-10):
    """Floating PSD verdict via the eigensolver.

    Returns (True, None) when positive semidefinite within tol, else
    (False, witness) where the witness is an eigenvector of the most
    negative eigenvalue.
    """

    spec = spectrum(p)
    if len(spec.values) == 0:
        return True, None
    scale = 1.0 + float(np.max(np.abs(spec.values)))
    if spec.values[0] >= -tol * scale:
        return True, None
    return False, spec.vectors[:, 0].copy()


def psd_check_exact(mat) -> bool:
    """Exact rational PSD decision by LDL^T with symmetric pivoting.

    At each step the largest remaining diagonal entry is pivoted; a
    negative diagonal entry, or a zero diagonal with a nonzero residual
    row, certifies an indefinite matrix.  The matrix is scaled to integers
    and eliminated fraction-free (bareiss_step), so the remaining block is
    the rational Schur complement times the last pivot, which is a positive
    principal minor: every sign and every ordering is the rational one.
    """

    a = _q_matrix(mat)
    n = len(a)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j in range(i + 1, n):
            if row[j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    s = denominator_lcm(x for row in a for x in row)
    a = [[numer(x) * (s // denom(x)) for x in row] for row in a]
    active = list(range(n))
    prev = 1
    while active:
        piv = max(active, key=lambda i: a[i][i])
        if a[piv][piv] < 0:
            return False
        if a[piv][piv] == 0:
            # all remaining diagonals are <= 0 here, hence all are zero
            for i in active:
                if a[i][i] < 0:
                    return False
                for j in active:
                    if a[i][j] != 0:
                        return False
            return True
        active.remove(piv)
        bareiss_step(a, piv, [row[piv] for row in a], prev, targets=active)
        prev = a[piv][piv]
    return True


def is_exact_eigenvalue(mat, r) -> bool:
    """Exact membership test: is the rational r an eigenvalue of the matrix?"""

    a = _q_matrix(mat)
    r = as_q(r)
    for i in range(len(a)):
        a[i][i] = a[i][i] - r
    return bool(rational_nullspace(a))


def lambda_min_exact(mat, hint: float | None = None):
    """Certify the smallest eigenvalue as an exact rational, when it is one.

    With s the lcm of the entries' denominators, s A is an integer matrix
    with a monic integer characteristic polynomial, so every rational
    eigenvalue of A is k/s for an integer k.  The one candidate
    r = round(s * hint)/s wins when A - rI is exactly PSD and singular.
    Returns the rational or None (an irrational minimum).  A rational
    minimum is missed only when the float hint is off by at least 1/(2s),
    which needs entries of s A near 2^50.
    """

    a = _q_matrix(mat)
    if hint is None:
        hint = spectrum(a).lambda_min
    s = denominator_lcm(x for row in a for x in row)
    r = Q(round(s * hint), s)
    for i in range(len(a)):
        a[i][i] -= r
    if psd_check_exact(a) and rational_nullspace(a):
        return r
    return None


def verified_integer_eigenvalues(mat) -> list[int]:
    """Integers that are certified (by exact elimination) to be eigenvalues."""

    spec = spectrum(mat)
    out = []
    for r in sorted({round(float(v)) for v in spec.values}):
        if any(abs(float(v) - r) < 1e-8 for v in spec.values):
            if is_exact_eigenvalue(mat, Q(r)):
                out.append(int(r))
    return out
