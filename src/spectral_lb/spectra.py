"""Symmetric eigenvalues by LAPACK and exact rational certificate machinery.

Eigenvalues come from LAPACK (numpy.linalg.eigh) on the floating image
of the matrix, which delivers the full spectrum with orthonormal
eigenvectors; they serve as hints and displayed values.  Exact claims
such as "-2 is the smallest eigenvalue" never rest on floating point.

Every exact question is one about A - rI, for A a graph value or a
symmetric rational matrix and r a rational, and there are four entries:

* psd_check_exact(a, r): is A - rI positive semidefinite, so that every
  eigenvalue is at least r?  One LDL^T.
* rational_nullspace(a, r): a basis of the kernel of A - rI, the vectors
  that equality certificates read.  Fraction-free Gauss-Jordan.
* lambda_min_exact(a, spec): the smallest eigenvalue as a rational, or
  None when it is irrational.  One LDL^T at the one rational candidate
  near the minimum of the spectrum.
* verified_integer_eigenvalues(a, spec): which integers are eigenvalues?
  An integer eigenvector first, the forward rank of A - rI second.

A reaches exact arithmetic in one place: _integer_image reads it, from
a graph's weights or a matrix checked square and exactly symmetric, as
s A in sparse integer rows, with s the lcm of the entries' denominators,
and _shifted turns those rows into the dense integer rows of s A - kI
that every elimination (rationals.bareiss_step) runs on.
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


def _require_symmetric(a) -> None:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(i + 1, n)):
        raise ValueError("matrix is not symmetric")


def _integer_image(a) -> tuple[list[list[tuple[int, int]]], int]:
    """(s A as sparse integer rows, s) for a graph value or a symmetric rational matrix.

    s is the lcm of the entries' denominators and row i lists the pairs
    (j, s a_ij) with a_ij != 0.  A graph is read from its weights, so no
    dense matrix is built; a matrix must be square and exactly symmetric,
    and a float entry raises TypeError.
    """

    if isinstance(a, (SimpleGraph, Multigraph, WeightedGraph)):
        h = as_weighted(a)
        s = lcm(*(w.denominator for w in h.weights.values()))
        rows = [[] for _ in range(h.n)]
        for (u, v), w in h.weights.items():
            x = w.numerator * (s // w.denominator)
            rows[u].append((v, x))
            if u != v:
                rows[v].append((u, x))
        return rows, s
    _require_symmetric(a)
    s = denominator_lcm(x for row in a for x in row)
    return [[(j, numer(x) * (s // denom(x))) for j, x in enumerate(row) if x] for row in a], s


def _shifted(rows, k) -> list[list[int]]:
    """The dense integer rows of the square matrix given by sparse rows, minus kI."""

    b = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            b[i][j] = x
        b[i][i] -= k
    return b


def _integer_shift(a, r) -> list[list[int]]:
    """t (A - rI) as dense integer rows, with t the lcm of the denominators of A and r.

    A positive multiple of A - rI has its inertia and its kernel.  A float
    r raises TypeError (rationals.as_q).
    """

    rows, s = _integer_image(a)
    r = as_q(r)
    t = lcm(s, r.denominator)
    f = t // s
    return _shifted([[(j, x * f) for j, x in row] for row in rows], r.numerator * (t // r.denominator))


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


def psd_check_exact(a, r) -> bool:
    """Is A - rI positive semidefinite, i.e. is every eigenvalue of the graph or matrix A at least r?

    One LDL^T (_psd_rank) of t (A - rI) in integers (_integer_shift).
    """

    return _psd_rank(_integer_shift(a, r)) is not None


def rational_nullspace(a, r) -> list[list]:
    """Exact basis of the kernel of A - rI, for a graph value or a symmetric rational matrix A.

    Returns a (possibly empty) list of rational vectors.  Each carries a 1
    in its free coordinate and 0 in the other free coordinates, so the
    basis is fixed by the kernel and does not change when the matrix is
    scaled.  t (A - rI) in integers (_integer_shift) is reduced by
    fraction-free Gauss-Jordan (bareiss_eliminate), which leaves every
    pivot entry equal to the last pivot p, so the reduced row echelon form
    is the result over p.
    """

    b = _integer_shift(a, r)
    pivots, prev = bareiss_eliminate(b)
    basis = []
    for fc in range(len(b)):
        if fc in pivots:
            continue
        vec = [QZERO] * len(b)
        vec[fc] = Q(1)
        for c, pr in pivots.items():
            vec[c] = Q(-b[pr][fc], prev)
        basis.append(vec)
    return basis


def _singular_at(rows, k) -> bool:
    """Is the square integer matrix (sparse rows) minus kI singular?  Forward rank."""

    return len(bareiss_eliminate(_shifted(rows, k), jordan=False)[0]) < len(rows)


def _echelon(v: np.ndarray) -> np.ndarray:
    """The echelon basis of the column span of v (n x c).

    Gauss-Jordan with complete pivoting on v^T: row i of the result holds
    1 at its pivot and 0 at the other pivots, which fixes it within the
    span, so it is rational when the span is a rational subspace.  Rows
    left below 1e-8 after elimination are dependent and dropped.
    """

    m = v.T.copy()
    pivots = []
    for i in range(len(m)):
        rest = np.abs(m[i:])
        r, c = divmod(int(rest.argmax()), m.shape[1])
        if rest[r, c] < 1e-8:
            m = m[:i]
            break
        if r:
            m[[i, i + r]] = m[[i + r, i]]
        m[i] /= m[i, c]
        col = m[:, c].copy()
        col[i] = 0
        m -= col[:, None] * m[i]
        pivots.append(c)
    m[:, pivots] = np.eye(len(m))
    return m


def _integer_vector(w: np.ndarray) -> list[int] | None:
    """d w as integers, for the smallest d <= 2^20 that makes d w integral within 1e-7.

    Each pass multiplies d by the denominator of the entry furthest from
    an integer (continued fractions, Fraction.limit_denominator), so d
    is the lcm of the entries' denominators; None when no d <= 2^20 works.
    """

    d = 1
    while True:
        y = w * d
        off = np.abs(y - np.rint(y))
        i = int(np.argmax(off))
        if off[i] < 1e-7:
            return [int(x) for x in np.rint(y)]
        q = Q(float(y[i])).limit_denominator(2**20 // d).denominator
        if q == 1:
            return None
        d *= q


def _is_eigenvector(rows, k, w) -> bool:
    """Does the nonzero integer vector w satisfy (rows) w = k w exactly?"""

    return any(w) and all(
        sum(x * w[j] for j, x in row) == k * wi for row, wi in zip(rows, w)
    )


def _is_eigenvalue(rows, k, vectors: np.ndarray) -> bool:
    """Is the integer k an eigenvalue of the integer matrix given by sparse rows?

    vectors (n x c) are the float eigenvectors that LAPACK computed near
    the eigenvalue k.  First step: each echelon vector of their span
    (_echelon), scaled to integers (_integer_vector), is tried, and one
    that passes _is_eigenvector proves k.  Second step, only when none
    passes: the forward rank of rows - kI (_singular_at) decides.
    """

    for w in _echelon(vectors):
        v = _integer_vector(w)
        if v is not None and _is_eigenvector(rows, k, v):
            return True
    return _singular_at(rows, k)


def lambda_min_exact(a, spec: Spectrum | None = None):
    """The smallest eigenvalue of a graph or symmetric rational matrix, exactly, when it is rational.

    With s the lcm of the entries' denominators, s A is an integer matrix
    with a monic integer characteristic polynomial, so every rational
    eigenvalue of A is k/s for an integer k.  The one candidate
    r = round(s m)/s, with m the minimum of spec (the spectrum of A,
    computed here when not given), wins when s A - kI is PSD and
    singular, which one LDL^T decides (_psd_rank).  Returns the rational
    or None (an irrational minimum).  A rational minimum is missed only
    when the float m is off by at least 1/(2s), which needs entries of
    s A near 2^50.
    """

    rows, s = _integer_image(a)
    if spec is None:
        spec = spectrum(a)
    k = round(s * spec.lambda_min)
    rank = _psd_rank(_shifted(rows, k))
    if rank is not None and rank < len(rows):
        return Q(k, s)
    return None


def verified_integer_eigenvalues(a, spec: Spectrum | None = None) -> list[int]:
    """Integers that are certified exactly to be eigenvalues of a graph or matrix.

    Each integer r within 1e-8 of a LAPACK eigenvalue is a candidate.  The
    integer image s A is built once, as sparse rows, and r is kept when an
    echelon vector of the eigenvectors within 1e-8 of r, scaled to
    integers, passes s A w = s r w in integers; only when no vector passes
    does the forward rank of s (A - rI) decide (_is_eigenvalue).  spec,
    when given, is the Spectrum of the same graph or matrix, which spares
    a second LAPACK call; as in lambda_min_exact its floats only propose.
    """

    rows, s = _integer_image(a)
    if spec is None:
        spec = spectrum(a)
    out = []
    for r in sorted({round(float(v)) for v in spec.values}):
        near = spec.vectors[:, np.abs(spec.values - r) < 1e-8]
        if near.shape[1] and _is_eigenvalue(rows, s * r, near):
            out.append(r)
    return out
