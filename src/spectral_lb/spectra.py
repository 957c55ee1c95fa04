"""Symmetric eigenvalues by LAPACK and exact rational certificate machinery.

Eigenvalues come from LAPACK (numpy.linalg.eigh) on the floating image
of the matrix, which delivers the full spectrum with orthonormal
eigenvectors; they serve as hints and displayed values.  Exact claims
such as "-2 is the smallest eigenvalue" never rest on floating point.
All exact work runs over integers on s A, with s the lcm of the entries'
denominators.  r is an eigenvalue when some integer vector w != 0 has
s A w = s r w: the floats propose w, the echelon vector of the LAPACK
eigenvectors near r scaled to integers, and one sparse integer product
checks it.  Only when no vector checks does the rank of s (A - rI), from
fraction-free forward elimination (rationals.bareiss_step), decide.  r
is the smallest eigenvalue when a single LDL^T finds s (A - rI) positive
semidefinite and singular.  Only kernel vectors, which the decomposition
certificates read, need the full Gauss-Jordan rational_nullspace.
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


def _integer_image(a) -> tuple[list[list[tuple[int, int]]], int]:
    """(s A as sparse integer rows, s) for a graph value or a square matrix.

    s is the lcm of the entries' denominators and row i lists the pairs
    (j, s a_ij) with a_ij != 0.  A graph is read from its weights, so no
    dense matrix is built.
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
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    ints, s = _integer_matrix(a)
    return [[(j, x) for j, x in enumerate(row) if x] for row in ints], s


def _singular_at(rows, k) -> bool:
    """Is the square integer matrix (sparse rows) minus kI singular?  Forward rank."""

    b = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            b[i][j] = x
        b[i][i] -= k
    return len(bareiss_eliminate(b, jordan=False)[0]) < len(b)


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


def _near(spec: Spectrum, r) -> np.ndarray:
    """The eigenvectors of spec whose eigenvalues lie within 1e-8 of r."""

    return spec.vectors[:, np.abs(spec.values - float(r)) < 1e-8]


def is_exact_eigenvalue(mat, r) -> bool:
    """Exact membership test: is the rational r an eigenvalue of the symmetric matrix?

    With t the lcm of the denominators of A and r, r is one exactly when
    t A w = t r w for an integer vector w != 0.  The LAPACK eigenvectors
    for eigenvalues within 1e-8 of r propose w (_is_eigenvalue); when none
    is certified, the rank of t (A - rI) from fraction-free forward
    elimination decides.
    """

    rows, s = _integer_image(mat)
    spec = spectrum(mat)
    r = as_q(r)
    t = lcm(s, r.denominator)
    rows = [[(j, x * (t // s)) for j, x in row] for row in rows]
    return _is_eigenvalue(rows, r.numerator * (t // r.denominator), _near(spec, r))


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


def verified_integer_eigenvalues(a, spec: Spectrum | None = None) -> list[int]:
    """Integers that are certified exactly to be eigenvalues of a graph or matrix.

    Each integer r within 1e-8 of a LAPACK eigenvalue is a candidate.  The
    integer image s A is built once, as sparse rows, and r is kept when an
    echelon vector of the eigenvectors near r, scaled to integers, passes
    s A w = s r w in integers; only when no vector passes does the forward
    rank of s (A - rI) decide (_is_eigenvalue).  spec, when given, is the
    Spectrum of the same graph or matrix, which spares a second LAPACK
    call; like the hint of lambda_min_exact its floats only propose.
    """

    if spec is None:
        spec = spectrum(a)
    rows, s = _integer_image(a)
    out = []
    for r in sorted({round(float(v)) for v in spec.values}):
        near = _near(spec, r)
        if near.shape[1] and _is_eigenvalue(rows, s * r, near):
            out.append(r)
    return out
