"""Eigensolver accuracy against the LAPACK oracle, plus the exact machinery."""

import numpy as np
import pytest

from corpus import random_connected_graph
from spectral_lb.catalog import (
    circulant,
    circulant_spectrum,
    complete_multipartite,
    cycle,
    dodecahedron,
    icosahedron,
    johnson,
    petersen,
)
from spectral_lb.graphs import bipartition, power_multigraph, build_simple, build_weighted
from spectral_lb.rationals import Q, bareiss_eliminate, integer_row
from spectral_lb.spectra import (
    lambda_min,
    lambda_min_exact,
    psd_check_exact,
    rational_nullspace,
    spectrum,
    verified_integer_eigenvalues,
)

GOLDEN = (1 + 5**0.5) / 2


def test_k3_spectrum():
    s = spectrum([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert np.allclose(s.values, [-1, -1, 2], atol=1e-12)


def test_petersen_spectrum():
    s = spectrum(petersen().adjacency())
    want = [-2.0] * 4 + [1.0] * 5 + [3.0]
    assert np.allclose(s.values, want, atol=1e-9)


def test_c5_lambda_min():
    assert lambda_min(cycle(5)) == pytest.approx(-GOLDEN, abs=1e-12)


def test_dodecahedron_icosahedron():
    assert lambda_min(dodecahedron()) == pytest.approx(-np.sqrt(5), abs=1e-10)
    assert lambda_min(icosahedron()) == pytest.approx(-np.sqrt(5), abs=1e-10)


def test_balanced_multipartite_exact_minus_part():
    g = complete_multipartite([3, 3, 1])
    assert lambda_min_exact(g.adjacency(dtype=object)) == Q(-3)


def test_spectrum_matches_lapack_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 10)
        a = np.array([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], dtype=float)
        a = (a + a.T) / 2
        got = spectrum(a)
        want = np.linalg.eigvalsh(a)
        assert np.allclose(got.values, want, atol=1e-9)
        # vectors orthonormal and residual tight
        eye = got.vectors.T @ got.vectors
        assert np.allclose(eye, np.eye(n), atol=1e-10)
        assert got.residual <= 1e-8 * (1 + np.max(np.abs(got.values)))


def test_rayleigh_quotients_reproduce_eigenvalues(rng):
    g = random_connected_graph(rng, 8)
    s = spectrum(g.adjacency())
    a = g.adjacency()
    for i, lam in enumerate(s.values):
        v = s.vectors[:, i]
        assert v @ a @ v == pytest.approx(lam, abs=1e-8)


def test_block_diagonal_merges(rng):
    g1 = random_connected_graph(rng, 4)
    g2 = random_connected_graph(rng, 5)
    block = np.zeros((9, 9))
    block[:4, :4] = g1.adjacency()
    block[4:, 4:] = g2.adjacency()
    merged = sorted(
        list(spectrum(g1.adjacency()).values) + list(spectrum(g2.adjacency()).values)
    )
    assert np.allclose(spectrum(block).values, merged, atol=1e-10)


def test_bipartite_spectrum_symmetric(rng):
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 8))
        if bipartition(g) is None:
            continue
        vals = spectrum(g.adjacency()).values
        assert np.allclose(vals, sorted(-v for v in vals), atol=1e-10)


def test_odd_power_eigenvalue_law(rng):
    for k in (3, 5):
        g = random_connected_graph(rng, 7)
        lam = lambda_min(g)
        lam_k = lambda_min(power_multigraph(g, k))
        assert lam_k == pytest.approx(lam**k, rel=1e-6, abs=1e-9)


def test_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectrum([[0, 1], [0, 0]])


@pytest.mark.parametrize("a", [[[0, 1, 0], [1, 0, 1]], [[0, 1], [1]], [1, 2], np.zeros((2, 3))])
def test_spectrum_rejects_non_square(a):
    with pytest.raises(ValueError):
        spectrum(a)


def test_spectrum_order_guard(monkeypatch):
    import spectral_lb.spectra as spectra

    monkeypatch.setattr(spectra, "MAX_ORDER", 3)
    with pytest.raises(ValueError, match="exceeds"):
        spectra.spectrum(np.zeros((4, 4)))


@pytest.mark.parametrize("a", [[], np.zeros((0, 0))])
def test_spectrum_of_empty_matrix(a):
    s = spectrum(a)
    assert s.values.shape == (0,) and s.vectors.shape == (0, 0) and s.residual == 0.0


def test_spectrum_one_by_one():
    s = spectrum([[Q(-3, 2)]])
    assert s.values.tolist() == [-1.5] and abs(s.vectors[0, 0]) == 1.0
    assert s.residual == 0.0


def test_rational_and_object_entries_match_float():
    mat = [[Q(1, 2), Q(-1, 3), 0], [Q(-1, 3), 2, Q(5, 4)], [0, Q(5, 4), Q(-7, 3)]]
    want = spectrum(np.array([[float(x) for x in row] for row in mat])).values
    assert np.array_equal(spectrum(mat).values, want)
    assert np.array_equal(spectrum(np.array(mat, dtype=object)).values, want)


def test_large_circulant_against_closed_form():
    s = spectrum(circulant(200, 3).adjacency())
    assert np.allclose(s.values, circulant_spectrum(200, 3), atol=1e-9)
    assert np.allclose(s.vectors.T @ s.vectors, np.eye(200), atol=1e-10)
    assert s.residual <= 1e-10


def test_repeated_eigenvalues_keep_orthonormal_vectors():
    # J(6,3) has eigenvalues 9, 3, -1, -3 with multiplicities 1, 5, 9, 5
    s = spectrum(johnson(6, 3).adjacency())
    assert np.allclose(s.values, [-3] * 5 + [-1] * 9 + [3] * 5 + [9], atol=1e-10)
    assert np.allclose(s.vectors.T @ s.vectors, np.eye(20), atol=1e-10)
    assert s.residual <= 1e-10


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        lambda_min(build_simple(0, []))


def test_nullspace_identity_and_ones():
    assert rational_nullspace([[1, 0], [0, 1]], 0) == []
    basis = rational_nullspace([[1] * 4] * 4, 0)
    assert len(basis) == 3
    for vec in basis:
        assert sum(vec) == 0
    # J_3 / 9 has the eigenvalue 1/3 on the all-ones vector
    assert rational_nullspace([[Q(1, 9)] * 3] * 3, Q(1, 3)) == [[1, 1, 1]]


def test_nullspace_johnson_kernel():
    # vertex-clique incidence of J(5,2): kernel dimension C(5,2) - C(5,1)
    from itertools import combinations

    verts = list(combinations(range(5), 2))
    index = {frozenset(s): i for i, s in enumerate(verts)}
    rows = []
    for c in range(5):
        row = [0] * len(verts)
        for x in range(5):
            if x != c:
                row[index[frozenset((c, x))]] = 1
        rows.append(row)
    kernel = rational_nullspace(_gram(rows, len(verts)), 0)
    assert len(kernel) == 5
    assert rational_rank(rows) == 5


def test_nullspace_solutions_verify(rng):
    for _ in range(10):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        mat = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        for vec in rational_nullspace(_gram(mat, nc), 0):
            for row in mat:
                assert sum(a * x for a, x in zip(row, vec)) == 0


def test_psd_exact():
    pet = petersen()
    assert psd_check_exact(pet, -2)
    assert psd_check_exact(pet.adjacency(dtype=object), -2)
    # a shift above lambda_min leaves an indefinite matrix
    assert not psd_check_exact(pet, Q(-3, 2))
    assert not psd_check_exact(cycle(5), Q(-3, 2))
    assert psd_check_exact([[0, 0], [0, 0]], 0)
    assert not psd_check_exact([[0, 1], [1, 0]], 0)


def test_exact_eigenvalue_and_integers():
    pet = petersen().adjacency(dtype=object)
    assert verified_integer_eigenvalues(pet) == [-2, 1, 3]
    assert lambda_min_exact(pet) == Q(-2)
    # irrational minimum: no certificate
    assert lambda_min_exact(cycle(5).adjacency(dtype=object)) is None


def test_exact_rational_noninteger_eigenvalue():
    # weighted matrix with smallest eigenvalue -3/2
    mat = [[Q(-3, 2), 0], [0, Q(5)]]
    assert lambda_min_exact(mat) == Q(-3, 2)
    path = build_weighted(3, {(0, 1): Q(3, 61), (1, 2): Q(4, 61)})
    assert lambda_min_exact(path.adjacency_q()) == Q(-5, 61)


# ---------------------------------------------------------------------------
# fraction-free kernels against a plain Fraction reference

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st


def rational_rank(mat):
    """Rank of a rational matrix, each row scaled to integers, by forward elimination."""

    return len(bareiss_eliminate([integer_row(row)[0] for row in mat], jordan=False)[0])


def _reference_nullspace(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    nrows, ncols = len(a), len(a[0])
    pivot_of_col, r = {}, 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_of_col[c] = r
        r += 1
        if r == nrows:
            break
    basis = []
    for fc in (c for c in range(ncols) if c not in pivot_of_col):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for c, pr in pivot_of_col.items():
            vec[c] = -a[pr][fc]
        basis.append(vec)
    return basis


def _reference_psd(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    active = list(range(len(a)))
    while active:
        piv = max(active, key=lambda i: a[i][i])
        d = a[piv][piv]
        if d < 0:
            return False
        if d == 0:
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(piv)
        for i in active:
            f = a[i][piv] / d
            for j in active:
                a[i][j] -= f * a[piv][j]
    return True


_entry = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda c: st.lists(st.lists(_entry, min_size=c, max_size=c), min_size=1, max_size=5)
    ),
    st.booleans(),
)
def test_nullspace_matches_fraction_reference(mat, duplicate):
    # M^T M has the rational kernel of M, so the reference basis of M is its basis
    if duplicate:
        mat = mat + [[2 * x for x in mat[0]]]
    assert rational_nullspace(_gram(mat, len(mat[0])), 0) == _reference_nullspace(mat)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    _entry,
)
def test_psd_check_matches_fraction_reference(g, shift):
    # Gram matrices are PSD; a diagonal shift makes many of them indefinite
    mat = _gram(g, len(g[0]))
    assert psd_check_exact(mat, shift) == _reference_psd(_shifted(mat, shift))


def _shifted(mat, r):
    return [[x - (r if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(mat)]


def _gram(g, n):
    # G^T G: PSD, and singular when G has fewer than n rows
    return [[sum((Fraction(row[i]) * row[j] for row in g), Fraction(0)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.one_of(_entry, st.sampled_from([0, Fraction(1)])), min_size=c, max_size=c),
            min_size=1,
            max_size=6,
        )
    ),
    st.integers(0, 2),
)
def test_rank_matches_fraction_reference(mat, copies):
    # repeated rows, and rows mixing int 0 with Fraction(1) as the edge-list parser writes them
    mat = mat + [list(mat[-1]) for _ in range(copies)]
    assert rational_rank(mat) == len(mat[0]) - len(_reference_nullspace(mat))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=0, max_size=n + 1),
        )
    ),
    _entry,
    st.lists(_entry, min_size=15, max_size=15),
)
def test_lambda_min_exact_matches_eigvalsh(shape, r, noise):
    n, g = shape
    gram = _gram(g, n)
    mat = _shifted(gram, -r)
    want = np.linalg.eigvalsh(np.array(mat, dtype=float))[0]
    got = lambda_min_exact(mat)
    if len(g) < n:  # G^T G is singular, so its minimum 0 moves to r
        assert got == r
    if got is not None:
        assert abs(float(got) - want) < 1e-9
        assert _reference_psd(_shifted(mat, got)) and _reference_nullspace(_shifted(mat, got))
    # a random symmetric matrix: any certified minimum agrees with LAPACK
    it = iter(noise)
    sym = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = next(it)
    got = lambda_min_exact(sym)
    if got is not None:
        assert abs(float(got) - np.linalg.eigvalsh(np.array(sym, dtype=float))[0]) < 1e-9
        assert _reference_nullspace(_shifted(sym, got))


def test_verified_integer_eigenvalues_on_parsed_johnson():
    from spectral_lb.graph_io import format_edge_list, load_graph_text

    g = load_graph_text(format_edge_list(johnson(6, 2)))
    a = g.adjacency(dtype=object)
    assert any(type(x) is Fraction for row in a for x in row)
    assert verified_integer_eigenvalues(a) == [-2, 2, 8]


# ---------------------------------------------------------------------------
# integer eigenvalues: eigenvector certificate first, forward rank second

from spectral_lb import spectra
from spectral_lb.spectra import Spectrum, _echelon, _integer_image, _integer_vector, _is_eigenvector

_weight = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _weighted_graphs(draw):
    # loops, p/q weights, and isolated vertices that give integer eigenvalues of high multiplicity
    n = draw(st.integers(1, 30))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex, _weight), max_size=2 * n))
    return build_weighted(n, {(min(u, v), max(u, v)): w for u, v, w in pairs})


@st.composite
def _integer_symmetric(draw):
    # G^T G - rI has the eigenvalue -r whenever G has fewer rows than columns
    n = draw(st.integers(1, 8))
    g = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n))
    noise = draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n))
    mat = _shifted(_gram(g, n), draw(st.integers(-3, 3)))
    if draw(st.booleans()):
        mat = [[x + noise[i * n + j] + noise[j * n + i] for j, x in enumerate(row)] for i, row in enumerate(mat)]
    return [[int(x) for x in row] for row in mat]


def _bareiss_only(mat, values):
    """The candidates of verified_integer_eigenvalues, each decided by forward rank alone."""

    ints = {round(float(v)) for v in values if abs(float(v) - round(float(v))) < 1e-8}
    return sorted(r for r in ints if rational_rank(_shifted(mat, r)) < len(mat))


@settings(max_examples=60, deadline=None)
@given(_weighted_graphs())
def test_verified_integer_eigenvalues_match_bareiss_on_weighted_graphs(g):
    spec = spectrum(g)
    want = _bareiss_only(g.adjacency_q(), spec.values)
    assert verified_integer_eigenvalues(g, spec) == want
    assert verified_integer_eigenvalues(g.adjacency_q()) == want


@settings(max_examples=150, deadline=None)
@given(_integer_symmetric())
def test_verified_integer_eigenvalues_match_bareiss_on_integer_matrices(mat):
    assert verified_integer_eigenvalues(mat) == _bareiss_only(mat, spectrum(mat).values)


@settings(max_examples=60, deadline=None)
@given(_weighted_graphs(), st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_graph_and_its_matrix_give_the_same_answers(g, r):
    aq = g.adjacency_q()
    lam = lambda_min_exact(g)
    assert lam == lambda_min_exact(aq)
    # at a rational minimum the kernel is not trivial
    for shift in (r,) if lam is None else (r, lam):
        mat = _shifted(aq, shift)
        assert psd_check_exact(g, shift) == _reference_psd(mat)
        assert rational_nullspace(g, shift) == _reference_nullspace(mat)


def test_exact_entries_reject_bad_matrices():
    # the float images of the second matrix are equal, so only an exact check sees it
    for entry in (
        lambda a: psd_check_exact(a, 0),
        lambda a: rational_nullspace(a, 0),
        lambda_min_exact,
        verified_integer_eigenvalues,
    ):
        with pytest.raises(ValueError, match="matrix must be square"):
            entry([[1, 0, 0]])
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            entry([[1, 1], [1 + Q(1, 10**30), 1]])
    for entry in (psd_check_exact, rational_nullspace):
        with pytest.raises(TypeError):
            entry(petersen(), -2.0)


def _count_rank_calls(monkeypatch):
    calls = []
    singular_at = spectra._singular_at

    def counted(rows, k):
        calls.append(k)
        return singular_at(rows, k)

    monkeypatch.setattr(spectra, "_singular_at", counted)
    return calls


def test_integer_eigenvalues_of_every_graph_kind_need_no_rank(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    pet = petersen()
    for a in (pet, pet.adjacency(dtype=object), build_weighted(10, {e: Q(1) for e in pet.edges()})):
        assert verified_integer_eigenvalues(a) == [-2, 1, 3]
    assert verified_integer_eigenvalues(power_multigraph(cycle(4), 2)) == [0, 4]
    assert calls == []


def test_eigenvector_with_one_entry_changed_is_rejected():
    pet = petersen()
    rows, s = _integer_image(pet)
    spec = spectrum(pet)
    for r in (-2, 1, 3):
        w = _integer_vector(_echelon(spec.vectors[:, np.abs(spec.values - r) < 1e-8])[0])
        assert _is_eigenvector(rows, s * r, w)
        for i in range(len(w)):
            bad = list(w)
            bad[i] += 1
            assert not _is_eigenvector(rows, s * r, bad)
    assert not _is_eigenvector(rows, 0, [0] * 10)  # the zero vector proves nothing


def test_doctored_value_is_excluded(monkeypatch):
    # the Perron value 3 offered as 2: the all-ones vector fails, and the rank excludes 2
    calls = _count_rank_calls(monkeypatch)
    spec = spectrum(petersen())
    values = spec.values.copy()
    values[-1] = 2.0
    doctored = Spectrum(values, spec.vectors, spec.residual)
    assert verified_integer_eigenvalues(petersen(), doctored) == [-2, 1]
    assert calls == [2]


def test_eigenvectors_without_a_certificate_fall_back_to_the_rank(monkeypatch):
    calls = _count_rank_calls(monkeypatch)
    spec = spectrum(johnson(6, 2))
    rotated, _ = np.linalg.qr(np.random.default_rng(7).standard_normal(spec.vectors.shape))
    doctored = Spectrum(spec.values, rotated, spec.residual)
    assert verified_integer_eigenvalues(johnson(6, 2), doctored) == [-2, 2, 8]
    assert calls == [-2, 2, 8]
