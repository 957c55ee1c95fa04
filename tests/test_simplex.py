"""Exact rational simplex: statuses, certificates, degenerate cases."""

import random

import numpy as np

from spectral_lb.rationals import Q
from spectral_lb.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    RationalLP,
)


def test_simple_min():
    # min x + y subject to x + y >= 1
    lp = RationalLP()
    x = lp.variable(obj=1)
    y = lp.variable(obj=1)
    lp.add_ge({x: Q(1), y: Q(1)}, 1)
    sol = lp.solve()
    assert sol.status == OPTIMAL
    assert sol.objective == Q(1)


def test_simple_max():
    # max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum 12 at (4, 0)
    lp = RationalLP(maximize=True)
    x = lp.variable(obj=3)
    y = lp.variable(obj=2)
    lp.add_le({x: Q(1), y: Q(1)}, 4)
    lp.add_le({x: Q(1), y: Q(3)}, 6)
    sol = lp.solve()
    assert sol.status == OPTIMAL
    assert sol.objective == Q(12)
    assert sol.x[x] == Q(4) and sol.x[y] == Q(0)


def test_exact_rational_optimum():
    # min x subject to 3x = 1 gives exactly 1/3
    lp = RationalLP()
    x = lp.variable(obj=1)
    lp.add_eq({x: Q(3)}, 1)
    sol = lp.solve()
    assert sol.objective == Q(1, 3)


def test_infeasible():
    lp = RationalLP()
    x = lp.variable(obj=1)
    lp.add_eq({x: Q(1)}, 1)
    lp.add_eq({x: Q(1)}, 2)
    assert lp.solve().status == INFEASIBLE


def test_unbounded():
    lp = RationalLP(maximize=True)
    x = lp.variable(obj=1)
    lp.add_ge({x: Q(1)}, 1)
    assert lp.solve().status == UNBOUNDED


def test_negative_rhs_normalised():
    # x - y = -2, minimise x + y -> x=0, y=2
    lp = RationalLP()
    x = lp.variable(obj=1)
    y = lp.variable(obj=1)
    lp.add_eq({x: Q(1), y: Q(-1)}, -2)
    sol = lp.solve()
    assert sol.status == OPTIMAL and sol.objective == Q(2)


def test_redundant_rows_handled():
    lp = RationalLP()
    x = lp.variable(obj=1)
    y = lp.variable(obj=2)
    lp.add_eq({x: Q(1), y: Q(1)}, 2)
    lp.add_eq({x: Q(2), y: Q(2)}, 4)  # same hyperplane
    sol = lp.solve()
    assert sol.status == OPTIMAL and sol.objective == Q(2)
    rows = [([Q(1), Q(1)], "=", 2), ([Q(2), Q(2)], "=", 4)]
    _assert_dual_certificate(sol, [1, 2], rows, False)


def _beale_lp():
    # classic Beale-style degeneracy
    lp = RationalLP()
    x1 = lp.variable(obj=Q(-3, 4))
    x2 = lp.variable(obj=150)
    x3 = lp.variable(obj=Q(-1, 50))
    x4 = lp.variable(obj=6)
    lp.add_le({x1: Q(1, 4), x2: Q(-60), x3: Q(-1, 25), x4: Q(9)}, 0)
    lp.add_le({x1: Q(1, 2), x2: Q(-90), x3: Q(-1, 50), x4: Q(3)}, 0)
    lp.add_le({x3: Q(1)}, 1)
    return lp


def test_degenerate_cycling_guard():
    # must terminate at the optimum
    sol = _beale_lp().solve()
    assert sol.status == OPTIMAL
    assert sol.objective == Q(-1, 20)


def test_duals_satisfy_strong_duality(rng=random.Random(7)):
    for _ in range(20):
        nv, nr = rng.randint(1, 5), rng.randint(1, 4)
        lp = RationalLP()
        xs = [lp.variable(obj=Q(rng.randint(0, 4))) for _ in range(nv)]
        for _ in range(nr):
            coeffs = {x: Q(rng.randint(0, 3)) for x in xs}
            if all(v == 0 for v in coeffs.values()):
                coeffs[xs[0]] = Q(1)
            lp.add_ge(coeffs, rng.randint(0, 5))
        sol = lp.solve()
        if sol.status != OPTIMAL:
            continue
        assert sol.duals is not None
        rhs = [row[2] for row in lp.rows]
        assert sol.objective == sum(
            (d * Q(b) for d, b in zip(sol.duals, rhs)), Q(0)
        )


def test_warm_start_basis():
    # x + y = 2 with start basis {x}; one pivot territory
    lp = RationalLP()
    x, y = lp.variable(obj=1), lp.variable(obj=2)
    lp.add_eq({x: Q(1), y: Q(1)}, 2)
    sol = lp.solve(start_basis=[x])
    assert sol.status == OPTIMAL and sol.objective == Q(2) and sol.x[x] == Q(2)


def test_warm_start_invalid_falls_back():
    # the proposed basis is singular; solver must still find the optimum
    lp = RationalLP()
    x, y = lp.variable(obj=1), lp.variable(obj=1)
    lp.add_eq({x: Q(1), y: Q(2)}, 2)
    sol = lp.solve(start_basis=[x, y])
    assert sol.status == OPTIMAL


def test_pivot_limit_guard():
    lp = RationalLP()
    x = lp.variable(obj=1)
    lp.add_ge({x: Q(1)}, 1)
    sol = lp.solve()
    assert sol.pivots < 50


# ---------------------------------------------------------------------------
# the compiled form: built once per model, shared by every solve, never written


def _outcome(sol):
    return sol.status, sol.objective, sol.x, sol.duals, sol.pivots


def test_solves_leave_the_compiled_form_unchanged():
    lp = _beale_lp()
    form = lp.compiled()
    snapshot = (
        [list(col) for col in form.columns],
        list(form.rscale),
        list(form.cost),
        form.float_cols.copy(),
        form.float_cost.copy(),
    )
    rows = [(dict(coeffs), rel, rhs) for coeffs, rel, rhs in lp.rows]
    slacks = [lp.slack_index(r) for r in range(3)]
    cold = lp.solve()  # phase 1 appends artificial columns
    # b's denominators scale rows again, and a negative b signs an artificial
    lp.solve(rhs=[Q(1, 3), Q(-2, 7), 1])
    warm = lp.solve(start_basis=slacks)
    assert lp.compiled() is form
    assert lp.rows == rows
    assert [list(col) for col in form.columns] == snapshot[0]
    assert (form.rscale, form.cost) == (snapshot[1], snapshot[2])
    assert np.array_equal(form.float_cols, snapshot[3])
    assert np.array_equal(form.float_cost, snapshot[4])
    assert _outcome(warm) == _outcome(_beale_lp().solve(start_basis=slacks))
    assert warm.objective == cold.objective == Q(-1, 20)


def test_adding_to_a_model_recompiles_it():
    changes = [
        lambda lp: lp.variable(obj=1),
        lambda lp: lp.add_ge({0: Q(1)}, Q(1, 10)),
        lambda lp: lp.add_le({0: Q(1)}, Q(1, 50)),
        lambda lp: lp.add_eq({3: Q(1)}, 0),
    ]
    for change in changes:
        lp = _beale_lp()
        form = lp.compiled()
        lp.solve()
        change(lp)
        assert lp.compiled() is not form
        expected = _beale_lp()
        change(expected)
        assert _outcome(lp.solve()) == _outcome(expected.solve())


def _rebuilt(lp, rhs):
    """The model lp with rhs as its right-hand sides, built row by row."""

    built = RationalLP(lp.maximize)
    for c in lp.obj:
        built.variable(obj=c)
    add = {"=": built.add_eq, "<=": built.add_le, ">=": built.add_ge}
    for (coeffs, rel, _), b in zip(lp.rows, rhs):
        add[rel](coeffs, b)
    return built


def test_solve_with_rhs_matches_a_model_built_with_it(rng=random.Random(11)):
    lps = [_beale_lp()] + [_random_degenerate_lp(rng) for _ in range(150)]
    pick = random.Random(5)
    for lp in lps:
        form = lp.compiled()
        # slacks first, then variables, so that a feasible slack basis is tried
        basis = [lp.slack_index(r) for r, (_, rel, _) in enumerate(lp.rows) if rel != "="]
        basis += list(range(len(lp.rows) - len(basis)))
        for _ in range(2):
            rhs = [pick.choice([0, 0, 1, 2, Q(1, 3), Q(-2, 7)]) for _ in lp.rows]
            built = _rebuilt(lp, rhs)
            for start in (None, basis):
                assert _outcome(lp.solve(start, rhs=rhs)) == _outcome(built.solve(start))
        assert lp.compiled() is form


def test_solve_rejects_a_wrong_length_rhs():
    lp = _beale_lp()
    for rhs in ([0, 0], [0, 0, 1, 1]):
        with pytest.raises(ValueError):
            lp.solve(rhs=rhs)


# ---------------------------------------------------------------------------
# differential and kernel tests

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectral_lb.simplex import _invert

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coef = st.one_of(st.just(Fraction(0)), _small)


@st.composite
def _random_lp(draw):
    nv = draw(st.integers(1, 4))
    nr = draw(st.integers(1, 4))
    cost = draw(st.lists(_small, min_size=nv, max_size=nv))
    rows = []
    for _ in range(nr):
        coeffs = draw(st.lists(_coef, min_size=nv, max_size=nv))
        rel = draw(st.sampled_from(["=", "<=", ">="]))
        rows.append((coeffs, rel, draw(_small)))
    if draw(st.booleans()):
        # a scaled copy of the first row makes the system rank deficient
        k = draw(st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3))
        coeffs, rel, rhs = rows[0]
        rows.append(([c * k for c in coeffs], rel, rhs * k))
    return cost, rows, draw(st.booleans())


def _build(cost, rows, maximize):
    lp = RationalLP(maximize=maximize)
    xs = [lp.variable(obj=c) for c in cost]
    add = {"=": lp.add_eq, "<=": lp.add_le, ">=": lp.add_ge}
    for coeffs, rel, rhs in rows:
        add[rel]({x: c for x, c in zip(xs, coeffs)}, rhs)
    return lp


def _highs(cost, rows, maximize):
    """(status, optimum of the minimisation) from HiGHS, asked only bounded questions.

    Without presolve HiGHS can end an unbounded LP with status 4 (model
    status unknown), and with presolve it calls some feasible unbounded
    LPs infeasible.  So: is the LP feasible, asked with zero cost; then is
    min c.d < 0 over the recession cone cut to 0 <= d <= 1 (A_eq d = 0,
    A_ub d <= 0), which makes it unbounded; else solve it, now bounded.
    Any other HiGHS status fails the test.
    """

    from scipy.optimize import linprog

    c = [float(-v if maximize else v) for v in cost]
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in rows:
        row = [float(v) for v in coeffs]
        if rel == "=":
            a_eq.append(row)
            b_eq.append(float(rhs))
        elif rel == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        else:
            a_ub.append([-v for v in row])
            b_ub.append(-float(rhs))

    def run(c, b_ub, b_eq, upper, allowed=(0,)):
        res = linprog(
            c,
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq or None,
            b_eq=b_eq or None,
            bounds=(0, upper),
            method="highs",
            # presolve reports some feasible unbounded LPs as infeasible
            options={"presolve": False},
        )
        assert res.status in allowed, f"HiGHS status {res.status}: {res.message}"
        return res

    if run([0.0] * len(c), b_ub, b_eq, None, allowed=(0, 2)).status == 2:
        return INFEASIBLE, None
    if run(c, [0.0] * len(b_ub), [0.0] * len(b_eq), 1).fun < -1e-9:
        return UNBOUNDED, None
    return OPTIMAL, run(c, b_ub, b_eq, None).fun


# maximise x1 with x = (t, t, 0, 0) feasible for every t: unbounded, yet
# HiGHS with presolve on calls it infeasible
_UNBOUNDED_WITH_ZERO_ROWS = (
    [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
    [
        ([Fraction(0)] * 4, "=", Fraction(0)),
        ([Fraction(-1), Fraction(1), Fraction(1), Fraction(0)], "<=", Fraction(1)),
        ([Fraction(-1), Fraction(1), Fraction(1), Fraction(0)], ">=", Fraction(0)),
        ([Fraction(0)] * 4, "=", Fraction(0)),
    ],
    True,
)
# minimise 3/2 x1 - 2 x2: unbounded along x2, yet HiGHS with presolve off
# ends it with status 4 (model status unknown)
_UNBOUNDED_UNKNOWN_WITHOUT_PRESOLVE = (
    [Fraction(3, 2), Fraction(-2), Fraction(0)],
    [
        ([Fraction(2), Fraction(-2), Fraction(0)], "<=", Fraction(1)),
        ([Fraction(0), Fraction(-2), Fraction(0)], "<=", Fraction(1)),
    ],
    False,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_random_lp())
@example(_UNBOUNDED_WITH_ZERO_ROWS)
@example(_UNBOUNDED_UNKNOWN_WITHOUT_PRESOLVE)
def test_differential_against_highs(lp_spec):
    cost, rows, maximize = lp_spec
    sol = _build(cost, rows, maximize).solve()
    expected, fun = _highs(cost, rows, maximize)
    assert sol.status == expected
    if sol.status != OPTIMAL:
        return
    assert float(sol.objective) == pytest.approx(-fun if maximize else fun, abs=1e-7)
    # the exact optimum is feasible in the caller's rows and attains it
    for coeffs, rel, rhs in rows:
        lhs = sum((c * v for c, v in zip(coeffs, sol.x)), Fraction(0))
        assert {"=": lhs == rhs, "<=": lhs <= rhs, ">=": lhs >= rhs}[rel]
    assert all(v >= 0 for v in sol.x)
    assert sol.objective == sum((c * v for c, v in zip(cost, sol.x)), Fraction(0))
    _assert_dual_certificate(sol, cost, rows, maximize)


def _assert_dual_certificate(sol, cost, rows, maximize):
    # duals (minimisation convention) are dual feasible and close the gap
    # in the caller's row scaling
    sign = -1 if maximize else 1
    y = sol.duals
    assert y is not None and len(y) == len(rows)
    assert sign * sol.objective == sum((d * rhs for d, (_, _, rhs) in zip(y, rows)), Fraction(0))
    for j, c in enumerate(cost):
        col = sum((d * coeffs[j] for d, (coeffs, _, _) in zip(y, rows)), Fraction(0))
        assert sign * c - col >= 0
    for d, (_, rel, _) in zip(y, rows):
        assert {"=": True, "<=": d <= 0, ">=": d >= 0}[rel]


def test_redundant_row_removed_by_its_own_index():
    # the artificial of a dependent row can stay basic in another basis
    # position; it stays there at 0 and the duals still certify the optimum
    cost = [Q(2, 3), 0, Q(-5, 4)]
    rows = [
        ([0, -1, Q(1, 3)], "<=", 0),
        ([0, 3, 3], "=", 0),
        ([0, -2, Q(-5, 2)], "=", 0),
        ([Q(-2, 3), -1, -2], "=", 0),
        ([0, 3, Q(7, 5)], "<=", 0),
        ([0, 2, 2], "=", 0),
        ([0, Q(-3, 2), Q(1, 2)], "<=", 0),
    ]
    sol = _build(cost, rows, True).solve()
    assert sol.status == OPTIMAL and sol.objective == 0
    _assert_dual_certificate(sol, cost, rows, True)


def _fraction_det(mat):
    a = [[Fraction(v) for v in row] for row in mat]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=m, max_size=m
        )
    )
)
def test_invert_gives_adjugate_over_det(mat):
    m = len(mat)
    columns = [[(r, mat[r][j]) for r in range(m) if mat[r][j]] for j in range(m)]
    det = _fraction_det(mat)
    inv = _invert(columns, list(range(m)), m)
    if det == 0:
        assert inv is None
        return
    adj, d = inv
    assert d == abs(det)
    for i in range(m):
        for k in range(m):
            entry = sum(adj[i][r] * mat[r][k] for r in range(m))
            assert entry == (d if i == k else 0)


def _fraction_inverse(mat):
    """B^-1 by Fraction Gauss-Jordan, or None when B is singular."""

    m = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(m)]
         for i, row in enumerate(mat)]
    for c in range(m):
        pr = next((r for r in range(c, m) if a[r][c] != 0), None)
        if pr is None:
            return None
        a[c], a[pr] = a[pr], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(m):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[m:] for row in a]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.tuples(
            st.lists(
                st.lists(st.sampled_from([-1, 0, 0, 1, 2]), min_size=m + 2, max_size=m + 2),
                min_size=m,
                max_size=m,
            ),
            st.permutations(range(m + 2)),
        )
    )
)
def test_invert_matches_fraction_inverse(spec):
    # columns mostly +-1, a basis drawn in any order from two more columns than rows
    mat, order = spec
    m = len(mat)
    columns = [[(r, mat[r][j]) for r in range(m) if mat[r][j]] for j in range(m + 2)]
    basis = list(order[:m])
    b = [[mat[r][j] for j in basis] for r in range(m)]
    inv = _fraction_inverse(b)
    got = _invert(columns, basis, m)
    if inv is None:
        assert got is None
        return
    adj, d = got
    assert d == abs(_fraction_det(b))
    assert adj == [[d * x for x in row] for row in inv]


# ---------------------------------------------------------------------------
# the lexicographic tie-break against the full rule

from spectral_lb import simplex as simplex_mod


class _Recording(simplex_mod._Core):
    """_Core that records the basis after every pivot."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trail = []

    def _pivot(self, enter, leave, d):
        super()._pivot(enter, leave, d)
        self.trail.append(tuple(self.basis))


class _FullLexRule(_Recording):
    """The lexicographic leaving row with every seed column formed by dot products.

    Row i's key is (x^_i, D T_i1, ..., D T_im) / d^_i with
    D T_ik = A^_i . a_(seed k); the winner is the unique least key.
    Basic-ness is read from the basis, not from the solver's column mask.
    """

    basic_seed_ties = 0  # tie-breaks that consulted a seed still in the basis
    artificial_seeds = 0  # phase-2 lex decisions whose seed holds a basic artificial

    def _choose_leaving(self, d):
        if self.lex_seed is None:
            return super()._choose_leaving(d)
        # in phase 2 the artificials are the columns from bound on
        if self.bound < len(self.columns) and any(
            s >= self.bound and s in self.basis for s in self.lex_seed
        ):
            self.artificial_seeds += 1
        m = self.m
        cand = [i for i in range(m) if d[i] > 0]
        if not cand:
            return -1
        keys = {
            i: [Fraction(self.rows[i][m], d[i])]
            + [
                Fraction(sum(self.rows[i][r] * v for r, v in self.columns[s]), d[i])
                for s in self.lex_seed
            ]
            for i in cand
        }
        best = min(cand, key=keys.__getitem__)
        assert [keys[i] for i in cand].count(keys[best]) == 1
        ties = [i for i in cand if keys[i][0] == keys[best][0]]
        for k, s in enumerate(self.lex_seed, start=1):
            if len(ties) == 1:
                break
            if s in self.basis:
                self.basic_seed_ties += 1
            ties = [i for i in ties if keys[i][k] == min(keys[t][k] for t in ties)]
        return best


def _solve_with(monkeypatch, core_cls, lp):
    cores = []

    class Core(core_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cores.append(self)

    monkeypatch.setattr(simplex_mod, "_Core", Core)
    sol = lp.solve()
    monkeypatch.undo()
    (core,) = cores
    return sol, core


def _random_degenerate_lp(rng):
    lp = RationalLP()
    xs = [lp.variable(obj=Q(rng.randint(-4, 3))) for _ in range(rng.randint(3, 7))]
    for _ in range(rng.randint(3, 6)):
        coeffs = {x: Q(rng.choice([-2, -1, 0, 0, 1, 1, 2, 3])) for x in xs}
        rhs = rng.choice([0, 0, 0, 1, 2])
        rng.choice([lp.add_le, lp.add_le, lp.add_ge, lp.add_eq])(coeffs, rhs)
    lp.add_le({x: Q(1) for x in xs}, rng.randint(1, 3))
    return lp


def _degenerate_lp_with_duplicated_eq_row(rng):
    # the second copy of the row keeps its artificial basic through phase 2
    lp = _random_degenerate_lp(rng)
    coeffs = {x: Q(rng.choice([-1, 0, 1, 1, 2])) for x in range(len(lp.obj))}
    lp.add_eq(coeffs, 0)
    lp.add_eq(coeffs, 0)
    return lp


def test_lex_shortcut_matches_full_rule(monkeypatch, rng=random.Random(11)):
    lps = [_beale_lp()] + [_random_degenerate_lp(rng) for _ in range(150)]
    dup = random.Random(13)
    lps += [_degenerate_lp_with_duplicated_eq_row(dup) for _ in range(60)]
    consulted = artificial = 0
    for lp in lps:
        sol, core = _solve_with(monkeypatch, _Recording, lp)
        ref, ref_core = _solve_with(monkeypatch, _FullLexRule, lp)
        assert core.trail == ref_core.trail
        assert sol.pivots == ref.pivots == len(core.trail)
        assert (sol.status, sol.objective, sol.x, sol.duals) == (
            ref.status,
            ref.objective,
            ref.x,
            ref.duals,
        )
        consulted += ref_core.basic_seed_ties
        artificial += ref_core.artificial_seeds
    # the shortcut actually decided ties in this sample, and some phase-2
    # stalls were seeded with an artificial still basic
    assert consulted > 0
    assert artificial > 0


# ---------------------------------------------------------------------------
# the float screen only ranks: any Devex weights give the same optimum


class _GarbageWeights(simplex_mod._Core):
    """_Core whose Devex weights are random, huge, infinite or NaN at every pricing."""

    rng = random.Random(19)

    def _float_screened_entering(self, y):
        picks = (
            lambda: self.rng.uniform(0.0, 10.0),
            lambda: 1e300,
            lambda: float("inf"),
            lambda: float("nan"),
        )
        self.weights = np.array([self.rng.choice(picks)() for _ in self.weights])
        return super()._float_screened_entering(y)


def test_devex_weights_never_decide(monkeypatch, rng=random.Random(11)):
    lps = [_beale_lp()] + [_random_degenerate_lp(rng) for _ in range(150)]
    for lp in lps:
        ref = lp.solve()
        sol, _ = _solve_with(monkeypatch, _GarbageWeights, lp)
        assert (sol.status, sol.objective) == (ref.status, ref.objective)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_random_lp())
@example(_UNBOUNDED_WITH_ZERO_ROWS)
@example(_UNBOUNDED_UNKNOWN_WITHOUT_PRESOLVE)
def test_devex_weights_never_decide_against_highs(lp_spec):
    cost, rows, maximize = lp_spec
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_mod, "_Core", _GarbageWeights)
        sol = _build(cost, rows, maximize).solve()
    expected, fun = _highs(cost, rows, maximize)
    assert sol.status == expected
    if sol.status == OPTIMAL:
        assert float(sol.objective) == pytest.approx(-fun if maximize else fun, abs=1e-7)
        _assert_dual_certificate(sol, cost, rows, maximize)


def _devex_core(rows, det, weights):
    # one row, three columns: (1), (2), (1/3 in a row scaled by 3)
    columns = [[(0, 3)], [(0, 6)], [(0, 1)]]
    core = simplex_mod._Core(
        columns, [0, 0, 0], [3], 1, [3], 1, np.array([[1.0, 2.0, 1 / 3]]), np.zeros(3)
    )
    core.basis, core.rows, core.det = [0], rows, det
    core.weights = np.array(weights, dtype=float)
    return core


def test_devex_update_is_exact_where_floats_overflow():
    # A^ = 10^400 over D = 3 * 10^400 (B^-1 = 1/3); column 1 enters with d^ = 6 * 10^400
    big = 10**400
    core = _devex_core([[big, big]], 3 * big, [1.0, 16.0, 1.0])
    core._devex_update(1, 0, [6 * big])
    # alpha = (1/2, 1, 1/6) and d^/D = 2: the leaving column gets max(16 / 2^2, 1)
    assert core.weights.tolist() == pytest.approx([4.0, 16.0, 1.0])
    # a ratio that no float holds restarts every weight at 1
    core = _devex_core([[big, big]], 1, [5.0, 4.0, 3.0])
    core._devex_update(1, 0, [1])
    assert core.weights.tolist() == [1.0, 1.0, 1.0]
    # weights that are not finite restart at 1
    core = _devex_core([[1, 1]], 3, [float("nan"), float("inf"), float("inf")])
    core._devex_update(1, 0, [6])
    assert core.weights.tolist() == [1.0, 1.0, 1.0]
