"""Exact LP solver (two-phase revised simplex) over integers.

Optima and optimal bases are certificates rather than approximations.
The standard form is scaled to integers: each row and its right-hand
side by the lcm of their denominators, the costs by the lcm of theirs.
Neither scaling moves the feasible set, x_B or a direction B^-1 a_j, so
every pivot decision is the one the rational problem makes.  The columns
and costs are compiled once (_compile: integer columns scaled by their
own denominators, integer costs, the float image of the matrix) and a
solve adds only what b needs: b in integers, and one more row factor
where b_r's denominator does not divide the row's scale.  Rows keep the
caller's signs, so every solve of a RationalLP, whatever right-hand sides
it passes, runs on one compiled form.

The basis inverse is kept fraction-free as B^-1 = A^/D, with D = |det B|
and A^ = +-adj(B) an integer matrix; x_B and the duals are integer
numerators over the same D.  A pivot on row r along the direction
d = d^/D is one Bareiss step (rationals.bareiss_step): every other row
becomes A^_i <- (d^_r A^_i - d^_i A^_r) / D, exact by Sylvester's
identity, row r stays, and D <- d^_r.  When d^_r = D the step is
A^_i <- A^_i - d^_i A^_r / D, so only the nonzero entries of row r are
touched; half to three quarters of the pivots on the package's LPs are
of that kind.  The ratio test and the lexicographic tie-break compare by
cross-multiplication, reduced-cost signs come from D c_j - y^.a_j, and
the optimality audit runs in integers.  Rationals are built only for the
returned x, duals and objective, in the caller's row scaling.

Columns are sparse (row, value) lists; the basis inverse is dense.
Pricing is a float screen: the columns with float reduced cost rc_j
below -1e-7 are ranked by rc_j / sqrt(w_j), with w_j a Devex reference
weight (Harris 1973; Forrest & Goldfarb 1992), a float estimate of the
column's steepest-edge norm kept up to date from one row of the next
basis inverse per pivot.  Floats only rank candidates: an exact reduced
cost confirms each choice and an exact sweep decides optimality, so the
weights move the pivot path and nothing else.  The first degenerate
pivot switches the ratio test to a lexicographic perturbation seeded at
the current basis, which breaks the stall and guarantees termination from
any starting basis.  A tie is broken by the columns of the seed basis in
turn; a seed column still basic at position q has B^-1 a = e_q, so it
only drops row q from the ties and costs no dot products.  One boolean
mask says which columns may not enter: the basic ones, and in phase 2 the
artificials.  Callers may hand in a feasible basis to skip phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import NamedTuple

import numpy as np

from .rationals import Q, QZERO, bareiss_eliminate, bareiss_step, denom, integer_row, numer

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
MAX_PIVOTS = 1000000


class SimplexError(RuntimeError):
    pass


@dataclass
class LPSolution:
    status: str
    objective: object | None = None
    x: list | None = None
    duals: list | None = None
    pivots: int = 0


def _invert(columns, basis, m):
    """(A^, D) with A^ B = D I and D = |det B| > 0, or None when singular.

    Fraction-free Gauss-Jordan on [B | I] over integer columns
    (bareiss_eliminate).  B is singular exactly when some pivot falls in
    the I block.
    """

    rows = [[0] * m + [1 if i == k else 0 for k in range(m)] for i in range(m)]
    for j, col_idx in enumerate(basis):
        for r, v in columns[col_idx]:
            rows[r][j] = v
    pivots, det = bareiss_eliminate(rows)
    if any(c >= m for c in pivots):
        return None
    if det < 0:
        return [[-x for x in row[m:]] for row in rows], -det
    return [row[m:] for row in rows], det


class _Core:
    """Primal simplex over an integer basis inverse A^/D.

    rows[i] is [A^_i | x^_i], the i-th row of D B^-1 [I | b].  rscale and
    cscale are the integer scalings of the rows and of the costs;
    float_cols and float_cost are the caller's matrix and costs in floats,
    which the screen ranks with duals scaled back by rscale and cscale.
    blocked marks the columns that may not enter: the basic ones, and every
    column j >= bound, which is where phase 2 puts the artificials.
    set_basis builds it and _pivot keeps it up to date.
    """

    def __init__(self, columns, cost, b, m, rscale, cscale, float_cols, float_cost):
        self.columns = columns
        self.cost = cost
        self.cscale = cscale
        self.float_cols = float_cols
        self.float_cost = float_cost
        self.b = b
        self.rscale = rscale
        self.m = m
        self.basis = []
        self.rows = []
        self.det = 1
        self.bound = len(columns)
        self.blocked = None
        self.weights = None  # Devex reference weights, one per column
        self.lex_seed = None  # basis B_seed, only during degenerate stalls
        self.pivots = 0

    def set_basis(self, basis):
        if len(basis) != self.m or len(set(basis)) != self.m:
            return False
        inv = _invert(self.columns, basis, self.m)
        if inv is None:
            return False
        adj, det = inv
        xb = [sum(x * v for x, v in zip(row, self.b)) for row in adj]
        if any(v < 0 for v in xb):
            return False
        self.basis = list(basis)
        self.rows = [row + [x] for row, x in zip(adj, xb)]
        self.det = det
        self.blocked = np.zeros(len(self.columns), dtype=bool)
        self.blocked[self.bound:] = True
        self.blocked[basis] = True
        return True

    def prices(self):
        """c_B [A^ | x^] = D [y | objective]: duals and objective over D."""

        acc = [0] * (self.m + 1)
        for i, j in enumerate(self.basis):
            cb = self.cost[j]
            if cb:
                for k, x in enumerate(self.rows[i]):
                    if x:
                        acc[k] += cb * x
        return acc

    def direction(self, j):
        """d^ = A^ a_j, the numerators of B^-1 a_j over D."""

        col = self.columns[j]
        return [sum(row[r] * v for r, v in col) for row in self.rows]

    def reduced_cost(self, j, y):
        """D c_j - y^.a_j: column j's reduced cost times D * cscale (> 0)."""

        return self.det * self.cost[j] - sum(y[r] * v for r, v in self.columns[j])

    def _exact_first_negative(self, y):
        for j in np.flatnonzero(~self.blocked).tolist():
            if self.reduced_cost(j, y) < 0:
                return j
        return -1

    def _float_screened_entering(self, y):
        """Entering column by Devex-scaled float ranking, decided exactly.

        The candidates are the columns whose float reduced cost rc_j is
        below -1e-7, ranked by rc_j / sqrt(w_j) with w_j the Devex weight.
        Floats only order the candidates; every selection is confirmed with
        an exact reduced cost, and a full exact sweep settles the borderline
        and no-candidate cases, so optimality claims never rest on floats.
        """

        den = self.det * self.cscale
        yf = np.array([v * s / den for v, s in zip(y, self.rscale)])
        rc = self.float_cost - yf @ self.float_cols
        rc[self.blocked] = np.inf
        score = np.where(rc < -1e-7, rc / np.sqrt(self.weights), np.inf)
        for _ in range(12):
            j = int(np.argmin(score))
            if not np.isfinite(score[j]):
                break
            if self.reduced_cost(j, y) < 0:
                return j
            score[j] = np.inf
        return self._exact_first_negative(y)

    def _devex_update(self, enter, leave, d):
        """Devex reference weights for the basis after this pivot.

        alpha_j = (B^-1 a_j)_r / (B^-1 a_enter)_r = A^_r . a_j / d^_r for
        the leaving row r, one float row times the float matrix.  Each
        weight becomes max(w_j, alpha_j^2 w_enter), and the leaving
        column's max(w_enter / (d^_r / D)^2, 1).  The ratios are taken of
        exact integers, so entries of A^ too large for a float do not
        overflow; a weight that is not finite restarts at 1.  So every
        weight stays finite and at least 1, which the screen divides by.
        """

        w = self.weights
        p = d[leave]
        w_enter = w[enter]
        try:
            row = np.array([x * s / p for x, s in zip(self.rows[leave], self.rscale)])
            alpha_enter = p / self.det
        except OverflowError:
            w[:] = 1.0
            return
        alpha = row @ self.float_cols
        alpha *= alpha
        alpha *= w_enter
        np.maximum(w, alpha, out=w)
        w[self.basis[leave]] = max(w_enter / (alpha_enter * alpha_enter), 1.0)
        w[~np.isfinite(w)] = 1.0

    def _choose_leaving(self, d):
        """Minimum-ratio row; Bland-style tie-break outside lex mode.

        Ratios x^_i / d^_i are compared by cross-multiplication (d^_i > 0);
        the rows of least ratio tie, and outside lex mode the one with the
        smallest basic column leaves.  In lex mode the perturbed right-hand
        side b + B_seed (eps^1..eps^m) makes the problem nondegenerate: ties
        are resolved by lexicographic comparison of the rows of T/d where
        T = B^-1 B_seed, and the winner is unique because T is nonsingular.
        Only the entries a tie needs are formed, as D T_ik = A^_i . a_(seed k);
        for a seed still basic at position q that column is D e_q, so the
        seed only removes q from the ties.
        """

        m = self.m
        ties = []
        for i in range(m):
            di = d[i]
            if di > 0:
                if not ties:
                    ties = [i]
                    continue
                lhs = self.rows[i][m] * d[ties[0]]
                rhs = self.rows[ties[0]][m] * di
                if lhs < rhs:
                    ties = [i]
                elif lhs == rhs:
                    ties.append(i)
        if not ties or self.lex_seed is None:
            return min(ties, key=self.basis.__getitem__, default=-1)
        for seed in self.lex_seed:
            if len(ties) == 1:
                break
            # blocked means basic here: a seed past the bound is a phase-2
            # artificial, whose row of B^-1 A is zero, so it stays basic
            # and its row is never among the ties
            if self.blocked[seed]:
                q = self.basis.index(seed)
                ties = [i for i in ties if i != q]
                continue
            a = self.columns[seed]
            t = {i: sum(self.rows[i][r] * v for r, v in a) for i in ties}
            keep = [ties[0]]
            for i in ties[1:]:
                k = keep[0]
                lhs = t[i] * d[k]
                rhs = t[k] * d[i]
                if lhs < rhs:
                    keep = [i]
                elif lhs == rhs:
                    keep.append(i)
            ties = keep
        return ties[0]

    def iterate(self):
        self.weights = np.ones(len(self.columns))
        self.lex_seed = None
        m = self.m
        last = None
        while True:
            if self.pivots > MAX_PIVOTS:
                raise SimplexError("pivot limit exceeded")
            acc = self.prices()
            y, obj = acc[:m], acc[m]
            # leave lex mode once the objective strictly improves
            if self.lex_seed is not None and obj * last[1] < last[0] * self.det:
                self.lex_seed = None
            last = (obj, self.det)
            enter = self._float_screened_entering(y)
            if enter < 0:
                return OPTIMAL
            d = self.direction(enter)
            leave = self._choose_leaving(d)
            if leave < 0:
                return UNBOUNDED
            degenerate = self.rows[leave][m] == 0
            self._pivot(enter, leave, d)
            if degenerate and self.lex_seed is None:
                self.lex_seed = tuple(self.basis)

    def _pivot(self, enter, leave, d):
        self.pivots += 1
        self._devex_update(enter, leave, d)
        bareiss_step(self.rows, leave, d, self.det)
        self.det = d[leave]
        if self.det < 0:
            # a negative pivot (only when driving out artificials) flips det
            self.det = -self.det
            self.rows = [[-x for x in row] for row in self.rows]
        old = self.basis[leave]
        self.blocked[old] = old >= self.bound
        self.blocked[enter] = True
        self.basis[leave] = enter


class _Form(NamedTuple):
    """A standard form's columns and costs, compiled for solves with any b.

    columns are integer, row r scaled by rscale[r], the lcm of the
    denominators of its coefficients; cost is integer, scaled by cscale.
    float_cols and float_cost are the caller's matrix and costs in floats.
    Solves share the form and never write to it.
    """

    m: int
    columns: list
    rscale: list
    cost: list
    cscale: int
    float_cols: np.ndarray
    float_cost: np.ndarray


def _compile(columns, cost, m):
    fracs = [[(r, numer(v), denom(v)) for r, v in sorted(col)] for col in columns]
    rscale = [1] * m
    for col in fracs:
        for r, _, dv in col:
            if dv != 1:
                rscale[r] = lcm(rscale[r], dv)
    int_cols = [[(r, nv * (rscale[r] // dv)) for r, nv, dv in col] for col in fracs]
    float_cols = np.zeros((m, len(int_cols)))
    for j, col in enumerate(int_cols):
        for r, v in col:
            float_cols[r, j] = v / rscale[r]
    cost_int, cscale = integer_row(cost)
    float_cost = np.array([c / cscale for c in cost_int])
    float_cols.setflags(write=False)
    float_cost.setflags(write=False)
    return _Form(m, int_cols, rscale, cost_int, cscale, float_cols, float_cost)


# the floats only rank candidates, so an overflow there is not an error
@np.errstate(all="ignore")
def _solve_form(form, b, start_basis=None):
    """min cost.x subject to A x = b, x >= 0, for a compiled form and any b.

    b may have either sign.  When start_basis yields an invertible,
    primal-feasible basis, phase 1 is skipped.  The returned solution
    carries exact x and duals, and optimality is re-verified by exact
    complementary slackness.  Row r of the form is scaled once more, by
    lcm(rscale_r, denom(b_r)) / rscale_r, only when b_r needs it; otherwise
    the solve runs on the form's own integer columns.  Rows keep the
    caller's signs: phase 1's artificial for row r is signed as b_r, so
    that it starts at |b_r|.

    Dependent rows stay in place.  An artificial still basic at position i
    after phase 1 has row i of B^-1 A equal to zero, so every later
    direction has d_i = 0 and a Bareiss step keeps that row zero: the
    artificial never leaves, stays at 0, and as a basic column of cost 0
    gets dual 0.
    """

    m = form.m
    rscale = [lcm(s, denom(v)) for s, v in zip(form.rscale, b)]
    columns = form.columns
    if rscale != form.rscale:
        extra = [s // s0 for s, s0 in zip(rscale, form.rscale)]
        columns = [[(r, v * extra[r]) for r, v in col] for col in columns]
    b_int = [numer(v) * (s // denom(v)) for v, s in zip(b, rscale)]
    nstruct = len(columns)
    core = _Core(columns, form.cost, b_int, m, rscale, form.cscale,
                 form.float_cols, form.float_cost)

    if start_basis is None or not core.set_basis(list(start_basis)):
        # artificial i is the caller's unit column, signed as b_i, in row i's scale
        sign = [-1 if v < 0 else 1 for v in b_int]
        core.columns = columns + [[(i, sign[i] * rscale[i])] for i in range(m)]
        core.float_cols = np.hstack([form.float_cols, np.diag(np.array(sign, dtype=float))])
        core.bound = len(core.columns)
        core.cost = [0] * nstruct + [1] * m
        core.cscale = 1
        core.float_cost = np.array(core.cost, dtype=float)
        if not core.set_basis(list(range(nstruct, nstruct + m))):
            raise SimplexError("artificial basis rejected")
        status = core.iterate()
        if status != OPTIMAL or core.prices()[core.m] != 0:
            return LPSolution(status=INFEASIBLE, pivots=core.pivots)
        _drive_out_artificials(core, nstruct)
        core.cost = form.cost + [0] * m
        core.cscale = form.cscale
        core.float_cost = np.concatenate([form.float_cost, np.zeros(m)])
        core.bound = nstruct
        core.blocked[nstruct:] = True

    status = core.iterate()
    if status == UNBOUNDED:
        return LPSolution(status=UNBOUNDED, pivots=core.pivots)
    xhat = [0] * nstruct
    for i, j in enumerate(core.basis):
        if j < nstruct:
            xhat[j] = core.rows[i][m]
    acc = core.prices()
    _verify_optimal(core, nstruct, xhat, acc)
    det = core.det
    den = det * form.cscale
    x = [Q(v, det) if v else QZERO for v in xhat]
    # duals in the caller's row order and scaling; the artificial of a
    # dependent row stays basic at cost 0, so its dual is 0
    duals = [Q(acc[r] * rscale[r], den) for r in range(m)]
    return LPSolution(
        status=OPTIMAL,
        objective=Q(acc[core.m], den),
        x=x,
        duals=duals,
        pivots=core.pivots,
    )


def _drive_out_artificials(core, nstruct):
    """Pivot zero-valued artificial variables out of the basis when possible.

    An artificial left in basis position i has row i of B^-1 A equal to
    zero: its own row is a combination of the others.
    """

    for i in range(core.m):
        if core.basis[i] < nstruct:
            continue
        row = core.rows[i]
        for j in range(nstruct):
            if core.blocked[j]:
                continue
            if sum(row[r] * v for r, v in core.columns[j]) != 0:
                core._pivot(j, i, core.direction(j))
                break


def _verify_optimal(core, nstruct, xhat, acc):
    """Exact optimality audit in integers: A x^ = D b, x^ >= 0, c.x^ = y^.b.

    Dual feasibility (all reduced costs nonnegative) is exactly the
    condition that terminated the final pricing pass.
    """

    ax = [0] * core.m
    for j in range(nstruct):
        if xhat[j]:
            for r, v in core.columns[j]:
                ax[r] += xhat[j] * v
    if ax != [core.det * v for v in core.b]:
        raise SimplexError("optimal solution fails the equality rows")
    if any(v < 0 for v in xhat):
        raise SimplexError("optimal solution is not nonnegative")
    cx = sum(core.cost[j] * v for j, v in enumerate(xhat) if v)
    if cx != acc[core.m] or cx != sum(y * v for y, v in zip(acc, core.b)):
        raise SimplexError("strong duality check failed")


# ---------------------------------------------------------------------------
# convenience model builder


class RationalLP:
    """Small exact-LP model builder over nonnegative variables.

    Rows are built with add_eq/add_le/add_ge; free quantities are expressed
    by the caller as differences of nonnegative variables.  solve() hands
    the standard form to the revised simplex and maps the objective back;
    duals stay in the internal minimisation convention.  The standard
    form's columns and costs are compiled at the first solve and kept
    until a variable or row is added, so solves that pass their own
    right-hand sides share them.
    """

    def __init__(self, maximize=False):
        self.maximize = maximize
        self.obj = []
        self.rows = []  # (coeffs dict, rel, rhs)
        self._form = None

    def variable(self, obj=0):
        self._form = None
        self.obj.append(obj)
        return len(self.obj) - 1

    def _add(self, coeffs, rel, rhs):
        self._form = None
        self.rows.append((dict(coeffs), rel, rhs))
        return len(self.rows) - 1

    def add_eq(self, coeffs, rhs):
        return self._add(coeffs, "=", rhs)

    def add_le(self, coeffs, rhs):
        return self._add(coeffs, "<=", rhs)

    def add_ge(self, coeffs, rhs):
        return self._add(coeffs, ">=", rhs)

    def slack_index(self, row_id):
        """Standard-form column index of the slack/surplus of a <=/>= row."""

        idx = len(self.obj)
        for r in range(row_id):
            if self.rows[r][1] != "=":
                idx += 1
        if self.rows[row_id][1] == "=":
            raise ValueError("equality rows have no slack")
        return idx

    def compiled(self):
        """The compiled standard form: variables, then one slack per <=/>= row."""

        if self._form is None:
            cols = [[] for _ in self.obj]
            cost = [(-c if self.maximize else c) for c in self.obj]
            for r, (coeffs, rel, _) in enumerate(self.rows):
                for j, v in coeffs.items():
                    if v != 0:
                        cols[j].append((r, v))
                if rel != "=":
                    cols.append([(r, 1 if rel == "<=" else -1)])
                    cost.append(0)
            self._form = _compile(cols, cost, len(self.rows))
        return self._form

    def solve(self, start_basis=None, rhs=None) -> LPSolution:
        """The optimum; rhs, one value per row, stands in for the right-hand sides in this solve."""

        b = [r for _, _, r in self.rows] if rhs is None else list(rhs)
        if len(b) != len(self.rows):
            raise ValueError(f"{len(b)} right-hand sides for {len(self.rows)} rows")
        sol = _solve_form(self.compiled(), b, start_basis)
        if sol.status == OPTIMAL and self.maximize:
            sol.objective = -sol.objective
        return sol
