"""Rational helpers: parsing, formatting, lcm of denominators."""

import pytest

from spectral_lb.rationals import (
    Q,
    as_q,
    denominator_lcm,
    format_q,
    is_rational,
    parse_q,
)


def test_parse_and_format():
    assert parse_q("3/4") == Q(3, 4)
    assert parse_q("-2") == Q(-2)
    assert format_q(Q(6, 4)) == "3/2"
    assert format_q(Q(5)) == "5"
    with pytest.raises(ValueError):
        parse_q("x/y")
    with pytest.raises(ValueError):
        parse_q("1/0")


def test_coercion():
    assert as_q(3) == Q(3)
    from fractions import Fraction

    assert as_q(Fraction(1, 3)) == Q(1, 3)
    with pytest.raises(TypeError):
        as_q(0.5)
    assert not is_rational(0.5) and is_rational(Q(1, 2)) and is_rational(7)


def test_denominator_lcm():
    assert denominator_lcm([Q(1, 2), Q(1, 3), Q(5)]) == 6
    assert denominator_lcm([]) == 1
    assert denominator_lcm([Q(3, 4), Q(5, 6)]) == 12


# ---------------------------------------------------------------------------
# fraction-free elimination against rational Gaussian elimination

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_lb.rationals import bareiss_step


def _eliminate(rows, r, c, targets):
    """Fraction reference: clear column c in the target rows with row r."""

    piv = rows[r][c]
    for i in targets:
        if i != r:
            f = rows[i][c] / piv
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]


_small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def _check_steps(mat, forward, pick=lambda cand: cand[0], alias=None, frozen=()):
    """Run a step sequence on mat against the Fraction reference.

    Gauss-Jordan (forward false, targets=None) compares every row with
    p R, where R is the rational Gauss-Jordan matrix with normalised pivot
    rows.  Forward elimination (targets = open rows, as in the exact PSD
    test) compares the targets with p times the rational Schur complement.
    The pivot row, earlier pivot rows and frozen rows must not change, and
    no row list handed in may be written through, also when alias = (i, j)
    passes rows i and j as one shared list.  Returns the set of p == prev
    outcomes seen.
    """

    m, n = len(mat), len(mat[0])
    ref = [[Fraction(x) for x in row] for row in mat]
    rows = [list(row) for row in mat]
    if alias is not None:
        i, j = alias
        rows[j] = rows[i]
        ref[j] = list(ref[i])
    open_rows = [i for i in range(m) if i not in frozen]
    prev = 1
    kinds = set()
    for c in range(n):
        cand = [i for i in open_rows if rows[i][c] != 0]
        if not cand:
            continue
        r = pick(cand)
        targets = [i for i in open_rows if i != r] if forward else None
        passed = list(rows)
        snapshot = [list(row) for row in rows]
        p = rows[r][c]
        kinds.add(p == prev)

        bareiss_step(rows, r, [row[c] for row in rows], prev, targets=targets)

        for obj, before in zip(passed, snapshot):
            assert obj == before
        touched = set(targets) if forward else set(range(m)) - {r}
        _eliminate(ref, r, c, touched)
        if forward:
            open_rows.remove(r)
        else:
            ref[r] = [x / ref[r][c] for x in ref[r]]
            assert rows[r] == [p * x for x in ref[r]]
        assert rows[r] == snapshot[r]
        for i in range(m):
            if i in touched:
                assert all(type(x) is int for x in rows[i])
                assert rows[i] == [p * x for x in ref[i]]
            elif i != r:
                assert rows[i] == snapshot[i]
        prev = p
    return kinds


@pytest.mark.parametrize("forward", [False, True])
def test_bareiss_step_sparse_and_full_updates(forward):
    # pivots 1 (= prev, the sparse update) then -5 and -7 (the full one)
    mat = [[1, 2, 0, 1], [3, 1, 1, 0], [0, 2, 1, 0]]
    assert _check_steps(mat, forward) == {True, False}
    # the shared list passed as rows 0 and 2 must not be written through
    assert _check_steps(mat, forward, alias=(0, 2)) == {True, False}


@settings(max_examples=300, deadline=None)
@given(mat=_small_matrices, forward=st.booleans(), data=st.data())
def test_bareiss_step_matches_fraction_elimination(mat, forward, data):
    m = len(mat)
    alias = None
    if m > 1 and data.draw(st.booleans()):
        alias = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True)))
    frozen = ()
    if forward:
        frozen = set(data.draw(st.lists(st.integers(0, m - 1), max_size=m - 1, unique=True)))
    _check_steps(mat, forward, lambda cand: data.draw(st.sampled_from(cand)), alias, frozen)
