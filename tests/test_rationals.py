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
