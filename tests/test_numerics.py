from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knnopinion.numerics import format_scalar, parse_scalar
from reference_numerics import mean_of

F = Fraction


def test_mean_identity_case():
    assert mean_of([F(1, 2), F(1, 2), F(1, 2)]) == F(1, 2)


def test_mean_tie_counterexample_agent():
    # mean over {alpha, beta, (alpha+beta)/2} with alpha=0, beta=1
    assert mean_of([F(0), F(1), F(1, 2)]) == F(1, 2)


def test_mean_float_midpoint():
    assert mean_of([0.0, 0.5]) == 0.25


def test_mean_exact_is_exact():
    got = mean_of([F(1, 3), F(1, 7)])
    assert isinstance(got, Fraction)
    assert got == F(5, 21)


def test_parse_and_format_round_trip():
    for text in ["2/5", "-7/3", "0/1", "123/456"]:
        assert format_scalar(parse_scalar(text)) == format_scalar(Fraction(text))
    assert parse_scalar(3) == F(3)
    assert parse_scalar(0.25) == 0.25
    assert format_scalar(0.1) == "0.10000000000000001"
    assert format_scalar(3) == "3/1"


@given(st.lists(st.fractions(), min_size=1, max_size=8), st.integers(1, 6))
def test_mean_of_copies_is_identity(values, copies):
    v = values[0]
    assert mean_of([v] * copies) == v


@given(st.lists(st.floats(0, 1), min_size=1, max_size=9))
def test_float_mean_stays_in_hull(values):
    m = mean_of(values)
    assert min(values) <= m <= max(values)


@pytest.mark.parametrize("raw", ["1/0", "5/", "1.5/2", "a/3", "1/2/3", "",
                                 float("nan"), float("inf"), float("-inf"),
                                 pytest.param("1" + "0" * 400, id="1e400-string"),
                                 pytest.param(-10 ** 400, id="-1e400-int")])
def test_parse_scalar_rejects_malformed_and_non_finite(raw):
    with pytest.raises(ValueError):
        parse_scalar(raw)
