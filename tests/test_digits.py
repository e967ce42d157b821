import pytest
from hypothesis import given
from hypothesis import strategies as st

from palindrome_lab.digits import is_palindrome, to_digits


def test_to_digits_examples():
    assert to_digits(121, 10) == (1, 2, 1)
    assert to_digits(0, 2) == (0,)
    assert to_digits(343, 10) == (3, 4, 3)
    assert to_digits(6, 2) == (0, 1, 1)  # least significant digit first


def test_digit_count():
    # floor(log_b n) + 1 digits for n >= 1
    assert len(to_digits(1, 10)) == 1
    assert len(to_digits(9, 10)) == 1
    assert len(to_digits(10, 10)) == 2
    assert len(to_digits(999, 10)) == 3
    assert len(to_digits(2**20, 2)) == 21


def test_to_digits_validation():
    with pytest.raises(ValueError):
        to_digits(5, 1)  # base too small
    with pytest.raises(ValueError):
        to_digits(5, 65)  # base too large
    with pytest.raises(ValueError):
        to_digits(-1, 10)


def test_is_palindrome_examples():
    assert is_palindrome(12321, 10)
    assert not is_palindrome(12, 10)
    # 5 = [2,1] in base 3; reversal [1,2] is 7, not 5
    assert not is_palindrome(5, 3)
    assert not is_palindrome(0, 7)
    for b in (2, 3, 10, 36, 64):
        assert is_palindrome(1, b)


@given(st.integers(min_value=0, max_value=2**127 - 1), st.integers(2, 64))
def test_round_trip(n, b):
    ds = to_digits(n, b)
    assert sum(d * b**i for i, d in enumerate(ds)) == n
    assert all(0 <= d < b for d in ds)
    assert n == 0 or ds[-1] != 0


@given(st.integers(min_value=0, max_value=10**12), st.integers(2, 64))
def test_palindrome_matches_digit_reversal(n, b):
    ds = to_digits(n, b)
    expected = n > 0 and ds == ds[::-1] and n % b != 0
    assert is_palindrome(n, b) == expected
