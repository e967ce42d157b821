from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palindrome_lab.digits import is_palindrome
from palindrome_lab.streams import (
    count_up_to,
    palindrome_from_half,
    stream_fixed_length,
    stream_up_to,
)


def brute_fixed_length(b, n_digits, restricted=False):
    """Vectorized exhaustive scan of [b^(N-1), b^N) for palindromes."""
    lo, hi = b ** (n_digits - 1), b**n_digits
    out = []
    for start in range(lo, hi, 2_000_000):
        ns = np.arange(start, min(hi, start + 2_000_000), dtype=np.int64)
        digits = [(ns // b**i) % b for i in range(n_digits)]
        mask = digits[0] != 0
        for i in range(n_digits // 2):
            mask &= digits[i] == digits[n_digits - 1 - i]
        hits = ns[mask]
        if restricted:
            hits = hits[np.gcd(hits, b**3 - b) == 1]
        out.extend(int(v) for v in hits)
    return out


def closed_form_count(b, n_digits):
    """#(N-digit base-b palindromes) = (b-1) * b**(ceil(N/2)-1)."""
    return (b - 1) * b ** ((n_digits + 1) // 2 - 1)


def test_fixed_length_examples():
    assert list(stream_fixed_length(10, 1)) == list(range(1, 10))
    assert len(list(stream_fixed_length(10, 3))) == 90
    assert list(stream_fixed_length(10, 2, restricted=True)) == []
    assert list(stream_fixed_length(2, 4)) == [9, 15]


def test_up_to_examples():
    assert list(stream_up_to(10, 100, restricted=True)) == [1, 7]
    assert list(stream_up_to(10, 9)) == list(range(1, 10))
    assert list(stream_up_to(2, 10)) == [1, 3, 5, 7, 9]


def test_count_fixed_length_examples():
    for b, n_digits, expected in ((10, 3, 90), (10, 1, 9), (2, 4, 2)):
        assert closed_form_count(b, n_digits) == expected
        assert sum(1 for _ in stream_fixed_length(b, n_digits)) == expected


@pytest.mark.parametrize("b", range(2, 17))
def test_agrees_with_brute_force_all_lengths(b):
    for n_digits in range(1, 7):
        expected = brute_fixed_length(b, n_digits)
        got = list(stream_fixed_length(b, n_digits))
        assert got == expected, f"b={b}, N={n_digits}"
        assert len(got) == closed_form_count(b, n_digits)


@pytest.mark.parametrize("b", (2, 3, 10, 16))
def test_restricted_agrees_with_brute_force(b):
    for n_digits in range(1, 6):
        expected = brute_fixed_length(b, n_digits, restricted=True)
        got = list(stream_fixed_length(b, n_digits, restricted=True))
        assert got == expected


def test_restricted_fraction_recorded():
    # the restricted share stays inside [0, 1]; it can hit 0 (e.g. two-digit
    # decimal palindromes are all multiples of 11)
    for b, n_digits in ((2, 5), (3, 4), (10, 3), (10, 5)):
        total = closed_form_count(b, n_digits)
        kept = sum(1 for _ in stream_fixed_length(b, n_digits, restricted=True))
        assert 0 <= kept <= total


def test_strictly_increasing():
    values = list(stream_up_to(3, 10**5))
    assert values == sorted(set(values))
    for n in values:
        assert n % 3 != 0


def test_up_to_matches_fixed_length_concatenation():
    x = 123454321
    by_scan = [n for n in stream_up_to(10, x)]
    joined = []
    for n_digits in range(1, 10):
        joined.extend(n for n in stream_fixed_length(10, n_digits) if n <= x)
    assert by_scan == joined


@given(st.integers(2, 12), st.integers(1, 20000))
def test_count_up_to_is_exact(b, x):
    assert count_up_to(b, x) == len(list(stream_up_to(b, x)))


@given(st.integers(2, 16), st.integers(1, 20000), st.booleans())
def test_up_to_matches_palindrome_scan(b, x, restricted):
    # oracle independent of the half-prefix cutoff: test every n <= x
    pals = [n for n in range(1, x + 1) if is_palindrome(n, b)]
    assert count_up_to(b, x) == len(pals)
    if restricted:
        pals = [n for n in pals if gcd(n, b**3 - b) == 1]
    assert list(stream_up_to(b, x, restricted=restricted)) == pals


def test_count_up_to_at_powers():
    assert count_up_to(10, 10**10) == 199998
    assert count_up_to(2, 2**20) == count_up_to(2, 2**20 - 1)


def test_overflow_guards():
    with pytest.raises(OverflowError):
        stream_fixed_length(2, 128)
    with pytest.raises(OverflowError):
        stream_up_to(2, 2**127)
    with pytest.raises(OverflowError):
        stream_fixed_length(2, 200)
    # largest allowed scale still constructs
    stream_fixed_length(2, 127)


def test_count_and_stream_share_the_bound():
    for x in (2**127, 2**128):
        with pytest.raises(OverflowError):
            count_up_to(10, x)
        with pytest.raises(OverflowError):
            stream_up_to(10, x)
    assert count_up_to(10, 0) == 0
    assert count_up_to(10, -5) == 0
    # 10**38 has 39 digits and 10**39 > 2**127: the partial last segment
    # must not go through the fixed-length overflow check
    assert count_up_to(10, 10**38) == 19999999999999999998
    stream_up_to(10, 10**38)


def test_palindrome_from_half_paths():
    # odd length shares the middle digit; even length mirrors fully
    assert palindrome_from_half(12, 10, 3) == 121
    assert palindrome_from_half(12, 10, 4) == 1221
    assert palindrome_from_half(10, 10, 3) == 101
    assert palindrome_from_half(1, 2, 1) == 1
