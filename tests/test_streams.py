from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palindrome_lab.digits import is_palindrome, to_digits
from palindrome_lab.streams import (
    BATCH_HALVES,
    PalindromeStream,
    _mirror_batches,
    batches_fixed_length,
    batches_up_to,
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


def test_count_up_to_below_every_power_of_the_base():
    # b**N - 1 is the largest N-digit value, so the count is the sum of the
    # closed forms for 1..N digits; over bases 2..64 up to 2**127
    for b in range(2, 65):
        n_digits, expected = 1, 0
        while b**n_digits < 2**127:
            expected += closed_form_count(b, n_digits)
            assert count_up_to(b, b**n_digits - 1) == expected, (b, n_digits)
            n_digits += 1


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


def _flatten(batches):
    return [v for batch in batches for v in batch.tolist()]


def _crossing_half(b):
    # the digit length N of 2**63 in base b and the first half-prefix whose
    # N-digit palindrome is >= 2**63
    n_digits = len(to_digits(2**63, b))
    m = (n_digits + 1) // 2
    h = 2**63 // b ** (n_digits - m)
    if palindrome_from_half(h, b, n_digits) < 2**63:
        h += 1
    return n_digits, h


@given(st.integers(2, 64), st.integers(1, 10**6), st.booleans())
def test_batches_up_to_match_stream(b, x, restricted):
    batches = list(batches_up_to(b, x, restricted))
    assert all(batch.dtype == np.int64 and len(batch) for batch in batches)
    assert _flatten(batches) == list(stream_up_to(b, x, restricted))


@given(st.integers(2, 64), st.booleans(), st.integers(-300, 300), st.integers(1, 400))
def test_batches_across_int64_limit(b, restricted, offset, count):
    # a run of half-prefixes of the segment whose values pass 2**63
    n_digits, h_cross = _crossing_half(b)
    m = (n_digits + 1) // 2
    lo = min(max(h_cross + offset, b ** (m - 1)), b**m - 1)
    hi = min(lo + count, b**m)
    segment = [(n_digits, lo, hi)]
    batches = list(_mirror_batches(b, segment, restricted))
    expected = [palindrome_from_half(h, b, n_digits) for h in range(lo, hi)]
    if restricted:
        expected = [n for n in expected if gcd(n, b**3 - b) == 1]
    assert _flatten(batches) == expected == list(PalindromeStream(b, segment, restricted))
    for batch in batches:
        assert (batch.dtype == np.int64) == (max(batch.tolist()) < 2**63)


def test_batches_split_long_segments():
    # binary palindromes of 2m digits have 2**(m-1) half-prefixes: two
    # full batches when 2**(m-2) = BATCH_HALVES
    n_digits = 2 * (BATCH_HALVES.bit_length() + 1)
    batches = list(batches_fixed_length(2, n_digits, False))
    assert [len(batch) for batch in batches] == [BATCH_HALVES, BATCH_HALVES]
    assert _flatten(batches) == list(stream_fixed_length(2, n_digits))
    restricted = list(batches_fixed_length(2, n_digits, True))
    assert _flatten(restricted) == list(stream_fixed_length(2, n_digits, restricted=True))
    with pytest.raises(ValueError):
        batches_up_to(10, 0, False)
    with pytest.raises(OverflowError):
        batches_fixed_length(2, 128, False)
