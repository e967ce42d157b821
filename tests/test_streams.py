import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palindrome_lab import streams
from palindrome_lab.digits import is_palindrome, to_digits
from palindrome_lab.streams import (
    GRID_VALUES,
    PalindromeStream,
    _digit_weights,
    _fixed_length_segment,
    _flat_batches,
    _grid_blocks,
    _segments_up_to,
    batches_up_to,
    count_up_to,
    grids_fixed_length,
    grids_up_to,
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


@pytest.mark.parametrize("b", range(2, 65))
def test_segments_end_at_the_first_half_above_x(b):
    # the cut h*(x) + 1 against palindrome_from_half at x = b**N - 1, b**N
    # and b**N + 1 for every N below the 2**127 bound, and at 2**63 - 1 and
    # 2**127 - 1; half_hi may be b**m, which mirrors to b**N
    edges = {2**63 - 1, 2**127 - 1}
    n = 1
    while b**n + 1 < 2**127:
        edges |= {b**n - 1, b**n, b**n + 1}
        n += 1
    for x in sorted(edges):
        segments = _segments_up_to(b, x)
        n_digits, half_lo, half_hi = segments[-1]
        assert n_digits == len(to_digits(x, b)) == len(segments)
        assert segments[:-1] == [_fixed_length_segment(b, n) for n in range(1, n_digits)]
        assert half_lo == b ** ((n_digits - 1) // 2) <= half_hi
        assert palindrome_from_half(half_hi, b, n_digits) > x, x
        if half_hi > half_lo:
            assert palindrome_from_half(half_hi - 1, b, n_digits) <= x, x


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


def _scalar_mirror(b, n_digits, half_lo, half_hi, restricted=False):
    """palindrome_from_half over [half_lo, half_hi), optionally restricted."""
    values = [palindrome_from_half(h, b, n_digits) for h in range(half_lo, half_hi)]
    return [n for n in values if gcd(n, b**3 - b) == 1] if restricted else values


def _scalar_up_to(b, x, restricted=False):
    """Every palindrome <= x by palindrome_from_half, over every half-prefix
    of every digit length up to that of x."""
    return [n for n_digits in range(1, len(to_digits(x, b)) + 1)
            for n in _scalar_mirror(b, n_digits, b ** ((n_digits - 1) // 2),
                                    b ** ((n_digits + 1) // 2), restricted)
            if n <= x]


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
    # streams flatten the batches, so the reference is the scalar mirror
    assert _flatten(batches) == _scalar_up_to(b, x, restricted)


@given(st.integers(2, 64), st.booleans(), st.integers(-300, 300), st.integers(1, 400))
def test_batches_across_int64_limit(b, restricted, offset, count):
    # a run of half-prefixes of the segment whose values pass 2**63
    n_digits, h_cross = _crossing_half(b)
    m = (n_digits + 1) // 2
    lo = min(max(h_cross + offset, b ** (m - 1)), b**m - 1)
    hi = min(lo + count, b**m)
    segment = [(n_digits, lo, hi)]
    batches = list(_flat_batches(b, segment, restricted))
    expected = _scalar_mirror(b, n_digits, lo, hi, restricted)
    assert _flatten(batches) == expected == list(PalindromeStream(b, segment, restricted))
    # the dtype follows the largest palindrome of the segment
    wide = palindrome_from_half(hi - 1, b, n_digits) >= 2**63
    for batch in batches:
        assert (batch.dtype == object) == wide


@pytest.mark.parametrize("b", (2, 3, 10, 64))
def test_streams_yield_python_ints_across_int64_limit(b):
    # 50 half-prefixes on each side of 2**63 in its digit length N, and the
    # last 50 of N - 1 digits (in base 2 no N-digit palindrome is below 2**63)
    n_digits, h_cross = _crossing_half(b)
    m = (n_digits + 1) // 2
    half_below = b ** (n_digits // 2)
    segments = [(n_digits - 1, half_below - 50, half_below),
                (n_digits, max(h_cross - 50, b ** (m - 1)), h_cross + 50)]
    values = list(PalindromeStream(b, segments, False))
    assert min(values) < 2**63 <= max(values)
    restricted = list(PalindromeStream(b, segments, True))
    assert set(restricted) == {n for n in values if gcd(n, b**3 - b) == 1}
    for n in values + restricted + list(stream_up_to(b, 10**4, True)):
        assert type(n) is int


def test_batches_split_long_segments(monkeypatch):
    # a batch is one grid block: at 2**12 values per block, the 2**14
    # half-prefixes of 30 binary digits are 256 rows of 64 columns, in
    # blocks of 64 rows
    monkeypatch.setattr(streams, "GRID_VALUES", 1 << 12)
    segment = _fixed_length_segment(2, 30)
    batches = list(_flat_batches(2, [segment], False))
    assert [len(batch) for batch in batches] == [1 << 12] * 4
    assert _flatten(batches) == _scalar_mirror(2, *segment)
    # an odd length has restricted members; the split is the same
    segment = _fixed_length_segment(2, 29)
    restricted = list(_flat_batches(2, [segment], True))
    assert len(restricted) == 4
    assert _flatten(restricted) == _scalar_mirror(2, *segment, restricted=True)
    # a stream turns a batch into Python ints a slice at a time
    monkeypatch.setattr(streams, "_STREAM_SLICE", 100)
    assert list(stream_fixed_length(2, 29, restricted=True)) == _flatten(restricted)
    with pytest.raises(ValueError):
        batches_up_to(10, 0, False)


def _grid_values(blocks, limit=GRID_VALUES):
    """The values of grid blocks row by row, and those their keep masks keep."""
    values, kept = [], []
    for high, low, keep in blocks:
        assert len(high) * len(low) <= max(limit, len(low))
        block = (high[:, None] + low[None, :]).ravel()
        values += block.tolist()
        kept += (block if keep is None else block[keep]).tolist()
    return values, kept


def _int64_windows(b, rng, size=300):
    """(n_digits, half_lo, half_hi) runs of at most size half-prefixes, for
    every N with b**N < 2**63: the first and the last of the N-digit
    segment, a random one, and the last before the cutoff h*(x) of a random
    N-digit x."""
    n_digits = 1
    while b**n_digits < 2**63:
        m = (n_digits + 1) // 2
        first, end = b ** (m - 1), b**m
        start = rng.randrange(first, end)
        cut = _segments_up_to(b, rng.randrange(b ** (n_digits - 1), b**n_digits))[-1]
        yield from ((n_digits, first, min(first + size, end)),
                    (n_digits, max(first, end - size), end),
                    (n_digits, start, min(start + rng.randrange(1, size), end)),
                    (n_digits, max(cut[1], cut[2] - size), cut[2]))
        n_digits += 1


@pytest.mark.parametrize("b", range(2, 65))
def test_grids_match_mirror_below_int64_limit(b):
    # every digit length N with b**N < 2**63, both parities, the top of each
    # segment (up to 2**63 - 1 in base 2) and the partial last segment of x
    rng = random.Random(b)
    for segment in _int64_windows(b, rng):
        mirrored = _scalar_mirror(b, *segment)
        values, kept = _grid_values(_grid_blocks(b, [segment], False))
        assert values == kept == mirrored, segment
        _, kept = _grid_values(_grid_blocks(b, [segment], True))
        assert kept == [n for n in mirrored if gcd(n, b**3 - b) == 1], segment


@given(st.integers(2, 64), st.booleans(), st.integers(-300, 300), st.integers(1, 400))
def test_grids_across_int64_limit(b, restricted, offset, count):
    # the object grid of a run whose values pass 2**63
    n_digits, h_cross = _crossing_half(b)
    m = (n_digits + 1) // 2
    lo = min(max(h_cross + offset, b ** (m - 1)), b**m - 1)
    segment = (n_digits, lo, min(lo + count, b**m))
    expected = _scalar_mirror(b, *segment, restricted)
    assert _grid_values(_grid_blocks(b, [segment], restricted))[1] == expected


def test_grids_of_whole_sets(monkeypatch):
    for b, x in ((10, 123454321), (2, 5 * 2**28), (3, 10**7), (64, 10**9)):
        for restricted in (False, True):
            values = _scalar_up_to(b, x, restricted)
            assert _grid_values(grids_up_to(b, x, restricted))[1] == values
            assert list(stream_up_to(b, x, restricted)) == values
    # at 2**12 values per block a block has at most 2**6 columns, so the
    # 2**15 half-prefixes of the 31-digit binary segment are 512 rows of 64,
    # in blocks of 64 rows
    monkeypatch.setattr(streams, "GRID_VALUES", 1 << 12)
    blocks = list(grids_fixed_length(2, 31, False))
    assert [len(high) for high, _, _ in blocks] == [64] * 8
    assert [len(low) for _, low, _ in blocks] == [64] * 8
    assert _grid_values(blocks, 1 << 12)[0] == _scalar_mirror(2, 31, 2**15, 2**16)
    with pytest.raises(ValueError):
        grids_up_to(10, 0, False)


def test_digit_weights():
    # W_j = b**(N-1-j) + b**j; the middle digit of an odd length counts once
    assert _digit_weights(10, 5) == [10001, 1010, 100]
    assert _digit_weights(10, 4) == [1001, 110]
    assert _digit_weights(2, 1) == [1]


def test_even_length_palindromes_are_multiples_of_b_plus_1():
    # b = -1 (mod b + 1), so the two terms of each weight cancel when N is
    # even: every weight, hence every palindrome, is a multiple of b + 1
    rng = random.Random(1)
    for b in range(2, 65):
        for n_digits in range(2, 128, 2):
            if b**n_digits > 2**127:
                break
            assert all(w % (b + 1) == 0 for w in _digit_weights(b, n_digits)), (b, n_digits)
        for segment in _int64_windows(b, rng, size=50):
            if segment[0] % 2 == 0:
                assert all(n % (b + 1) == 0 for n in _scalar_mirror(b, *segment))
                assert not list(_grid_blocks(b, [segment], True))
