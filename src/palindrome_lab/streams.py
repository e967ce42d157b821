"""Ordered palindrome generation by half-prefix mirroring.

An N-digit base-b palindrome is determined by its leading ceil(N/2) digits,
its half-prefix, and mirroring is increasing in the half-prefix. A palindrome
set is therefore a list of segments (n_digits, half_lo, half_hi), one per
digit length in increasing order, each standing for the palindromes mirrored
from the half-prefixes in [half_lo, half_hi). A cutoff x is applied once, when
the segments are built: the last one ends at h*(x) + 1, where h*(x) is the
largest half-prefix whose mirror is <= x. Batches mirror the segments in
order as numpy arrays of at most BATCH_HALVES half-prefixes each (int64
below 2**63, Python ints in an object array above); streams yield the
values of the batches one by one as Python ints; counts sum their lengths.
"""

from __future__ import annotations

import numpy as np

from .digits import _check_base

# Streams refuse to range beyond 128-bit values.
STREAM_VALUE_LIMIT = 1 << 127

# Half-prefixes mirrored per batch, which bounds a batch's memory: at 2**16,
# with 2**18 pairs per squarefree_mask block, a census-scan pass peaked
# 2.8 MB above the scalar census; at 2**14 and 2**16 it is within 1 MB and
# no slower.
BATCH_HALVES = 1 << 14

_INT64_LIMIT = 1 << 63


def _reverse_fixed_width(v: int, b: int, width: int) -> int:
    r = 0
    for _ in range(width):
        v, d = divmod(v, b)
        r = r * b + d
    return r


def palindrome_from_half(h: int, b: int, n_digits: int) -> int:
    """The N-digit palindrome whose leading ceil(N/2) digits read as h."""
    m = (n_digits + 1) // 2
    if n_digits % 2 == 0:
        return h * b**m + _reverse_fixed_width(h, b, m)
    return h * b ** (m - 1) + _reverse_fixed_width(h // b, b, m - 1)


def _mirror(b: int, n_digits: int, half_lo: int, half_hi: int) -> np.ndarray:
    # palindrome_from_half over a range of h, in int64 when the largest value
    # is below 2**63 (mirroring is increasing in h), else in an object array
    # of Python ints by the same operations: the low n_digits - m digits are
    # the reversal of h without its middle digit
    m = (n_digits + 1) // 2
    tail = n_digits - m
    wide = palindrome_from_half(half_hi - 1, b, n_digits) >= _INT64_LIMIT
    h = np.arange(half_lo, half_hi, dtype=object if wide else np.int64)
    rest = h // b ** (m - tail)
    reversed_rest = np.zeros_like(h)
    for _ in range(tail):
        reversed_rest = reversed_rest * b + rest % b
        rest //= b
    return h * b**tail + reversed_rest


def _mirror_batches(b: int, segments, restricted: bool):
    # each segment is mirrored in chunks of at most BATCH_HALVES
    # half-prefixes; empty batches are skipped
    coprime_to = b**3 - b
    for n_digits, half_lo, half_hi in segments:
        for lo in range(half_lo, half_hi, BATCH_HALVES):
            batch = _mirror(b, n_digits, lo, min(lo + BATCH_HALVES, half_hi))
            if restricted:
                batch = batch[np.gcd(batch, coprime_to) == 1]
                if batch.dtype == object and len(batch) and batch[-1] < _INT64_LIMIT:
                    batch = batch.astype(np.int64)  # every value >= 2**63 was dropped
            if len(batch):
                yield batch


class PalindromeStream:
    """Strictly increasing iterator over a palindrome set given as segments.

    A stream is a one-shot iterator; create a new one to traverse again.
    """

    def __init__(self, base, segments, restricted):
        self.base = base
        self.restricted = restricted
        self._values = (n for batch in _mirror_batches(base, segments, restricted)
                        for n in batch.tolist())

    def __iter__(self) -> "PalindromeStream":
        return self

    def __next__(self) -> int:
        return next(self._values)


def _fixed_length_segment(b: int, n_digits: int) -> tuple[int, int, int]:
    _check_base(b)
    if n_digits < 1:
        raise ValueError("digit count must be >= 1")
    if b**n_digits > STREAM_VALUE_LIMIT:
        raise OverflowError(f"b**N exceeds the 2**127 stream bound (b={b}, N={n_digits})")
    m = (n_digits + 1) // 2
    return n_digits, b ** (m - 1), b**m


def _segments_up_to(b: int, x: int) -> list[tuple[int, int, int]]:
    # Digit lengths below that of x come in full. The length of x may pass
    # the fixed-length 2**127 check, so its segment is built here.
    _check_base(b)
    if x >= STREAM_VALUE_LIMIT:
        raise OverflowError("x exceeds the 2**127 stream bound")
    segments = []
    n_digits = 1
    while b**n_digits <= x:
        segments.append(_fixed_length_segment(b, n_digits))
        n_digits += 1
    m = (n_digits + 1) // 2
    # h*(x): the leading half of x, or one less when its mirror overshoots x
    h = x // b ** (n_digits - m)
    if palindrome_from_half(h, b, n_digits) > x:
        h -= 1
    segments.append((n_digits, b ** (m - 1), h + 1))
    return segments


def stream_fixed_length(b: int, n_digits: int, restricted: bool = False) -> PalindromeStream:
    """All N-digit base-b palindromes in increasing order; when restricted,
    only those coprime to b**3 - b."""
    return PalindromeStream(b, [_fixed_length_segment(b, n_digits)], restricted)


def stream_up_to(b: int, x: int, restricted: bool = False) -> PalindromeStream:
    """All base-b palindromes <= x in increasing order."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return PalindromeStream(b, _segments_up_to(b, x), restricted)


def batches_fixed_length(b: int, n_digits: int, restricted: bool):
    """stream_fixed_length as increasing numpy arrays: int64 below 2**63,
    dtype object above."""
    return _mirror_batches(b, [_fixed_length_segment(b, n_digits)], restricted)


def batches_up_to(b: int, x: int, restricted: bool):
    """stream_up_to as increasing numpy arrays: int64 below 2**63, dtype
    object above."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return _mirror_batches(b, _segments_up_to(b, x), restricted)


def count_up_to(b: int, x: int) -> int:
    """#(palindromes <= x), exact; used for cost models and budgets."""
    if x < 1:
        return 0
    return sum(half_hi - half_lo for _, half_lo, half_hi in _segments_up_to(b, x))
