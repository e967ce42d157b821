"""Ordered palindrome generation by half-prefix mirroring.

An N-digit base-b palindrome is determined by its leading ceil(N/2) digits,
its half-prefix, and mirroring is increasing in the half-prefix. A palindrome
set is therefore a list of segments (n_digits, half_lo, half_hi), one per
digit length in increasing order, each standing for the palindromes mirrored
from the half-prefixes in [half_lo, half_hi). A cutoff x is applied once, when
the segments are built: the last one ends at h*(x) + 1, where h*(x) is the
largest half-prefix whose mirror is <= x. Streams mirror the segments in
order; counts sum their lengths.
"""

from __future__ import annotations

from math import gcd

from .digits import _check_base

# Streams refuse to range beyond 128-bit values.
STREAM_VALUE_LIMIT = 1 << 127


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


def _mirror(b: int, segments, restricted: bool):
    coprime_to = b**3 - b
    for n_digits, half_lo, half_hi in segments:
        for h in range(half_lo, half_hi):
            n = palindrome_from_half(h, b, n_digits)
            if restricted and gcd(n, coprime_to) != 1:
                continue
            yield n


class PalindromeStream:
    """Strictly increasing iterator over a palindrome set given as segments.

    A stream is a one-shot iterator; create a new one to traverse again.
    """

    def __init__(self, base, segments, restricted):
        self.base = base
        self.restricted = restricted
        self._values = _mirror(base, segments, restricted)

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


def count_up_to(b: int, x: int) -> int:
    """#(palindromes <= x), exact; used for cost models and budgets."""
    if x < 1:
        return 0
    return sum(half_hi - half_lo for _, half_lo, half_hi in _segments_up_to(b, x))
