"""Ordered palindrome generation by half-prefix mirroring.

An N-digit base-b palindrome is determined by its leading ceil(N/2) digits;
iterating that half-prefix in increasing order yields the palindromes of
length N in increasing order. Streams over all lengths concatenate the
fixed-length streams.
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


class PalindromeStream:
    """Strictly increasing cursor over a palindrome set.

    A stream is a one-shot iterator; create a new one to traverse again.
    """

    def __init__(self, base, segments, restricted, cutoff):
        # segments: list of (n_digits, half_lo, half_hi) in increasing order
        self.base = base
        self.restricted = restricted
        self._segments = segments
        self._cutoff = cutoff
        self._coprime_to = base**3 - base
        self._seg_index = 0
        self._half = segments[0][1] if segments else 0
        self._done = not segments

    def __iter__(self) -> "PalindromeStream":
        return self

    def __next__(self) -> int:
        while not self._done:
            n_digits, _, half_hi = self._segments[self._seg_index]
            b = self.base
            while self._half < half_hi:
                n = palindrome_from_half(self._half, b, n_digits)
                self._half += 1
                if self._cutoff is not None and n > self._cutoff:
                    # mirroring is increasing, so the rest of this segment and
                    # every longer segment is out of range
                    self._done = True
                    raise StopIteration
                if self.restricted and gcd(n, self._coprime_to) != 1:
                    continue
                return n
            self._seg_index += 1
            if self._seg_index >= len(self._segments):
                self._done = True
            else:
                self._half = self._segments[self._seg_index][1]
        raise StopIteration


def _half_range(b: int, n_digits: int) -> tuple[int, int]:
    m = (n_digits + 1) // 2
    return b ** (m - 1), b**m


def stream_fixed_length(b: int, n_digits: int, restricted: bool = False) -> PalindromeStream:
    """All N-digit base-b palindromes in increasing order; when restricted,
    only those coprime to b**3 - b."""
    _check_base(b)
    if n_digits < 1:
        raise ValueError("digit count must be >= 1")
    if b**n_digits > STREAM_VALUE_LIMIT:
        raise OverflowError(f"b**N exceeds the 2**127 stream bound (b={b}, N={n_digits})")
    lo, hi = _half_range(b, n_digits)
    return PalindromeStream(b, [(n_digits, lo, hi)], restricted, None)


def stream_up_to(b: int, x: int, restricted: bool = False) -> PalindromeStream:
    """All base-b palindromes <= x in increasing order."""
    _check_base(b)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x >= STREAM_VALUE_LIMIT:
        raise OverflowError(f"x exceeds the 2**127 stream bound")
    segments = []
    n_digits = 1
    while b ** (n_digits - 1) <= x:
        segments.append((n_digits, *_half_range(b, n_digits)))
        n_digits += 1
    return PalindromeStream(b, segments, restricted, x)


def count_fixed_length(b: int, n_digits: int) -> int:
    """#(N-digit base-b palindromes) = (b-1) * b**(ceil(N/2)-1)."""
    _check_base(b)
    if n_digits < 1:
        raise ValueError("digit count must be >= 1")
    if b**n_digits > STREAM_VALUE_LIMIT:
        raise OverflowError(f"b**N exceeds the 2**127 stream bound (b={b}, N={n_digits})")
    return (b - 1) * b ** ((n_digits + 1) // 2 - 1)


def count_up_to(b: int, x: int) -> int:
    """#(palindromes <= x), exact; used for cost models and budgets.

    Digit lengths below that of x count in full; in the length of x the
    half-prefixes run up to the largest one whose mirror is <= x.
    """
    if x < 1:
        return 0
    total = 0
    n_digits = 1
    while b**n_digits <= x:
        total += count_fixed_length(b, n_digits)
        n_digits += 1
    lo, _ = _half_range(b, n_digits)
    # the leading half of x, or one less when its mirror overshoots x
    h = x // b ** (n_digits - (n_digits + 1) // 2)
    if palindrome_from_half(h, b, n_digits) > x:
        h -= 1
    return total + h - lo + 1
