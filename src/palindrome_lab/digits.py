"""Base-b digit expansions and the palindrome predicate.

Digit tuples are little-endian: index i holds the coefficient of b**i.
All values are exact Python integers; bases 2..64 are supported.
"""

from __future__ import annotations

MIN_BASE = 2
MAX_BASE = 64


def _check_base(b: int) -> None:
    if not MIN_BASE <= b <= MAX_BASE:
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {b}")


def to_digits(n: int, b: int) -> tuple[int, ...]:
    """Expand n >= 0 in base b, least significant digit first."""
    _check_base(b)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (0,)
    ds = []
    while n:
        n, r = divmod(n, b)
        ds.append(r)
    return tuple(ds)


def is_palindrome(n: int, b: int) -> bool:
    """True iff n is a base-b palindrome: b does not divide n and the digit
    string equals its own reversal. 0 is not a palindrome (b | 0)."""
    _check_base(b)
    if n <= 0 or n % b == 0:
        return False
    ds = []
    while n:
        n, r = divmod(n, b)
        ds.append(r)
    i, j = 0, len(ds) - 1
    while i < j:
        if ds[i] != ds[j]:
            return False
        i += 1
        j -= 1
    return True
