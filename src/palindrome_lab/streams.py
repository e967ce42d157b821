"""Ordered palindrome generation by digit-weight grids.

An N-digit base-b palindrome is determined by its leading ceil(N/2) digits,
its half-prefix, and mirroring is increasing in the half-prefix. A palindrome
set is therefore a list of segments (n_digits, half_lo, half_hi), one per
digit length in increasing order, each standing for the palindromes mirrored
from the half-prefixes in [half_lo, half_hi). A cutoff x is applied once, when
the segments are built: the last one ends at h*(x) + 1, where h*(x) is the
largest half-prefix whose mirror is <= x.

Grids reach the values of the segments without mirroring. A palindrome is
linear in the digits h_j of its half-prefix, n = sum_j h_j * W_j with W_j =
b**(N-1-j) + b**j (j = 0 the leading digit; an odd length's middle digit has
the single term b**j). Splitting h = high * b**k + low, with k about half of
the ceil(N/2) digits, makes n = A[high] + B[low], so a segment is a few
blocks of rows A and columns B whose sums are its palindromes, row by row in
increasing order. This is the module's one generator: batches flatten the
blocks, streams yield their values one by one as Python ints, and counts sum
the segment lengths. (The Mobius side of a checked census finds its own
palindromes, among the multiples of each d^2.)

A restricted set keeps the palindromes coprime to b**3 - b. Its even-length
segments are empty, since b + 1 divides every even-length palindrome, so
grids skip them.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .digits import _check_base

# Streams refuse to range beyond 128-bit values.
STREAM_VALUE_LIMIT = 1 << 127

# Values (rows times columns) per grid block and batch, which bounds the
# memory of the square-free kernel on one block to a few arrays of this length.
GRID_VALUES = 1 << 20

# Values a stream turns into a list of Python ints at a time.
_STREAM_SLICE = 1 << 14

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


def _digit_weights(b: int, n_digits: int) -> list[int]:
    """W_j for each half-prefix digit j, j = 0 the leading one."""
    return [b ** (n_digits - 1 - j) + b**j if 2 * j != n_digits - 1 else b**j
            for j in range((n_digits + 1) // 2)]


def _weighted_digits(numbers: np.ndarray, b: int, weights: list[int]) -> np.ndarray:
    """For each number, its len(weights) base-b digits (leading zeros
    included) times weights, the most significant digit times weights[0],
    summed."""
    out = np.zeros_like(numbers)
    rest = numbers.copy()
    for w in reversed(weights):
        out += rest % b * w
        rest //= b
    return out


def _grid_pieces(half_lo: int, half_hi: int, width: int):
    """[half_lo, half_hi) as rectangles (row_lo, row_hi, col_lo, col_hi) of
    the h = row * width + col: the full rows, and a partial row at either end."""
    full_lo, full_hi = -(-half_lo // width), half_hi // width
    if full_lo > full_hi:  # inside one row
        row = half_lo // width
        return [(row, row + 1, half_lo - row * width, half_hi - row * width)]
    pieces = []
    if half_lo < full_lo * width:
        pieces.append((full_lo - 1, full_lo, half_lo - (full_lo - 1) * width, width))
    if full_lo < full_hi:
        pieces.append((full_lo, full_hi, 0, width))
    if full_hi * width < half_hi:
        pieces.append((full_hi, full_hi + 1, 0, half_hi - full_hi * width))
    return pieces


def _grid_blocks(b: int, segments, restricted: bool):
    """The segments as blocks (high, low, keep) whose values high[i] + low[j],
    taken row by row, are their palindromes in increasing order; a block has
    at most GRID_VALUES of them (or one row). high and low are int64 when the
    segment's largest value is below 2**63, else object arrays of Python ints.

    keep is None for an unrestricted set. A restricted one keeps only the
    rows whose leading digit is coprime to b (n = that digit mod b), and keep
    flags the values of the block coprime to b**2 - 1.
    """
    m_mod = b * b - 1
    # indexed by the sum of two residues mod b**2 - 1 (below 2 * 4095 for
    # b <= 64, so int16), which spares a block-sized second reduction
    coprime_residue = np.tile(np.gcd(np.arange(m_mod), m_mod) == 1, 2)
    for n_digits, half_lo, half_hi in segments:
        if half_lo >= half_hi or (restricted and n_digits % 2 == 0):
            continue  # b + 1 divides every even-length palindrome
        m = (n_digits + 1) // 2
        # low takes the last k digits: half of them, but no more columns
        # than a block of GRID_VALUES has rows, so that no block repeats
        # more column residues than it has row residues
        k = m // 2
        while b ** (2 * k) > GRID_VALUES:
            k -= 1
        weights = _digit_weights(b, n_digits)
        wide = palindrome_from_half(half_hi - 1, b, n_digits) >= _INT64_LIMIT
        dtype = object if wide else np.int64
        lows = _weighted_digits(np.arange(b**k, dtype=dtype), b, weights[m - k :])
        for row_lo, row_hi, col_lo, col_hi in _grid_pieces(half_lo, half_hi, b**k):
            rows = np.arange(row_lo, row_hi, dtype=dtype)
            if restricted:
                rows = rows[np.gcd(rows // b ** (m - k - 1), b) == 1]
            low = lows[col_lo:col_hi]
            step = max(1, GRID_VALUES // len(low))
            for start in range(0, len(rows), step):
                high = _weighted_digits(rows[start : start + step], b, weights[: m - k])
                keep = None
                if restricted:
                    residues = ((high % m_mod).astype(np.int16)[:, None]
                                + (low % m_mod).astype(np.int16)[None, :])
                    keep = coprime_residue[residues.ravel()]
                yield high, low, keep


def _flat_batches(b: int, segments, restricted: bool):
    """The values each grid block keeps, row by row; empty ones are skipped."""
    for high, low, keep in _grid_blocks(b, segments, restricted):
        values = (high[:, None] + low[None, :]).ravel()
        values = values if keep is None else values[keep]
        if len(values):
            yield values


class PalindromeStream:
    """Strictly increasing iterator over a palindrome set given as segments.

    A stream is a one-shot iterator; create a new one to traverse again.
    """

    def __init__(self, base, segments, restricted):
        self._values = chain.from_iterable(
            batch[start : start + _STREAM_SLICE].tolist()
            for batch in _flat_batches(base, segments, restricted)
            for start in range(0, len(batch), _STREAM_SLICE))

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
    if x < 1:
        raise ValueError("x must be >= 1")
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
    return PalindromeStream(b, _segments_up_to(b, x), restricted)


def batches_up_to(b: int, x: int, restricted: bool):
    """stream_up_to as increasing numpy arrays, one per grid block (see _grid_blocks)."""
    return _flat_batches(b, _segments_up_to(b, x), restricted)


def grids_fixed_length(b: int, n_digits: int, restricted: bool):
    """The palindromes of stream_fixed_length as grid blocks (see
    _grid_blocks)."""
    return _grid_blocks(b, [_fixed_length_segment(b, n_digits)], restricted)


def grids_up_to(b: int, x: int, restricted: bool):
    """The palindromes of stream_up_to as grid blocks (see _grid_blocks)."""
    return _grid_blocks(b, _segments_up_to(b, x), restricted)


def count_up_to(b: int, x: int) -> int:
    """#(palindromes <= x), exact; used for cost models and budgets."""
    if x < 1:
        return 0
    return sum(half_hi - half_lo for _, half_lo, half_hi in _segments_up_to(b, x))
