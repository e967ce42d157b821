"""Deterministic ordered map and reduction helpers.

Everything runs serially in the calling thread; results come back in input
order and floats are combined by a fixed association, so outputs are
identical from run to run.
"""

from __future__ import annotations


def map_in_order(fn, items) -> list:
    """Map fn over items, preserving input order in the result list."""
    return [fn(item) for item in items]


def pairwise_sum(values):
    """Sum by balanced pairwise reduction (deterministic float association)."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]
