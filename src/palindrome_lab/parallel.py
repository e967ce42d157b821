"""Deterministic ordered map.

Everything runs serially in the calling thread; results come back in input
order, so outputs are identical from run to run.
"""

from __future__ import annotations


def map_in_order(fn, items) -> list:
    """Map fn over items, preserving input order in the result list."""
    return [fn(item) for item in items]
