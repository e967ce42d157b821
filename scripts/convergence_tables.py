#!/usr/bin/env python3
"""Census convergence tables.

For a doubling sequence of cutoffs, tabulates the square-free share of
restricted palindromes against the Euler-product density, and the share in
fixed digit lengths against 1/zeta(2). Emits CSV on stdout.
"""

import argparse
import sys

from palindrome_lab import harness
from palindrome_lab.report import emit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--base", type=int, default=10)
    parser.add_argument("--max", type=int, default=10**8)
    parser.add_argument("--points", type=int, default=7,
                        help="number of cutoffs, spaced by factors of 10")
    args = parser.parse_args()

    xs = [args.max // 10**i for i in range(args.points) if args.max // 10**i >= 10]
    records = harness.asymptotic_report(args.base, sorted(set(xs)))
    emit(records, "csv", sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
