"""Command-line front end.

Subcommands: enumerate, census, sbd, k2, poisson, oscillate, vdc,
discrepancy, verify-all. Reports are CSV (RFC-4180 quoting) or JSON and are
byte-identical for identical configurations.

Handlers compute and return (rows, exit_code); main alone writes the rows to
--output or stdout, and an error exit (rows = None) writes nothing. enumerate
writes its unbounded, headerless stream itself and returns (None, code).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager

from . import acceptance, census, expsum, harness, oscillate
from .digits import to_digits
from .report import emit, fmt_real
from .streams import stream_fixed_length, stream_up_to


@contextmanager
def _output(args):
    """The report destination: --output PATH, else stdout."""
    if not args.output:
        yield sys.stdout
        return
    with open(args.output, "w", encoding="utf-8", newline="") as handle:
        yield handle


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_enumerate(args):
    if (args.max is None) == (args.digits is None):
        print("enumerate: exactly one of --max/--digits is required", file=sys.stderr)
        return None, 2
    if args.digits is not None:
        stream = stream_fixed_length(args.base, args.digits, restricted=args.restricted)
    else:
        stream = stream_up_to(args.base, args.max, restricted=args.restricted)
    with _output(args) as out:
        for n in stream:
            if args.render_digits:
                rendered = ".".join(str(d) for d in to_digits(n, args.base)[::-1])
                out.write(f"{n},{rendered}\n")
            else:
                out.write(f"{n}\n")
    return None, 0


def cmd_census(args):
    records = []
    if args.max is None and args.digits is None:
        print("census: one of --max/--digits is required", file=sys.stderr)
        return None, 2
    try:
        if args.max is not None:
            records.append(census.census_up_to(args.base, args.max))
        if args.digits is not None:
            records.append(census.q_fixed_length(args.base, args.digits))
    except ArithmeticError as exc:
        print(f"census: {exc}", file=sys.stderr)
        return None, 1
    return records, 0


def cmd_sbd(args):
    via_stream = census.s_b(args.base, args.max, args.d, strategy="stream")
    via_multiples = census.s_b(args.base, args.max, args.d, strategy="multiples")
    row = dict(base=args.base, x=args.max, d_dyadic=args.d,
               count_stream=via_stream, count_multiples=via_multiples)
    return [row], 0 if via_stream == via_multiples else 1


def cmd_k2(args):
    if args.check_identity and args.c < 2:
        # the stationary-phase form needs c >= 2; below it there is no
        # second route to compare the direct sum with
        print("k2: --check-identity requires c >= 2", file=sys.stderr)
        return None, 2
    params = expsum.ExpSumParams(args.a1, args.a2, args.a3, args.q, args.c)
    full = expsum.k2_full(params)
    if args.c >= 2:
        sp = expsum.k2_stationary_phase(params)
    else:
        sp = full
    diff = abs(full - sp)
    row = dict(a1=args.a1, a2=args.a2, a3=args.a3, q=args.q, c=args.c,
               full_re=full.real, full_im=full.imag,
               stationary_re=sp.real, stationary_im=sp.imag, difference=diff)
    if args.check_identity and diff >= expsum.STATIONARY_PHASE_TOL * math.sqrt(args.c):
        print(f"k2: identity violated, |full - stationary| = {fmt_real(diff)}",
              file=sys.stderr)
        return [row], 1
    return [row], 0


def cmd_poisson(args):
    rep = expsum.poisson_demo(args.demo, args.q)
    row = dict(demo=args.demo, q=args.q,
               lhs_re=rep.lhs.real, lhs_im=rep.lhs.imag,
               rhs_re=rep.rhs.real, rhs_im=rep.rhs.imag,
               difference=rep.difference, modes=rep.m_cut)
    return [row], 0 if rep.difference < expsum.POISSON_TOL else 1


def cmd_oscillate(args):
    reports = oscillate.bound_campaign(args.seed, args.count)
    rows = [dict(family=family, index=i, observed=rep.observed, bound=rep.bound,
                 passed=rep.passed) for family, i, rep in reports]
    return rows, 0 if all(rep.passed for _, _, rep in reports) else 1


def cmd_vdc(args):
    reports = harness.weyl_vdc_reports(args.d, args.q_max, args.seed)
    rows = [dict(family=family, d_dyadic=args.d, q_max=args.q_max,
                 lhs=rep.lhs, rhs=rep.rhs, ratio=rep.ratio) for family, rep in reports]
    return rows, 0 if all(rep.ratio <= 4.0 for _, rep in reports) else 1


def cmd_discrepancy(args):
    value = census.equidistribution_discrepancy(args.base, args.max, args.d_max)
    row = dict(base=args.base, x=args.max, d_max=args.d_max, value=value)
    return [row], 0


def cmd_verify_all(args):
    results = acceptance.run_all(quick=args.quick)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.cid:2d} {r.name}", file=sys.stderr)
    return results, 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, base=False, fmt=True):
    if base:
        sub.add_argument("--base", type=int, required=True, help="numeral base b >= 2")
    if fmt:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--output", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palindrome-lab",
        description="Palindrome enumeration, square-free censuses, and "
                    "exponential-sum verification experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("enumerate", help="stream palindromes")
    _add_common(p, base=True, fmt=False)
    p.add_argument("--max", type=int, help="upper bound x")
    p.add_argument("--digits", type=int, help="fixed digit length N")
    p.add_argument("--restricted", action="store_true",
                   help="only palindromes coprime to b^3 - b")
    p.add_argument("--render-digits", action="store_true",
                   help="append the base-b digit string")
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(handler=cmd_enumerate)

    p = subs.add_parser("census", help="square-free census")
    _add_common(p, base=True)
    p.add_argument("--max", type=int, help="census of restricted palindromes <= x")
    p.add_argument("--digits", type=int, help="census of unrestricted N-digit palindromes")
    p.set_defaults(handler=cmd_census)

    p = subs.add_parser("sbd", help="palindromes with a square divisor d^2, d in [D, 2D]")
    _add_common(p, base=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="dyadic parameter D")
    p.set_defaults(handler=cmd_sbd)

    p = subs.add_parser("k2", help="quadratic Kloosterman sum")
    _add_common(p)
    p.add_argument("--a1", type=int, required=True)
    p.add_argument("--a2", type=int, required=True)
    p.add_argument("--a3", type=int, default=0)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--check-identity", action="store_true",
                   help="fail unless direct and stationary-phase values agree")
    p.set_defaults(handler=cmd_k2)

    p = subs.add_parser("poisson", help="Poisson summation identity demo")
    _add_common(p)
    p.add_argument("--demo", choices=("triangle", "psi"), required=True)
    p.add_argument("--q", type=int, default=1, help="period of g")
    p.set_defaults(handler=cmd_poisson)

    p = subs.add_parser("oscillate", help="randomized oscillatory-integral bound checks")
    _add_common(p)
    p.add_argument("--count", type=int, default=100, help="specs per bound family")
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.set_defaults(handler=cmd_oscillate)

    p = subs.add_parser("vdc", help="smoothed Weyl differencing on canonical families")
    _add_common(p)
    p.add_argument("--d", type=int, required=True, help="dyadic parameter D")
    p.add_argument("--q-max", dest="q_max", type=int, required=True)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.set_defaults(handler=cmd_vdc)

    p = subs.add_parser("discrepancy", help="equidistribution discrepancy mod d^2")
    _add_common(p, base=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, required=True)
    p.set_defaults(handler=cmd_discrepancy)

    p = subs.add_parser("verify-all", help="run the full verification suite")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="reduced smoke-test grids")
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rows, code = args.handler(args)
    if rows is not None:
        with _output(args) as out:
            emit(rows, args.format, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
