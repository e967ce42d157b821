"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload census-scan --seed 1729 [--traced] [--check]

Run from the repository root: the package is imported from ./src. The pass
builds its inputs from the seed (the package sees only those inputs), times
the calls into palindrome_lab, and prints one JSON line with the wall and CPU
time, the peak RSS, a digest of every output, the time of each chunk of the
pass with the reference kernel's time around and during it (Pass.chunk_table),
and, with --traced, the per-layer numbers from perfbench/recorder.py. With
--check it also compares every output with an oracle; the oracles run after
the timed region and after the peak RSS is read, so they cost the
measurement nothing.

Workloads:

* verify-quick: acceptance criteria 1-9 at their quick grids, rendered as the
  verify-all CSV and compared byte for byte with the seed-commit reference.
  Mostly the Fourier/Poisson layer (criterion 6).
* census-scan: restricted censuses at two threads (b=10 below 2^63, b=2 with
  many digits per value), an unrestricted fixed-length census, s_b with both
  strategies, the residue discrepancy, and square-free tests of palindromes
  with 20-23 digits (above 2^63). Streams, square-free arithmetic, census,
  digits and the thread pool; no exponential sums.
* kloosterman-survey: K2 in both forms over prime-power and composite moduli,
  q-averages on both sides of the stationary-phase threshold, critical-point
  counts, and cube roots in the table, exhaustive and Hensel bands. Single
  threaded; expsum and the residue/factorize path of arith only.
"""

from __future__ import annotations

import time

from speed import MAX_SAMPLERS, Sampler, reference_s

_REFERENCE_BEFORE_IMPORT = reference_s()
# import_s counts from here: every import of the pass, numpy's and the
# package's included
_START = time.perf_counter()

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_CSV = HERE / "reference" / "verify_quick_c1-9.csv"

# Known-answer probes for the square-free kernel (ROADMAP item 3): the
# cofactor left after trial division to 10^6 has three prime factors.
KNOWN_ANSWERS = (
    ("is_squarefree(2000003^2*3000017)", "is_squarefree", 2000003**2 * 3000017, False),
    ("mobius(2000003*3000017*4000037)", "mobius", 2000003 * 3000017 * 4000037, -1),
)


class Raised:
    """An exception raised by an operation, kept as its output."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"Raised({self.text!r})"


class Pass:
    """Runs operations, keeps their outputs in order, opens spans, and times
    chunks: consecutive blocks of a pass, each entered once, with the
    reference kernel (perfbench/speed.py) timed before the first and after
    every chunk."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.outputs: dict[str, object] = {}
        # name -> (start ns, end ns, reference s before it, reference s after it)
        self.chunks: dict[str, tuple[int, int, float, float]] = {}
        self.references: list[float] = []
        self.reference_spent_ns = 0

    def step(self, name: str, program_call: bool = False):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, program_call)

    def _reference(self) -> float:
        t0 = time.perf_counter_ns()
        self.references.append(reference_s())
        self.reference_spent_ns += time.perf_counter_ns() - t0
        return self.references[-1]

    @contextmanager
    def chunk(self, name: str):
        if name in self.chunks:
            raise ValueError(f"chunk {name!r} entered twice")
        before = self.references[-1] if self.references else self._reference()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.chunks[name] = (t0, t1, before, self._reference())

    def chunk_table(self, wall_ns: int, samples: list[tuple[int, float]],
                    n_samplers: int) -> dict[str, list[float]]:
        """[seconds, reference seconds] per chunk, given the samples of
        n_samplers samplers. A chunk's seconds leave out the CPU time of the
        samples taken during it over n_samplers; its reference seconds are
        the mean of the timings right before and after it and of those
        samples. The time outside every chunk and every reference timing is
        the chunk "rest", with the pass's median reference time."""
        table = {}
        for name, (t0, t1, before, after) in self.chunks.items():
            inner = [r for mid, r in samples if t0 <= mid < t1]
            table[name] = [(t1 - t0) / 1e9 - sum(inner) / max(n_samplers, 1),
                           statistics.fmean([before, after, *inner])]
        in_chunks_ns = sum(t1 - t0 for t0, t1, _, _ in self.chunks.values())
        rest = (wall_ns - self.reference_spent_ns - in_chunks_ns) / 1e9
        table["rest"] = [rest, statistics.median(self.references)]
        return table

    def call(self, label: str, fn, *args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # an exception is a failed operation
            value = Raised(exc)
        self.outputs[label] = value
        return value

    def digest(self) -> str:
        text = repr(list(self.outputs.items()))
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracle helpers (independent of the package)
# ---------------------------------------------------------------------------

def _primes(limit: int) -> list[int]:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = False
    return np.flatnonzero(sieve).tolist()


def _palindromes(b: int, x: int | None = None, n_digits: int | None = None,
                 restricted: bool = False) -> list[int]:
    """Palindromes <= x (or of exactly n_digits digits) by mirroring digit
    lists, optionally only those coprime to b^3 - b."""
    out = []
    lengths = [n_digits] if n_digits else range(1, len(np.base_repr(x, b)) + 1)
    for n in lengths:
        m = (n + 1) // 2
        for h in range(b ** (m - 1), b**m):
            digits = []
            v = h
            while v:
                v, d = divmod(v, b)
                digits.append(d)
            digits.reverse()
            mirror = digits[: n - m][::-1]
            value = 0
            for d in digits + mirror:
                value = value * b + d
            if x is not None and value > x:
                break
            out.append(value)
    if restricted:
        out = [v for v in out if gcd(v, b**3 - b) == 1]
    return out


def _squarefree_count(values: list[int]) -> int:
    """Square-free values among values < 2^63, by testing p^2 for every
    prime p <= sqrt(max)."""
    arr = np.array(values, dtype=np.int64)
    keep = np.ones(len(arr), dtype=bool)
    for p in _primes(isqrt(int(arr.max()))):
        keep &= arr % (p * p) != 0
    return int(keep.sum())


def _discrepancy(pals: list[int], b: int, d_max: int) -> float:
    """equidistribution_discrepancy in O(#pals) per modulus: the maximum
    cell count only grows, and the minimum moves up when no cell is left at
    it, which a histogram of cell counts shows."""
    total = Fraction(0)
    for d in range(2, d_max + 1):
        if gcd(d, b**3 - b) != 1 or any(d % (p * p) == 0 for p in range(2, isqrt(d) + 1)):
            continue
        dd = d * d
        counts = [0] * dd
        cells_at = {0: dd}
        low = high = seen = best = 0
        for n in pals:
            r = n % dd
            c = counts[r]
            counts[r] = c + 1
            cells_at[c] -= 1
            cells_at[c + 1] = cells_at.get(c + 1, 0) + 1
            high = max(high, c + 1)
            while cells_at.get(low, 0) == 0:
                low += 1
            seen += 1
            best = max(best, high * dd - seen, seen - low * dd)
        total += Fraction(best, dd)
    return float(total)


def _inverse_table(c: int) -> np.ndarray:
    return np.array([pow(v, -1, c) if gcd(v, c) == 1 else -1 for v in range(c)],
                    dtype=np.int64)


def _k2_numpy(a1, a2, a3, q, c, inverses) -> complex:
    """K2 summed with numpy from an inverse table (c < 2^19 keeps the
    phases exact in int64)."""
    x = np.arange(c, dtype=np.int64)
    ix = inverses
    iy = inverses[(x + q) % c]
    ok = (ix >= 0) & (iy >= 0)
    phase = (a1 * x + a2 * ix * ix + a3 * iy * iy) % c
    return complex(np.exp(2j * np.pi * phase[ok] / c).sum()) / math.sqrt(c)


def _critical_points_numpy(a1, a2, a3, q, c, c1) -> int:
    if c1 == 1:
        return 1
    w = np.arange(1, c1 + 1, dtype=np.int64)
    units = (np.gcd(w, c) == 1) & (np.gcd(w + q, c) == 1)
    w = w[units]
    inv1 = _inverse_table(c1)
    wi = inv1[w % c1]
    yi = inv1[(w + q) % c1]
    f = (a1 - 2 * a2 * (wi**3 % c1) - 2 * a3 * (yi**3 % c1)) % c1
    return int((f == 0).sum())


def _split_c1(c: int) -> int:
    c1 = 1
    for p in _primes(isqrt(c) + 1):
        alpha = 0
        while c % p == 0:
            c //= p
            alpha += 1
        c1 *= p ** (alpha // 2)
    return c1


def _cube_roots(a: int, q: int) -> list[int]:
    """Unit cube roots of a mod q by trial: every unit when q <= 2^16, else
    (q a prime power p^alpha) every lift w + t p^j of every root mod p^j."""
    if q <= 1 << 16:
        w = np.arange(q, dtype=np.int64)
        hit = (w * w % q * w % q == a % q) & (np.gcd(w, q) == 1)
        return w[hit].tolist()
    p = next(p for p in _primes(isqrt(q) + 1) if q % p == 0)
    roots = [w for w in range(1, p) if pow(w, 3, p) == a % p]
    pj = p
    while pj < q:
        nxt = pj * p
        roots = [w + t * pj for w in roots for t in range(p)
                 if pow(w + t * pj, 3, nxt) == a % nxt]
        pj = nxt
    return sorted(roots)


def _is_squarefree_by_factors(factors: dict[int, int]) -> bool:
    return all(e == 1 for e in factors.values())


# ---------------------------------------------------------------------------
# verify-quick
# ---------------------------------------------------------------------------

CRITERIA = (
    "criterion_mobius_identity",
    "criterion_density_convergence",
    "criterion_unrestricted_density",
    "criterion_stationary_phase_identity",
    "criterion_oscillatory_constants",
    "criterion_poisson_identity",
    "criterion_cubic_residue_bound",
    "criterion_prop1_shape",
    "criterion_averaged_k2_stability",
)


def verify_quick_inputs(rng: random.Random) -> dict:
    # the criteria carry their own fixed grids and seed
    return {}


def verify_quick_run(pl, inputs: dict, p: Pass) -> None:
    rows = []
    for cid, name in enumerate(CRITERIA, 1):
        with p.chunk(f"c{cid}"), p.step(f"acceptance.c{cid}", program_call=True):
            r = p.call(f"c{cid}", getattr(pl.acceptance, name), quick=True, threads=1)
        if not isinstance(r, Raised):
            rows.append([str(r.cid), r.name, "true" if r.passed else "false", r.detail])
    with p.chunk("csv"):
        p.call("csv", pl.report.render_csv, ["cid", "name", "passed", "detail"], rows)


def verify_quick_check(pl, inputs: dict, outputs: dict):
    for cid in range(1, len(CRITERIA) + 1):
        r = outputs[f"c{cid}"]
        ok = not isinstance(r, Raised) and r.passed
        yield f"c{cid} passed", ok, "" if ok else repr(r)
    expected = REFERENCE_CSV.read_text(encoding="utf-8")
    yield "csv equals seed reference", outputs["csv"] == expected, ""


# ---------------------------------------------------------------------------
# census-scan
# ---------------------------------------------------------------------------

CENSUS_THREADS = 2
WIDE_SAMPLE = 60
WIDE_CHUNK = 15  # square-free tests per chunk


def census_scan_inputs(rng: random.Random) -> dict:
    # Each cutoff sits in a narrow band, so the amount of work hardly depends
    # on the seed while the values do.
    wide = []
    for _ in range(WIDE_SAMPLE):
        n_digits = rng.choice((20, 21, 22, 23))
        m = (n_digits + 1) // 2
        wide.append((rng.randrange(10 ** (m - 1), 10**m), n_digits))
    return {
        "x10": 10_500_000_000 + rng.randrange(-10**7, 10**7),
        "x2": 5 * 2**28 + rng.randrange(-2**20, 2**20),
        "fixed": (10, 9),
        "sb": (10, 10**8 + rng.randrange(10**6), 30),
        "disc": (10, 10**8 + rng.randrange(10**6), 40),
        "wide_halves": wide,
    }


def census_scan_run(pl, inputs: dict, p: Pass) -> None:
    census, arith = pl.census, pl.arith
    with p.chunk("census_b10"), p.step("step.census_b10"):
        p.call("census_b10", census.census_up_to, 10, inputs["x10"],
               threads=CENSUS_THREADS, check_identity=True)
    with p.chunk("census_b2"), p.step("step.census_b2"):
        p.call("census_b2", census.census_up_to, 2, inputs["x2"],
               threads=CENSUS_THREADS, check_identity=True)
    with p.chunk("fixed_length"), p.step("step.fixed_length"):
        p.call("fixed_length", census.q_fixed_length, *inputs["fixed"])
    with p.chunk("s_b"), p.step("step.s_b"):
        b, x, d = inputs["sb"]
        p.call("s_b", census.s_b, b, x, d, strategy="both")
    with p.chunk("discrepancy"), p.step("step.discrepancy"):
        b, x, d_max = inputs["disc"]
        p.call("discrepancy", census.equidistribution_discrepancy, b, x, d_max,
               threads=CENSUS_THREADS)
    with p.step("step.wide"):
        wide = inputs["wide"]
        for start in range(0, len(wide), WIDE_CHUNK):
            with p.chunk(f"wide{start // WIDE_CHUNK}"):
                for i in range(start, min(start + WIDE_CHUNK, len(wide))):
                    p.call(f"wide{i}", arith.is_squarefree, wide[i])


def census_scan_check(pl, inputs: dict, outputs: dict):
    for label, b, x in (("census_b10", 10, inputs["x10"]), ("census_b2", 2, inputs["x2"])):
        rec = outputs[label]
        pals = _palindromes(b, x=x, restricted=True)
        ok = (not isinstance(rec, Raised) and rec.total == len(pals)
              and rec.squarefree == _squarefree_count(pals))
        yield f"{label} census", ok, repr(rec)
    b, n_digits = inputs["fixed"]
    rec = outputs["fixed_length"]
    pals = _palindromes(b, n_digits=n_digits)
    ok = (not isinstance(rec, Raised) and rec.total == (b - 1) * b ** ((n_digits + 1) // 2 - 1)
          and rec.total == len(pals) and rec.squarefree == _squarefree_count(pals))
    yield "fixed-length census", ok, repr(rec)
    b, x, d = inputs["sb"]
    arr = np.array(_palindromes(b, x=x, restricted=True), dtype=np.int64)
    hit = np.zeros(len(arr), dtype=bool)
    for dd in (k * k for k in range(d, 2 * d + 1) if k * k <= x):
        hit |= arr % dd == 0
    yield "s_b", outputs["s_b"] == int(hit.sum()), repr(outputs["s_b"])
    b, x, d_max = inputs["disc"]
    expected = _discrepancy(_palindromes(b, x=x, restricted=True), b, d_max)
    yield "discrepancy", outputs["discrepancy"] == expected, repr(outputs["discrepancy"])
    for i, n in enumerate(inputs["wide"]):
        got = outputs[f"wide{i}"]
        yield (f"wide{i} square-free", got == _is_squarefree_by_factors(pl.arith.factorize(n)),
               f"n={n} got={got!r}")


def pals_tested(inputs: dict, outputs: dict) -> int:
    """Palindromes the pass put through a square-free test: every one its
    censuses counted, and the wide sample. Taken from the outputs, so a
    kernel that tests a batch in one call is credited the same."""
    out = len(inputs.get("wide", ()))
    for label in ("census_b10", "census_b2", "fixed_length"):
        rec = outputs.get(label)
        if rec is not None and not isinstance(rec, Raised):
            out += rec.total
    return out


def census_scan_known_answers(pl) -> list[dict]:
    """Run the known-answer probes; reported beside the result, not in it."""
    out = []
    for label, fn, n, expected in KNOWN_ANSWERS:
        got = getattr(pl.arith, fn)(n)
        out.append({"probe": label, "expected": expected, "got": got, "ok": got == expected})
    return out


# ---------------------------------------------------------------------------
# kloosterman-survey
# ---------------------------------------------------------------------------

K2_MODULI = (
    2**12, 2**14, 3**8, 3**9, 5**6, 7**5, 11**4, 13**4,          # prime powers
    10**4, 2 * 3 * 5 * 7 * 11 * 13, 2**6 * 3**5, 12**4, 5**3 * 7**3,  # composites
)
K2_TUPLES_PER_MODULUS = 20
# 2^10 and 2^11 sit at or below STATIONARY_PHASE_THRESHOLD (2048), the rest above
Q_AVERAGE_MODULI = (2**10, 2**11, 2**12, 2**14, 2**18)
Q_AVERAGE_Q = 16
# Cube-root moduli, one call each: a grid over the table band, and every
# prime power p^alpha (p < 2000) in the exhaustive and the Hensel band. The
# moduli are fixed, since the cost of a call follows its modulus; the seed
# picks the residues.
TABLE_MODULI = range(2, 2049, 7)
EXHAUSTIVE_BAND = (2048, 200_000)
HENSEL_BAND = (10**6, 7 * 10**6)
# A cube-root call costs about q steps below HENSEL_BAND (a table or a
# scan of every residue): a new chunk starts when a band ends or the moduli
# of a chunk add up to ROOTS_CHUNK_Q.
ROOTS_CHUNK_Q = 700_000


def _prime_powers(lo: int, hi: int, primes: list[int], exclude: tuple[int, ...]) -> list[int]:
    out = []
    for p in primes:
        if p in exclude:
            continue
        v = p
        while v <= hi:
            if v > lo:
                out.append(v)
            v *= p
    return sorted(out)


def kloosterman_survey_inputs(rng: random.Random) -> dict:
    tuples = []
    for c in K2_MODULI:
        for _ in range(K2_TUPLES_PER_MODULUS):
            a1, a2, a3 = (rng.randrange(-c, c) for _ in range(3))
            tuples.append((a1, a2, a3, rng.randrange(-c, c + 1), c))
    averages = [(rng.randrange(-50, 50), 2 * rng.randrange(25) + 1, Q_AVERAGE_Q, c)
                for c in Q_AVERAGE_MODULI for _ in range(2)]
    primes = _primes(2000)
    moduli = [*TABLE_MODULI, *_prime_powers(*EXHAUSTIVE_BAND, primes, exclude=()),
              # Hensel lifting needs p odd and p not dividing k = 3
              *_prime_powers(*HENSEL_BAND, primes, exclude=(2, 3))]

    def residue(q: int) -> int:
        # half the time a cube of a unit, so that roots exist
        if rng.random() < 0.5:
            return rng.randrange(q)
        while True:
            w = rng.randrange(1, q)
            if gcd(w, q) == 1:
                return pow(w, 3, q)

    roots = [(residue(q), q) for q in moduli]
    return {"tuples": tuples, "averages": averages, "roots": roots}


def _roots_chunks(roots: list[tuple[int, int]]):
    """(chunk name, [(index, (a, q)), ...]) over the cube-root calls."""
    chunk, band, total = [], None, 0
    for i, (a, q) in enumerate(roots):
        b = "table" if q <= 2048 else "exhaustive" if q < HENSEL_BAND[0] else "hensel"
        if chunk and (b != band or total >= ROOTS_CHUNK_Q):
            yield f"roots{chunk[0][0]} {band}", chunk
            chunk, total = [], 0
        chunk.append((i, (a, q)))
        band, total = b, total + (q if b != "hensel" else 0)
    if chunk:
        yield f"roots{chunk[0][0]} {band}", chunk


def kloosterman_survey_run(pl, inputs: dict, p: Pass) -> None:
    expsum, arith = pl.expsum, pl.arith
    with p.step("step.k2"):
        tuples = list(enumerate(inputs["tuples"]))
        # the tuples come grouped by modulus: one chunk per modulus
        for c, group in itertools.groupby(tuples, key=lambda it: it[1][4]):
            with p.chunk(f"k2 c={c}"):
                for i, t in group:
                    params = expsum.ExpSumParams(*t)
                    p.call(f"full{i}", expsum.k2_full, params)
                    p.call(f"sp{i}", expsum.k2_stationary_phase, params)
                    p.call(f"crit{i}", expsum.count_critical_points, params)
    with p.chunk("q_average"), p.step("step.q_average"):
        for i, (m, a, q_max, c) in enumerate(inputs["averages"]):
            p.call(f"avg{i}", expsum.k2_q_average, m, a, q_max, c)
    with p.step("step.cube_roots"):
        for name, calls in _roots_chunks(inputs["roots"]):
            with p.chunk(name):
                for i, (a, q) in calls:
                    p.call(f"root{i}", arith.kth_residue_solutions, a, 3, q)


def kloosterman_survey_check(pl, inputs: dict, outputs: dict):
    inverses: dict[int, np.ndarray] = {}

    def table(c):
        if c not in inverses:
            inverses[c] = _inverse_table(c)
        return inverses[c]

    for i, (a1, a2, a3, q, c) in enumerate(inputs["tuples"]):
        full, sp, crit = outputs[f"full{i}"], outputs[f"sp{i}"], outputs[f"crit{i}"]
        tol = 1e-9 * math.sqrt(c)
        ok = (not isinstance(full, Raised) and not isinstance(sp, Raised)
              and abs(full - sp) < tol
              and abs(full - _k2_numpy(a1, a2, a3, q, c, table(c))) < tol)
        yield f"k2 tuple {i}", ok, f"{full!r} {sp!r}"
        yield (f"critical points {i}", crit == _critical_points_numpy(a1, a2, a3, q, c, _split_c1(c)),
               repr(crit))
    for i, (m, a, q_max, c) in enumerate(inputs["averages"]):
        got = outputs[f"avg{i}"]
        expected = sum(abs(_k2_numpy(m, a, -a, q, c, table(c)))
                       for q in range(-q_max, q_max + 1))
        ok = not isinstance(got, Raised) and abs(got - expected) < 1e-9 * math.sqrt(c) * (2 * q_max + 1)
        yield f"q-average {i}", ok, repr(got)
    for i, (a, q) in enumerate(inputs["roots"]):
        got = outputs[f"root{i}"]
        ok = (not isinstance(got, Raised) and got == _cube_roots(a, q)
              and all(pow(w, 3, q) == a % q for w in got))
        yield f"cube roots {i}", ok, f"a={a} q={q} got={got!r}"


# ---------------------------------------------------------------------------

WORKLOADS = {
    "verify-quick": (verify_quick_inputs, verify_quick_run, verify_quick_check),
    "census-scan": (census_scan_inputs, census_scan_run, census_scan_check),
    "kloosterman-survey": (kloosterman_survey_inputs, kloosterman_survey_run,
                           kloosterman_survey_check),
}


def _import_package(src: Path):
    """Import palindrome_lab from src and nowhere else; returns the package
    and the seconds since the interpreter began this file."""
    sys.path.insert(0, str(src))
    import palindrome_lab
    from palindrome_lab import acceptance, arith, census, expsum, report, streams  # noqa: F401

    import_s = time.perf_counter() - _START
    import_reference_s = (_REFERENCE_BEFORE_IMPORT + reference_s()) / 2
    if Path(palindrome_lab.__file__).resolve().parent != (src / "palindrome_lab").resolve():
        raise ImportError(f"palindrome_lab imported from {palindrome_lab.__file__}, not {src}")
    return palindrome_lab, import_s, import_reference_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true", help="record spans and counters")
    parser.add_argument("--check", action="store_true", help="compare outputs with oracles")
    parser.add_argument("--spans", help="write the recorded spans here as JSON lines")
    parser.add_argument("--import-only", action="store_true",
                        help="only import the package and print the time it took")
    args = parser.parse_args(argv)

    pl, import_s, import_reference_s = _import_package(Path.cwd() / "src")
    if args.import_only:
        print(json.dumps({"import_s": import_s, "import_reference_s": import_reference_s}))
        return 0
    make_inputs, run, check = WORKLOADS[args.workload]
    inputs = make_inputs(random.Random(args.seed))
    if args.workload == "census-scan":
        inputs["wide"] = [pl.streams.palindrome_from_half(h, 10, n)
                          for h, n in inputs.pop("wide_halves")]

    recorder = None
    if args.traced:
        from recorder import Recorder

        recorder = Recorder()
        recorder.install(pl)
    p = Pass(recorder)
    samplers = [Sampler(cpu) for cpu in sorted(os.sched_getaffinity(0))[:MAX_SAMPLERS]]
    samples = []
    try:
        for sampler in samplers:
            sampler.start()
        cpu0 = time.process_time()
        t0 = time.perf_counter_ns()
        run(pl, inputs, p)
        wall_ns = time.perf_counter_ns() - t0
        cpu_s = time.process_time() - cpu0
    finally:
        for sampler in samplers:
            samples += sampler.stop()
        if recorder is not None:
            recorder.uninstall()
    chunks = p.chunk_table(wall_ns, samples, len(samplers))
    wall_s = sum(t for t, _ in chunks.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "import_reference_s": import_reference_s,
        "wall_s": wall_s,
        "reference_s": statistics.median(p.references),
        "samples": len(samples),
        "chunks": chunks,
        "cpu_s": cpu_s - p.reference_spent_ns / 1e9,
        "peak_rss_mb": peak_rss_mb,
        "digest": p.digest(),
        "pals_tested": pals_tested(inputs, p.outputs),
    }
    if recorder is not None:
        from layers import c6_count_mismatches, layer_metrics

        # the spans see the pass as timed, sampler included
        result["layers"] = layer_metrics(recorder, wall_ns - p.reference_spent_ns)
        result["c6_count_mismatches"] = c6_count_mismatches(recorder)
        if args.spans:
            recorder.write_spans(args.spans)
    if args.check:
        checks = list(check(pl, inputs, p.outputs))
        result["attempted"] = len(checks)
        result["failures"] = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
        if args.workload == "census-scan":
            result["known_answers"] = census_scan_known_answers(pl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
