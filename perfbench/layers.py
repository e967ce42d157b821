"""Per-layer metrics of one traced pass, from perfbench/recorder.py.

BENCHMARK.json declares the names and units; run.py adds the metrics that
need the untraced passes of the same run (pals_per_s, fail_ratio,
proc.cpu_s, trace.overhead_ratio, arith.known_answer_failures). README.md
says which end-to-end metric each should move, and on which workload.
"""

from __future__ import annotations

# Counts inside one criterion-6 (Poisson) span at the seed commit. A traced
# pass of verify-quick compares its own counts with these, to show that the
# recorder sees every call (trace.c6_count_mismatches). A change that makes
# criterion 6 do less work moves them on purpose.
SEED_C6_COUNTS = {
    "oscillate.fourier_transform": 1154,
    "oscillate.quad": 6875,
    "oscillate.ramp_derivative": 1319194,
}


def c6_count_mismatches(recorder) -> list[str]:
    """Differences between the criterion-6 span counts and SEED_C6_COUNTS."""
    out = []
    for record in recorder.spans:
        if record["name"] == "acceptance.c6":
            for name, expected in SEED_C6_COUNTS.items():
                got = record["counts"].get(name, 0)
                if got != expected:
                    out.append(f"criterion-6 span counted {got} {name} calls, seed {expected}")
    return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, wall_ns: int) -> dict[str, float]:
    """Every per-layer metric that one traced pass gives."""
    stats = recorder.merged()

    def get(name: str, field: str) -> float:
        # a banded name ("arith.is_squarefree") sums its bands
        return sum(getattr(s, field) for key, s in stats.items()
                   if key == name or key.startswith(name + "."))

    def calls(name):
        return get(name, "calls")

    def self_s(name):
        return get(name, "self_ns") / 1e9

    def total_s(name):
        return get(name, "total_ns") / 1e9

    yielded = calls("streams.next") - get("streams.next", "raised")
    out = {
        "streams.yielded": yielded,
        "streams.self_s": self_s("streams.next"),
        "streams.pals_per_s": _per(yielded, self_s("streams.next")),
        "arith.is_squarefree.calls": calls("arith.is_squarefree"),
        "arith.is_squarefree.self_s": self_s("arith.is_squarefree"),
        "arith.primes_up_to.self_s": self_s("arith.primes_up_to"),
        "arith.kth_residue_solutions.calls": calls("arith.kth_residue_solutions"),
        "arith.factorize.calls": calls("arith.factorize"),
        "arith.factorize.self_s": self_s("arith.factorize"),
        "digits.is_palindrome.calls": calls("digits.is_palindrome"),
        "digits.is_palindrome.self_s": self_s("digits.is_palindrome"),
        "parallel.map_in_order.calls": calls("parallel.map_in_order"),
        "parallel.map_in_order.wall_s": total_s("parallel.map_in_order"),
        "parallel.cpu_per_wall": _per(get("parallel.map_in_order", "cpu_ns"),
                                      get("parallel.map_in_order", "total_ns")),
        "expsum.k2_full.calls": calls("expsum.k2_full"),
        "expsum.k2_full.self_s": self_s("expsum.k2_full"),
        "expsum.k2_full.ns_per_term": _per(get("expsum.k2_full", "self_ns"),
                                           get("expsum.k2_full", "work")),
        "expsum.k2_stationary_phase.calls": calls("expsum.k2_stationary_phase"),
        "expsum.k2_stationary_phase.self_s": self_s("expsum.k2_stationary_phase"),
        "expsum.poisson_check.calls": calls("expsum.poisson_check"),
        "expsum.poisson_check.self_s": self_s("expsum.poisson_check"),
        "expsum.poisson_modes": get("expsum.poisson_check", "work"),
        "oscillate.fourier_transform.calls": calls("oscillate.fourier_transform"),
        "oscillate.fourier_transform.self_s": self_s("oscillate.fourier_transform"),
        "oscillate.fourier_transform.ms_per_call": 1e3 * _per(
            total_s("oscillate.fourier_transform"), calls("oscillate.fourier_transform")),
        "oscillate.quad_calls": calls("oscillate.quad"),
        "oscillate.ramp_derivative.calls": calls("oscillate.ramp_derivative"),
        "oscillate.oscillatory_integral.calls": calls("oscillate.oscillatory_integral"),
        "oscillate.oscillatory_integral.ms_per_call": 1e3 * _per(
            total_s("oscillate.oscillatory_integral"), calls("oscillate.oscillatory_integral")),
        "report.self_s": self_s("report.render_csv"),
        "trace.unattributed_share": 1.0 - recorder.covered_ns() / wall_ns,
        "trace.c6_count_mismatches": len(c6_count_mismatches(recorder)),
    }
    for band in ("small", "wide"):
        name = f"arith.is_squarefree.{band}"
        out[f"arith.is_squarefree.us_per_call.{band}"] = 1e6 * _per(self_s(name), calls(name))
    for band in ("table", "exhaustive", "hensel"):
        name = f"arith.kth_residue_solutions.{band}"
        out[f"arith.kth_residue_solutions.us_per_call.{band}"] = 1e6 * _per(
            total_s(name), calls(name))
    for name in ("census.q_star_direct", "census.q_star_mobius", "census.s_b",
                 "census.q_fixed_length", "census.equidistribution_discrepancy",
                 "expsum.k2_q_average", "expsum.count_critical_points",
                 "harness.fit_averaged_k2", "harness.fit_prop1"):
        out[f"{name}.self_s"] = self_s(name)
    for cid in range(1, 10):
        out[f"acceptance.c{cid}_s"] = total_s(f"acceptance.c{cid}")
    return out
