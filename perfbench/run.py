"""Benchmark runner for palindrome_lab.

    python3 perfbench/run.py --workload census-scan --seed 1729 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the package is imported from ./src and nothing
is built. One run of one workload:

1. times the import of palindrome_lab (numpy and scipy included) in
   SETUP_PROBES fresh interpreters;
2. runs passes of the workload, each in a fresh interpreter so the lazy
   tables and caches start cold, for about --seconds (it stops at the pass
   boundary nearest to --seconds, after at least one pass on each CPU for a
   workload in SINGLE_THREADED). With --trace 1 every
   untraced pass is followed by a traced one. A pass times its own import
   like a probe, and setup_s is the median over probes and untraced passes;
3. checks the first pass's outputs against the oracles, and every later
   pass's output digest, traced ones included, against the first;
4. prints the environment, one line per pass, a summary with every
   end-to-end figure (fail_ratio and pals_per_s too), and last the result as
   one JSON object. With --trace 0 its metrics are the end-to-end ones of
   BENCHMARK.json, with --trace 1 the per-layer ones. setup_s and
   peak_rss_mb are medians. wall_s adds up, chunk by chunk, the median
   time of each chunk over the run's untraced passes (see _wall_s).

The two times are given at reference speed: workloads.py times a fixed
plain-Python kernel (perfbench/speed.py) next to each import and each chunk,
and sampler processes time it during the chunks; a time t measured while
the kernel took r seconds is reported as t * REFERENCE_S / r.
This takes out most of the slowdown that neighbours on a shared host cause
(README.md, "Noise, bounds and run length"); the summary line also gives the
times as measured.

The known-answer probes of the square-free kernel (census-scan) fail on the
seed code. They are printed, counted in fail_ratio and in the per-layer
metric arith.known_answer_failures, but they are not operations of the
result, whose `failed` counts only the workload's own oracle comparisons.
Spans of traced passes go to .perfbench_out/ as JSON lines.

With --workload all the three workloads run one after the other and the
result's metrics are named <workload>.<metric>.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent

# The fastest CPU seconds of one speed.reference_kernel() call on the host
# described in README.md. The time metrics are given at this reference speed.
REFERENCE_S = 0.0007

WORKLOADS = ("verify-quick", "census-scan", "kloosterman-survey")
DEFAULT_SEED = 1729
DEFAULT_SECONDS = 30
SETUP_PROBES = 3
# a pass, and a whole run of one workload, must end well inside 180 s
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165
# Workloads that call the package from one thread. Their probes and passes
# are pinned to the run's CPUs in turn, so that a pass and the reference
# timings next to it share a CPU, and the run sees every CPU (on a shared
# host each has slow and fast phases of its own). census-scan runs two
# threads and is left to the scheduler.
SINGLE_THREADED = ("verify-quick", "kloosterman-survey")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _load1() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _environment(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def _pass_command(workload: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed)]


def _run_child(cmd: list[str], root: Path, cpu: int | None) -> subprocess.CompletedProcess:
    """Run one interpreter to its end, on CPU `cpu` only when it is given."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S, preexec_fn=pin)


def _setup_probe(root: Path, workload: str, seed: int, cpu: int | None) -> dict:
    proc = _run_child(_pass_command(workload, seed) + ["--import-only"], root, cpu)
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_pass(root: Path, workload: str, seed: int, cpu: int | None, traced: bool,
              check: bool, spans: Path | None) -> dict:
    cmd = _pass_command(workload, seed)
    if traced:
        cmd.append("--traced")
    if check:
        cmd.append("--check")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    load_before = _load1()
    proc = _run_child(cmd, root, cpu)
    load_after = _load1()
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(traced=traced, load1_before=load_before, load1_after=load_after)
    return result


def _scaled(seconds: float, reference: float) -> float:
    """seconds measured while the reference kernel took `reference` s,
    brought to a host on which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference


def _wall_s(passes: list[dict]) -> float:
    """One pass's time at reference speed: the sum over its chunks of each
    chunk's median scaled time over the passes given. workloads.py gives
    each chunk's seconds with the kernel's time around and during it."""
    names = passes[0]["chunks"].keys()
    if any(r["chunks"].keys() != names for r in passes):
        raise BenchError("passes of one run timed different chunks")
    return sum(statistics.median(_scaled(*r["chunks"][name]) for r in passes)
               for name in names)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 declared: dict) -> dict:
    """One run of one workload; returns the result object run.py prints."""
    run_start = time.perf_counter()
    cpus = sorted(os.sched_getaffinity(0))

    def cpu(i: int) -> int | None:
        return cpus[i % len(cpus)] if workload in SINGLE_THREADED else None

    setup = [_setup_probe(root, workload, seed, cpu(i)) for i in range(SETUP_PROBES)]

    spans_dir = None
    if trace:
        spans_dir = root / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
    passes = []
    start = time.perf_counter()
    for round_no in itertools.count():
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            spans = None
            if traced:
                spans = spans_dir / f"{workload}-seed{seed}-pass{len(passes) + 1}.jsonl"
            r = _run_pass(root, workload, seed, cpu(round_no), traced, check=not passes,
                          spans=spans)
            passes.append(r)
            fields = ("traced", "import_s", "wall_s", "cpu_s", "peak_rss_mb", "reference_s",
                      "samples", "load1_before", "load1_after")
            print(json.dumps({"workload": workload, "pass": len(passes), "cpu": cpu(round_no),
                              **{k: r[k] for k in fields}}), flush=True)
        # stop at the round boundary nearest to --seconds, once a pinned
        # workload has had a round on every CPU, or before the next round
        # could pass RUN_LIMIT_S
        now = time.perf_counter()
        last = now - round_start
        every_cpu = workload not in SINGLE_THREADED or round_no + 1 >= len(cpus)
        if (every_cpu and now - start + last / 2 >= seconds
                or now - run_start + last > RUN_LIMIT_S):
            break

    first = passes[0]
    failures = list(first["failures"])
    attempted = first["attempted"]
    for i, r in enumerate(passes[1:], 2):
        attempted += 1
        if r["digest"] != first["digest"]:
            kind = "traced" if r["traced"] else "untraced"
            failures.append(f"{kind} pass {i} digest {r['digest']} != pass 1 {first['digest']}")
    for line in failures:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    known = first.get("known_answers", [])
    known_failed = sum(not k["ok"] for k in known)

    plain = [r for r in passes if not r["traced"]]
    wall = _wall_s(plain)
    imports = setup + plain
    fail_ratio = (len(failures) + known_failed) / (attempted + len(known))
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(_scaled(r["import_s"], r["import_reference_s"])
                                     for r in imports),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    pals_per_s = first["pals_tested"] / e2e["wall_s"]
    summary = {"workload": workload, "seed": seed, "passes": len(plain),
               "measured": {
                   "fastest_pass_s": min(r["wall_s"] for r in plain),
                   "median_pass_s": statistics.median(r["wall_s"] for r in plain),
                   "median_import_s": statistics.median(r["import_s"] for r in imports),
                   "median_reference_s": statistics.median(r["reference_s"] for r in plain),
               },
               **{name: {"value": e2e[name], "unit": unit}
                  for name, unit in declared["end_to_end"].items()},
               "fail_ratio": {"value": fail_ratio, "unit": "share"}}
    if workload == "census-scan":
        summary["pals_per_s"] = {"value": pals_per_s, "unit": "1/s"}
    if known:
        summary["known_answer_probes"] = known

    if trace:
        traced = [r for r in passes if r["traced"]]
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers.update({
            "pals_per_s": pals_per_s,
            "fail_ratio": fail_ratio,
            "proc.cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "trace.overhead_ratio": _wall_s(traced) / wall,
            "arith.known_answer_failures": known_failed,
        })
        summary["trace_self_check"] = {
            "traced_digests_equal": all(r["digest"] == first["digest"] for r in traced),
            "c6_count_mismatches": traced[0]["c6_count_mismatches"],
        }
        values, units = layers, declared["per_layer"]
    else:
        values, units = e2e, declared["end_to_end"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    print(json.dumps({"summary": summary}), flush=True)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "palindrome_lab" / "__init__.py").is_file():
        print("run.py: no src/palindrome_lab here; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        print(json.dumps({"env": _environment(root)}), flush=True)
        for workload in workloads:
            results[workload] = run_workload(root, workload, args.seed, args.seconds,
                                             bool(args.trace), declared)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
