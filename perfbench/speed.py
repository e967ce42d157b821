"""The host's speed at a moment, from a fixed piece of plain-Python work.

On a shared host the speed of interpreted code changes from one moment to
the next (README.md, "Noise, bounds and run length"). workloads.py times
reference_kernel() next to each chunk of a pass and scales the chunk's time
to the speed at which the kernel takes run.REFERENCE_S.

A chunk can last many seconds, longer than the host stays in one state.
So while a pass runs, a Sampler process on each of its CPUs (at most
MAX_SAMPLERS) also times one kernel call every SAMPLE_EVERY_S seconds. The
samplers take their CPUs from the pass for that millisecond each, about
0.7% of every CPU, which lengthens the pass by about 0.7% whether it runs
on one CPU or on all of them; workloads.py takes the samplers' CPU time
over the number of samplers back out of the chunk times.

The kernel is timed in CPU time of the calling thread, so a timing is not
lengthened when the sampler and the pass take the CPU from each other.

    python3 perfbench/speed.py    # the sampler: samples until stdin closes
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

REFERENCE_REPEAT = 5
SAMPLE_EVERY_S = 0.1
MAX_SAMPLERS = 4
_TABLE = tuple(range(1024))


def reference_kernel() -> None:
    """Tuple and dict access, complex and modular arithmetic; it calls
    nothing of the package."""
    table, acc, d = _TABLE, 0j, {}
    for x in range(2000):
        y = table[(x * x) & 1023]
        acc += complex(y, x)
        d[x & 255] = pow(x | 1, 3, 1000003)


def reference_s(repeat: int = REFERENCE_REPEAT) -> float:
    """Mean CPU seconds of one reference_kernel() call over `repeat` calls."""
    t0 = time.thread_time_ns()
    for _ in range(repeat):
        reference_kernel()
    return (time.thread_time_ns() - t0) / 1e9 / repeat


class Sampler:
    """A sampler process (this file run as a script) pinned to `cpu`, from
    start() until stop(), which returns its samples as (perf_counter_ns at
    the middle of the sample, CPU seconds of one kernel call)."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                      preexec_fn=lambda: os.sched_setaffinity(0, {self.cpu}))
        if self._proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError(f"the speed sampler on CPU {self.cpu} did not start")

    def stop(self) -> list[tuple[int, float]]:
        proc, self._proc = self._proc, None
        if proc is None:
            return []
        try:
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return [tuple(s) for s in json.loads(out or "[]")]


def _sample_until_stdin_closes() -> None:
    samples = []
    print("ready", flush=True)
    # stdin turns readable only at EOF: the pass closed it, or ended
    while not select.select([sys.stdin], [], [], SAMPLE_EVERY_S)[0]:
        t0 = time.perf_counter_ns()
        r = reference_s(repeat=1)
        samples.append(((t0 + time.perf_counter_ns()) // 2, r))
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    _sample_until_stdin_closes()
