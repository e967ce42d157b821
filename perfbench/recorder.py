"""Span and counter recorder that measures palindrome_lab from outside.

The recorder never edits the package's source. It replaces module attributes
with timing wrappers for the duration of one traced pass and puts the
originals back afterwards. A name re-bound by `from .x import y` lives in the
importing module's namespace too, so `WRAPS` lists every binding a call can
go through (for example `expsum.fourier_transform`, `census.is_palindrome`
and `census.map_in_order`). Streams are measured on the class, through
`PalindromeStream.__next__`, so every binding of `stream_up_to` is covered.

Two kinds of wrapper exist:

* "span": counts calls, calls that raised, and total and self time. Self
  time is the span's duration minus the time of the spans it encloses in the
  same thread. For `__next__`, the calls that did not raise StopIteration
  are the values yielded.
* "count": counts calls only. It is for the hot leaves (about 1.3 million
  `ramp_derivative` calls per Poisson check), where a timer per call would
  distort the parent.

Each thread keeps its own stack and counters, so the worker threads that
`parallel.map_in_order` starts update nothing shared. The function handed to
`map_in_order` belongs to its caller (the closure of `q_star_direct`, say), so
its time, in whichever thread it runs, counts as the caller's self time;
`map_in_order`'s own self time is then only its overhead and waiting. Coarse
spans (workload steps and acceptance criteria) are also kept as records with
the counter deltas they enclose; they are written out as JSON lines at the
end of a pass.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

# Values at or above this take the wide (arbitrary-precision) route in a
# batched int64 kernel; below it they fit in a signed 64-bit integer.
INT64_LIMIT = 1 << 63

# kth_residue_solutions bands, keyed by the modulus; the workloads only use
# prime-power moduli above the table bound, so the modulus fixes the band.
ROOT_TABLE_LIMIT = 2048
EXHAUSTIVE_LIMIT = 10**6


def _squarefree_band(args, kwargs):
    return "small" if args[0] < INT64_LIMIT else "wide"


def _residue_band(args, kwargs):
    q = args[2]
    if q <= ROOT_TABLE_LIMIT:
        return "table"
    return "exhaustive" if q <= EXHAUSTIVE_LIMIT else "hensel"


def _modulus(args, kwargs, result):
    return args[0].c


def _modes(args, kwargs, result):
    return result.m_cut


# (module, attribute, recorded name, kind, band function, work function)
# The module is given by its name inside palindrome_lab; "streams.PalindromeStream"
# names the class whose __next__ is wrapped.
WRAPS = (
    ("arith", "is_squarefree", "arith.is_squarefree", "span", _squarefree_band, None),
    ("arith", "primes_up_to", "arith.primes_up_to", "span", None, None),
    ("arith", "factorize", "arith.factorize", "span", None, None),
    ("arith", "kth_residue_solutions", "arith.kth_residue_solutions", "span",
     _residue_band, None),
    ("streams.PalindromeStream", "__next__", "streams.next", "span", None, None),
    ("census", "census_up_to", "census.census_up_to", "span", None, None),
    ("census", "q_star_direct", "census.q_star_direct", "span", None, None),
    ("census", "q_star_mobius", "census.q_star_mobius", "span", None, None),
    ("census", "q_fixed_length", "census.q_fixed_length", "span", None, None),
    ("census", "s_b", "census.s_b", "span", None, None),
    ("census", "equidistribution_discrepancy", "census.equidistribution_discrepancy",
     "span", None, None),
    ("census", "is_palindrome", "digits.is_palindrome", "span", None, None),
    ("census", "map_in_order", "parallel.map_in_order", "span", None, None),
    ("harness", "map_in_order", "parallel.map_in_order", "span", None, None),
    ("expsum", "k2_full", "expsum.k2_full", "span", None, _modulus),
    ("expsum", "k2_stationary_phase", "expsum.k2_stationary_phase", "span", None, None),
    ("expsum", "k2_q_average", "expsum.k2_q_average", "span", None, None),
    ("expsum", "count_critical_points", "expsum.count_critical_points", "span", None, None),
    ("expsum", "poisson_check", "expsum.poisson_check", "span", None, _modes),
    ("expsum", "fourier_transform", "oscillate.fourier_transform", "span", None, None),
    ("oscillate", "fourier_transform", "oscillate.fourier_transform", "span", None, None),
    ("oscillate", "quad", "oscillate.quad", "count", None, None),
    ("oscillate", "ramp_derivative", "oscillate.ramp_derivative", "count", None, None),
    ("oscillate", "oscillatory_integral", "oscillate.oscillatory_integral", "span",
     None, None),
    ("harness", "fit_averaged_k2", "harness.fit_averaged_k2", "span", None, None),
    ("harness", "fit_prop1", "harness.fit_prop1", "span", None, None),
    ("report", "render_csv", "report.render_csv", "span", None, None),
)


class Stat:
    """Totals for one recorded name in one thread."""

    __slots__ = ("calls", "raised", "total_ns", "self_ns", "work", "cpu_ns")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0
        self.cpu_ns = 0


class _ThreadState:
    def __init__(self, is_main: bool):
        self.is_main = is_main
        # one [child time, recorded name] frame per open span
        self.stack: list[list] = []
        self.call_depth = 0  # open calls into the package
        self.covered_ns = 0
        self.stats: dict[str, Stat] = {}

    def stat(self, name: str) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def close(self, key: str, t0: int, frame: list, program_call: bool) -> tuple[Stat, int]:
        """Account for the span `frame` opened at t0; returns its Stat and duration."""
        dt = time.perf_counter_ns() - t0
        self.stack.pop()
        s = self.stat(key)
        s.calls += 1
        s.total_ns += dt
        s.self_ns += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt
        if program_call:
            self.call_depth -= 1
            if self.is_main and self.call_depth == 0:
                self.covered_ns += dt
        return s, dt


class Recorder:
    """Collects spans and counters while installed on palindrome_lab."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self._span_id = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._main)
            with self._lock:
                self._states.append(st)
            self._local.state = st
        return st

    # -- wrappers -------------------------------------------------------------

    def _task_wrapper(self, fn, owner: str):
        """fn as run by map_in_order: its time is self time of `owner`."""
        state = self._state

        def task(*args, **kwargs):
            st = state()
            frame = [0, owner]
            st.stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                st.stack.pop()
                st.stat(owner).self_ns += dt - frame[0]
                if st.stack:
                    st.stack[-1][0] += dt

        return task

    def _span_wrapper(self, fn, name, band, work):
        perf = time.perf_counter_ns
        state = self._state
        is_pool = name == "parallel.map_in_order"

        def wrapper(*args, **kwargs):
            st = state()
            key = f"{name}.{band(args, kwargs)}" if band else name
            if is_pool:
                owner = st.stack[-1][1] if st.stack else "unattributed"
                args = (self._task_wrapper(args[0], owner), *args[1:])
                c0 = time.process_time_ns()
            frame = [0, key]
            st.stack.append(frame)
            st.call_depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.close(key, t0, frame, True)[0].raised += 1
                raise
            s, _ = st.close(key, t0, frame, True)
            if is_pool:
                s.cpu_ns += time.process_time_ns() - c0
            if work is not None:
                s.work += work(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        state = self._state

        def wrapper(*args, **kwargs):
            state().stat(name).calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap every binding in WRAPS on the imported palindrome_lab package."""
        for module_name, attr, name, kind, band, work in WRAPS:
            owner = package
            for part in module_name.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if kind == "count":
                wrapped = self._count_wrapper(original, name)
            else:
                wrapped = self._span_wrapper(original, name, band, work)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- coarse spans -------------------------------------------------------

    @contextmanager
    def span(self, name: str, program_call: bool = False):
        """A recorded span around a block of the workload.

        With program_call the block is one call into the package (an
        acceptance criterion), so it counts towards covered time like a
        wrapped function; otherwise it only groups the calls inside it.
        """
        st = self._state()
        self._span_id += 1
        record = {"id": self._span_id, "name": name,
                  "parent": getattr(self._local, "open_span", None)}
        self._local.open_span = record["id"]
        before = {k: v.calls for k, v in st.stats.items()}
        frame = [0, name]
        st.stack.append(frame)
        if program_call:
            st.call_depth += 1
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            _, dt = st.close(name, t0, frame, program_call)
            self._local.open_span = record["parent"]
            record.update(start_ns=t0, end_ns=t0 + dt, counts={
                k: v.calls - before.get(k, 0)
                for k, v in st.stats.items() if v.calls != before.get(k, 0) and k != name})
            self.spans.append(record)

    # -- results --------------------------------------------------------------

    def merged(self) -> dict[str, Stat]:
        """Per-name totals over every thread."""
        out: dict[str, Stat] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, s in st.stats.items():
                m = out.setdefault(name, Stat())
                for field in Stat.__slots__:
                    setattr(m, field, getattr(m, field) + getattr(s, field))
        return out

    def covered_ns(self) -> int:
        """Main-thread time inside outermost program calls."""
        return sum(st.covered_ns for st in self._states if st.is_main)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record, sort_keys=True) + "\n")
