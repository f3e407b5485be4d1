"""Shared pieces of the benchmark: statistics, tracing, child processes.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on the path.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Sequence

# -- statistics -------------------------------------------------------


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def tail_percentile(count: int, beyond: int = 10, cap: float = 99.0) -> float:
    """The highest percentile that leaves ``beyond`` samples above it.

    Capped at ``cap`` (p99 is the target tail) and floored at the
    median: with fewer than ``2 * beyond`` samples no percentile above
    p50 has enough samples beyond it, so the tail reads as the median.
    """
    if count <= 0:
        raise ValueError("tail of an empty sample")
    pct = 100.0 * (count - beyond) / count
    return min(cap, max(50.0, pct))


def tail(samples: Sequence[float], beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)`` of the tail rule for ``samples``.

    Where the rule falls back to p50 the value is :func:`median`, the
    same number the p50 metrics report.
    """
    pct = tail_percentile(len(samples), beyond)
    if pct == 50.0:
        return pct, median(samples)
    return pct, percentile(samples, pct)


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def residual(wall: float, attributed: Iterable[float]) -> tuple[float, float]:
    """``(unattributed_s, attributed_share)`` of a wall-clock interval.

    The unattributed residual is the wall time no measured part
    explains; it is negative when the parts overlap or were measured
    faster than they ran inside the wall interval.
    """
    covered = sum(attributed)
    if wall <= 0:
        raise ValueError("wall time must be positive")
    return wall - covered, covered / wall


# -- tracing ----------------------------------------------------------


class Tracer:
    """In-memory spans recorded around calls into the program's layers.

    Each span is ``[name, start, end, parent]`` with ``parent`` the
    index of the enclosing span (or ``None``).  A span's self time is
    its duration minus the part of it its child spans cover.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[str, Callable]]):
        """Route every module-level binding of each target through a span.

        ``targets`` pairs a span name with a function object.  Every
        attribute of a loaded ``repro`` module that *is* that object
        (the defining module and every ``from ... import`` site) is
        swapped for a traced wrapper and restored on exit.
        """
        swapped = []
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets}
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    swapped.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)

    def durations(self, names: Iterable[str] | None = None) -> dict[str, float]:
        """Total duration per span name."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        if names is not None:
            return {name: totals.get(name, 0.0) for name in names}
        return totals

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus covered children)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = _union_length(children.get(index, []))
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def top_level(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent is None)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_cost(samples: int = 20000) -> float:
    """Measured seconds one empty span adds, for the overhead share."""
    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (perf_counter() - t0) / samples


# -- child processes --------------------------------------------------


@dataclass
class ChildRun:
    """One finished child process: wall time, exit code, own peak RSS and
    CPU seconds (user plus system)."""

    wall: float
    returncode: int
    maxrss_mb: float
    timed_out: bool
    stdout: str = ""
    cpu: float = 0.0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_child(cmd: Sequence[str], *, env: dict, cwd: Path, timeout: float,
              stdout_path: Path) -> ChildRun:
    """Run ``cmd`` to completion and reap it with ``os.wait4``.

    The child's own ``ru_maxrss`` comes from its wait status, not the
    cumulative ``RUSAGE_CHILDREN``.  A child still running after
    ``timeout`` seconds is killed with its process group and reported
    as timed out.
    """
    with open(stdout_path, "wb") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        expired = threading.Event()

        def kill() -> None:
            expired.set()
            try:  # the whole group: a sweep's forked cells die with it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall=wall,
        returncode=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        timed_out=expired.is_set(),
        stdout=stdout_path.read_text(errors="replace"),
        cpu=usage.ru_utime + usage.ru_stime,
    )


# -- machine speed ----------------------------------------------------

#: A fixed job that does the kinds of work the program does -- interpreter
#: start, ``import numpy``, compiling and running Python, a graph search
#: over dicts and lists, numpy sorts -- with none of the program's code.
REFERENCE_JOB = r"""
import numpy as np
source = "".join(f"class C{i}:\n    def f(self, x):\n        return x + {i}\n"
                 for i in range(300))
exec(compile(source, "reference", "exec"), {})
graph = {i: [(i * 7919 + k * 104729) % 5000 for k in range(6)]
         for i in range(5000)}
for _ in range(4):
    seen, queue = {0}, [0]
    for u in queue:
        for v in graph[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
values = np.random.default_rng(0).random(300_000)
np.unique((np.sort(values) * 1000).astype(np.int64))
"""

#: Seconds ``REFERENCE_JOB`` takes, of wall and of CPU time, on the
#: machine the bounds were set on.
REFERENCE_S = 0.25


class Speed:
    """How fast the host runs ``REFERENCE_JOB``, sampled through a run.

    The host is shared, and its speed drifts by 2x and more between
    runs of the same code, and within one.  Each workload runs the
    reference job between its timed operations and divides every
    timing by the factor around it (rates are multiplied by it): the
    time the operation would take on the reference machine.  The job
    uses no program code, so a change to the program moves the timings,
    never the factor.
    """

    #: Seconds between samples taken with :meth:`due`.
    EVERY_S = 1.0

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.samples: list[float] = []
        self.stamps: list[float] = []  # when each sample ended
        self.cpu: list[float] = []

    def sample(self) -> None:
        run = run_child([self.ctx.python, "-c", REFERENCE_JOB],
                        env=self.ctx.env, cwd=self.ctx.work, timeout=60.0,
                        stdout_path=self.ctx.work / "reference.log")
        if run.returncode != 0:
            raise RuntimeError(f"reference job failed: {run.stdout[-2000:]}")
        self.samples.append(run.wall)
        self.stamps.append(perf_counter())
        self.cpu.append(run.cpu)

    def due(self) -> None:
        """Sample when ``EVERY_S`` has passed since the last sample."""
        if not self.stamps or perf_counter() - self.stamps[-1] >= self.EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The factor over ``[start, end]``: the mean of the last sample
        ended by ``start`` and the first one started after ``end``, over
        ``REFERENCE_S``.  Above 1 the host ran slower than the reference."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        picks = [self.samples[k] for k in (before, after)
                 if 0 <= k < len(self.samples)]
        if not picks:
            raise ValueError("no reference sample taken")
        return sum(picks) / len(picks) / REFERENCE_S

    def typical(self) -> float:
        """The run's median factor."""
        return median(self.samples) / REFERENCE_S

    def typical_cpu(self) -> float:
        """The run's median factor in CPU time, for CPU-time figures:
        unlike wall time, CPU time leaves out the time the host ran
        other tenants instead of this VM."""
        return median(self.cpu) / REFERENCE_S

    def note(self) -> str:
        return (f"speed factor = {self.typical():.4f} (median of "
                f"{len(self.samples)} reference jobs, reference "
                f"{REFERENCE_S} s); each timing is divided by the factor "
                "around it")


# -- results ----------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)
