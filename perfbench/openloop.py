"""Open-loop NDJSON load: requests sent on a fixed schedule, not on replies.

One asyncio loop drives a fixed number of pipelined connections.  Each
request has a *due* time; it is written at that time whether or not
earlier replies have arrived, and its latency is measured from the due
time, so a stall in the server (or in this generator) is charged to
every request that was due during it.  How late the generator itself
wrote each request is reported separately.

Nothing here imports the program; ``serve_wl`` supplies the requests.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Sequence

from common import tail


@dataclass
class Phase:
    """What one fixed-rate phase measured, in request order."""

    rate: float
    requests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds from due, or None
    late: list = field(default_factory=list)       # write time - due time
    responses: list = field(default_factory=list)  # parsed, or None
    drain: float = 0.0  # last reply after the last due time

    @property
    def completed(self) -> list[float]:
        return [lat for lat in self.latencies if lat is not None]


def concat(phases: Sequence[Phase]) -> Phase:
    """Consecutive phases at one rate, as one phase in request order."""
    joined = Phase(rate=phases[0].rate)
    for phase in phases:
        joined.requests += phase.requests
        joined.latencies += phase.latencies
        joined.late += phase.late
        joined.responses += phase.responses
        joined.drain = max(joined.drain, phase.drain)
    return joined


def schedule(rate: float, seconds: float) -> list[float]:
    """Due offsets of a fixed-rate phase: ``rate * seconds`` evenly spaced."""
    count = max(1, round(rate * seconds))
    return [k / rate for k in range(count)]


async def run_phase(connections: Sequence[tuple], requests: Sequence[dict],
                    rate: float, seconds: float, timeout: float,
                    clock: Callable[[], float] = perf_counter,
                    spin: float = 0.0) -> Phase:
    """Send ``requests`` at ``rate`` round-robin over ``connections``.

    ``connections`` are ``(reader, writer)`` stream pairs.  Replies come
    back in order per connection; a reply that has not arrived
    ``timeout`` seconds after the last due time counts as missing
    (latency ``None``).

    With ``spin`` > 0 the generator wakes that long before each due
    time and polls up to it, then polls up to that long for the reply:
    the wake-up of an idle CPU, which on a shared host varies from run
    to run, then delays neither the send nor the read of a quick reply.
    """
    offsets = schedule(rate, seconds)
    if len(requests) < len(offsets):
        raise ValueError("fewer requests than the phase schedule needs")
    phase = Phase(rate=rate, requests=list(requests[:len(offsets)]))
    phase.latencies = [None] * len(offsets)
    phase.responses = [None] * len(offsets)
    phase.late = [0.0] * len(offsets)
    pending = [deque() for _ in connections]
    lines = [(json.dumps(request) + "\n").encode() for request in phase.requests]
    last_reply = [0.0]
    start = clock() + 0.01

    async def send() -> None:
        for k, offset in enumerate(offsets):
            due = start + offset
            wait = due - clock() - spin
            if wait > 0:
                await asyncio.sleep(wait)
            while clock() < due:
                await asyncio.sleep(0)
            slot = k % len(connections)
            pending[slot].append((k, due))
            phase.late[k] = clock() - due
            connections[slot][1].write(lines[k])
            until = clock() + spin
            while phase.latencies[k] is None and clock() < until:
                await asyncio.sleep(0)
        for _, writer in connections:
            await writer.drain()

    async def receive(slot: int) -> None:
        reader = connections[slot][0]
        expected = len(range(slot, len(offsets), len(connections)))
        for _ in range(expected):
            line = await reader.readline()
            now = clock()
            if not line:
                return
            k, due = pending[slot].popleft()
            phase.latencies[k] = now - due
            try:
                phase.responses[k] = json.loads(line)
            except ValueError:
                phase.responses[k] = {"unparseable": line.decode(errors="replace")}
            last_reply[0] = max(last_reply[0], now)

    receivers = [asyncio.ensure_future(receive(s)) for s in range(len(connections))]
    sender = asyncio.ensure_future(send())
    deadline = offsets[-1] + timeout
    done, _ = await asyncio.wait([sender, *receivers],
                                 timeout=max(0.0, start + deadline - clock()))
    for task in (sender, *receivers):
        if task not in done:
            task.cancel()
    for task in (sender, *receivers):
        try:
            await task
        except asyncio.CancelledError:
            pass
    phase.drain = max(0.0, last_reply[0] - (start + offsets[-1]))
    return phase


def passes(phase: Phase, limit: float) -> bool:
    """A rung passes when every request was answered, the tail latency
    is within ``limit`` and the backlog drained within ``limit``."""
    done = phase.completed
    if not done or len(done) < len(phase.latencies):
        return False
    _, value = tail(done)
    return value <= limit and phase.drain <= limit


def highest_passing(rungs: Sequence[Phase], limit: float) -> Phase | None:
    """Climb rungs in rising rate order; the last one before the first miss."""
    best = None
    for phase in rungs:
        if not passes(phase, limit):
            break
        best = phase
    return best


def rung_latency(phase: Phase) -> float:
    """What a rung is judged on: its tail latency, or its backlog drain
    if that is longer; infinite when replies went missing."""
    done = phase.completed
    if not done or len(done) < len(phase.latencies):
        return math.inf
    return max(tail(done)[1], phase.drain)


def max_rate(rungs: Sequence[Phase], limit: float) -> float | None:
    """The rate at which the ladder reaches ``limit``.

    The highest passing rung's rate, moved toward the first failing
    rung by log-log interpolation of their latencies, so the figure
    changes smoothly with the server's speed instead of jumping a
    whole rung.  ``None`` when the bottom rung already misses; the top
    rung's rate when every rung passes.
    """
    best = highest_passing(rungs, limit)
    if best is None:
        return None
    index = list(rungs).index(best)
    if index + 1 == len(rungs):
        return best.rate
    above = rungs[index + 1]
    low, high = rung_latency(best), rung_latency(above)
    if math.isinf(high) or high <= low:
        return best.rate
    fraction = math.log(limit / low) / math.log(high / low)
    return best.rate * (above.rate / best.rate) ** fraction


def achieved_rate(phase: Phase) -> float:
    """Replies per second over the phase, from first due to last reply."""
    span = len(phase.latencies) / phase.rate + phase.drain
    return len(phase.completed) / span
