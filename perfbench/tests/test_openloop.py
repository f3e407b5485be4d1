"""The open-loop load generator: due-time latency under stalls, and the ladder."""

import asyncio
import json
import math
import time

import pytest

from openloop import (Phase, achieved_rate, concat, highest_passing, max_rate,
                      passes, run_phase, schedule)
from serve_wl import _smooth

RATE = 100.0
SECONDS = 1.0
STALL = 0.2


async def _echo_server(stall_id):
    """Answer each line at once, except ``stall_id``, which holds its
    connection for ``STALL`` seconds first."""

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            request = json.loads(line)
            if request["id"] == stall_id:
                await asyncio.sleep(STALL)
            writer.write((json.dumps({"id": request["id"]}) + "\n").encode())
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _measure(stall_id=None, generator_stall_at=None, spin=0.0):
    server = await _echo_server(stall_id)
    host, port = server.sockets[0].getsockname()[:2]
    connections = [await asyncio.open_connection(host, port) for _ in range(2)]
    if generator_stall_at is not None:
        # Block the whole event loop, as a slow generator would.
        loop = asyncio.get_running_loop()
        loop.call_later(generator_stall_at, time.sleep, STALL)
    requests = [{"id": f"r{k}"} for k in range(int(RATE * SECONDS))]
    try:
        return await asyncio.wait_for(
            run_phase(connections, requests, RATE, SECONDS, timeout=5.0,
                      spin=spin), 20.0)
    finally:
        for _, writer in connections:
            writer.close()
        server.close()
        await server.wait_closed()


def test_schedule_is_evenly_spaced():
    offsets = schedule(50.0, 2.0)
    assert len(offsets) == 100
    assert offsets[1] - offsets[0] == pytest.approx(0.02)


def test_unstalled_phase_answers_every_request_quickly():
    phase = asyncio.run(_measure())
    assert len(phase.completed) == len(phase.requests) == 100
    assert [r["id"] for r in phase.responses] == [r["id"] for r in phase.requests]
    assert sorted(phase.completed)[50] < 0.05


def test_server_stall_is_charged_to_requests_queued_behind_it():
    stalled = 30  # due at 0.30 s, on connection 0 (even indices)
    phase = asyncio.run(_measure(stall_id=f"r{stalled}"))
    assert len(phase.completed) == 100
    assert phase.latencies[stalled] >= STALL
    # A request due later on the same connection waits for the stalled
    # reply; its latency counts from its own due time, not its send.
    for k in range(stalled + 2, stalled + 20, 2):
        waited = STALL - (k - stalled) / RATE
        assert phase.latencies[k] >= waited - 0.01
    # The other connection is not held up.
    assert max(phase.latencies[k] for k in range(stalled + 1, stalled + 20, 2)) < 0.1
    # The generator itself stayed on time.
    assert max(phase.late) < 0.05


def test_generator_stall_counts_as_lateness_and_latency():
    phase = asyncio.run(_measure(generator_stall_at=0.3))
    late = [k for k, x in enumerate(phase.late) if x > STALL / 2]
    assert late, "requests due during the stall must be written late"
    assert max(phase.late) >= STALL - 0.05
    for k in late:
        assert phase.latencies[k] >= phase.late[k]


def _rung(rate, latency, count=200, drain=0.0, missing=0):
    phase = Phase(rate=rate)
    phase.latencies = [latency] * (count - missing) + [None] * missing
    phase.drain = drain
    return phase


def _curve(rate, capacity=200.0, base=0.002):
    """A queueing-shaped latency curve that blows up at ``capacity``."""
    if rate >= capacity:
        return 10.0
    return base / (1.0 - rate / capacity)


def test_ladder_finds_the_highest_rung_under_the_limit():
    rungs = [_rung(rate, _curve(rate)) for rate in (40.0, 80.0, 160.0, 320.0)]
    best = highest_passing(rungs, limit=0.25)
    assert best is rungs[2]
    assert achieved_rate(best) == pytest.approx(160.0)


def test_max_rate_interpolates_toward_the_first_failing_rung():
    rungs = [_rung(rate, _curve(rate)) for rate in (40.0, 80.0, 160.0, 320.0)]
    rate = max_rate(rungs, limit=0.25)
    assert 160.0 < rate < 320.0
    # log-log interpolation: 0.01 s at 160 req/s, 10 s at 320 req/s
    fraction = math.log(0.25 / 0.01) / math.log(10.0 / 0.01)
    assert rate == pytest.approx(160.0 * 2.0 ** fraction)


def test_max_rate_moves_smoothly_with_server_speed():
    rates = (80.0, 160.0, 320.0, 640.0)
    found = [max_rate([_rung(r, _curve(r, capacity=c)) for r in rates], 0.25)
             for c in (180.0, 200.0, 220.0, 240.0)]
    assert found == sorted(found)
    assert all(b / a < 1.3 for a, b in zip(found, found[1:]))


def test_max_rate_edge_cases():
    assert max_rate([_rung(40.0, 0.5)], limit=0.25) is None
    assert max_rate([_rung(40.0, 0.01), _rung(80.0, 0.02)], limit=0.25) == 80.0
    # A rung that lost replies cannot be interpolated against.
    failed = [_rung(40.0, 0.01), _rung(80.0, 0.01, missing=1)]
    assert max_rate(failed, limit=0.25) == 40.0


def test_ladder_stops_at_the_first_miss():
    rungs = [_rung(40.0, 0.01), _rung(80.0, 0.5), _rung(160.0, 0.01)]
    assert highest_passing(rungs, limit=0.25) is rungs[0]
    assert highest_passing([_rung(40.0, 0.5)], limit=0.25) is None


def test_backlog_or_missing_replies_fail_a_rung():
    assert passes(_rung(80.0, 0.01), 0.25)
    assert not passes(_rung(80.0, 0.01, drain=0.3), 0.25)
    assert not passes(_rung(80.0, 0.01, missing=1), 0.25)


def test_tail_not_median_decides_a_rung():
    phase = _rung(80.0, 0.01, count=100)
    phase.latencies[-11:] = [0.5] * 11  # above the p90 the tail rule reads
    assert not passes(phase, 0.25)
    phase.latencies[-11:] = [0.01] + [0.5] * 10
    assert passes(phase, 0.25)


def test_mix_spreads_each_class_evenly():
    weights = {"hot": 80, "spec150": 10, "spec1000": 7, "edges": 3}
    block = _smooth(weights)
    assert len(block) == 100
    for name, weight in weights.items():
        positions = [k for k, kind in enumerate(block) if kind == name]
        assert len(positions) == weight
        # Gaps between consecutive members, wrapping into the next block.
        gaps = [b - a for a, b in zip(positions, positions[1:])]
        gaps.append(100 - positions[-1] + positions[0])
        even = 100 / weight
        assert even * 0.6 <= min(gaps) and max(gaps) <= even * 1.4 + 1


def test_polling_generator_still_charges_stalls_from_due_time():
    stalled = 30
    phase = asyncio.run(_measure(stall_id=f"r{stalled}", spin=0.003))
    assert len(phase.completed) == 100
    assert phase.latencies[stalled] >= STALL
    assert phase.latencies[stalled + 2] >= STALL - 2 / RATE - 0.01
    # Polling up to each due time, the generator is never early.
    assert min(phase.late) >= 0.0


def test_concat_joins_phases_in_request_order():
    first = Phase(rate=5.0, requests=["a", "b"], latencies=[0.1, None],
                  late=[0.0, 0.01], responses=[{}, None], drain=0.3)
    second = Phase(rate=5.0, requests=["c"], latencies=[0.2], late=[0.0],
                   responses=[{}], drain=0.1)
    joined = concat([first, second])
    assert joined.rate == 5.0
    assert joined.requests == ["a", "b", "c"]
    assert joined.latencies == [0.1, None, 0.2]
    assert joined.late == [0.0, 0.01, 0.0]
    assert joined.completed == [0.1, 0.2]
    assert joined.drain == 0.3
