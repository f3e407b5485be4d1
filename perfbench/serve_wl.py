"""``serve-mixed``: ``python -m repro serve --jobs 1`` daemons, open-loop.

Load comes from one process, one event loop and two pipelined
connections (``openloop``).  The mix, spread evenly through every
block of 100 requests so misses do not cluster by chance:

* 80 repeats of a 16-instance hot set (n = 150, side 8.0) -- cache hits;
* 10 unique n = 150 specs and 7 unique n = 1000 specs (side 18.0) --
  misses the daemon solves;
* 3 unique inline edge lists (connected n = 30 UDGs) -- misses.

Three in four requests use greedy, one in four waf.  A nominal-rate
phase gives the latency percentiles and, from the daemon's CPU time,
its capacity.  A rate ladder, run against a second daemon and climbed
until a rung misses the tail-latency limit or leaves a backlog, gives
the highest sustainable rate.  Every response is schema-checked, the
results are bit-identical per fingerprint, trace IDs are unique per
daemon, and the hot set matches an in-process ``solve_cell``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import threading
from time import perf_counter

import numpy as np

from common import (Outcome, Speed, Tracer, median, percentile, residual,
                    span_cost, tail)
from inputs import connected_deployment
from openloop import (achieved_rate, concat, highest_passing, max_rate,
                      passes, run_phase, schedule)
from probes import import_probe

CONNECTIONS = 2
SETUP_REPEATS = 5
NOMINAL_RPS = 25.0
LADDER_RPS = (80.0, 113.0, 160.0, 226.0, 320.0, 453.0, 640.0)
#: Tail-latency limit of a ladder rung, and the backlog drain limit.
LIMIT_S = 0.25
#: Share of ``--seconds`` spent at the nominal rate; the rest is the ladder.
NOMINAL_SHARE = 0.7
#: The nominal phase runs in segments about this long, with a reference
#: job between them, so each latency is scaled by the speed around it.
SEGMENT_S = 2.5
#: How long the generator polls around each nominal request (see
#: ``openloop.run_phase``); the ladder's rates are too high to poll.
SPIN_S = 0.003
REPLY_TIMEOUT = 30.0

HOT_SET = 16
MIX = {"hot": 80, "spec150": 10, "spec1000": 7, "edges": 3}
SIDES = {150: 8.0, 1000: 18.0}


def _smooth(weights: dict[str, int]) -> list[str]:
    """One block of classes, each spread evenly (smooth weighted round robin)."""
    total = sum(weights.values())
    current = dict.fromkeys(weights, 0)
    block = []
    for _ in range(total):
        for name, weight in weights.items():
            current[name] += weight
        pick = max(current, key=current.get)
        current[pick] -= total
        block.append(pick)
    return block


class Mix:
    """The seeded request stream: a hot set plus never-repeated misses."""

    def __init__(self, seed: int):
        from repro.serve.protocol import solve_request

        self._solve_request = solve_request
        self.rng = np.random.default_rng([seed, 7])
        self.block = _smooth(MIX)
        seeds = self.rng.choice(1_000_000, size=HOT_SET, replace=False)
        self.hot = [solve_request(f"hot-{i}", n=150, side=SIDES[150], seed=int(s),
                                  algorithm="waf" if i % 4 == 3 else "greedy")
                    for i, s in enumerate(seeds)]
        # A spec miss costs as many rejection draws as its seed needs:
        # 12 ms on average at n = 150 but up to 60 ms, 42 ms at n = 1000.
        # The spec misses are the same deployments in every run, so the
        # tail and the rate compare the daemon, not the draws.
        self.next_seed = {150: 1_000_000, 1000: 2_000_000}
        self.count = 0
        self.hot_ids: set[str] = set()  # requests that repeat the hot set

    def take(self, count: int) -> list[dict]:
        requests = []
        for _ in range(count):
            kind = self.block[self.count % len(self.block)]
            self.count += 1
            rid = f"r{self.count}"
            algorithm = "waf" if self.count % 4 == 0 else "greedy"
            if kind == "hot":
                request = dict(self.hot[int(self.rng.integers(HOT_SET))], id=rid)
                self.hot_ids.add(rid)
            elif kind == "edges":
                _, pairs = connected_deployment(30, 4.0, self.rng)
                request = self._solve_request(
                    rid, edges=pairs.tolist(), nodes=30, algorithm=algorithm)
            else:
                n = 150 if kind == "spec150" else 1000
                self.next_seed[n] += 1
                request = self._solve_request(rid, n=n, side=SIDES[n],
                                              seed=self.next_seed[n],
                                              algorithm=algorithm)
            requests.append(request)
        return requests


class Daemon:
    """The serve subprocess: boot to its ready line, reap with ``wait4``."""

    def __init__(self, ctx):
        self.t0 = perf_counter()
        self.proc = subprocess.Popen(
            ctx.repro("serve", "--port", "0", "--jobs", "1"), env=ctx.env,
            cwd=ctx.work, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        line = self.proc.stdout.readline().decode()
        self.ready_s = perf_counter() - self.t0
        if not line.startswith("serving on "):
            self.kill()
            raise RuntimeError(f"daemon did not come up: {line!r}")
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self, timeout: float = 30.0) -> tuple[float, float]:
        """Ask the daemon to drain and reap it: its own peak RSS in MB and
        the CPU seconds it used, user plus system."""
        from repro.serve.client import ServeClient

        with ServeClient(self.address, timeout=timeout) as client:
            client.shutdown()
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            self.proc.stdout.read()  # to EOF: the drain report
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def abort(self) -> None:
        self.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _boot(ctx, speed: Speed) -> tuple[Daemon, list[float]]:
    """Boot the daemon several times, keep the last; each boot-to-ready
    time divided by the speed factor around it."""
    spans = []
    speed.sample()
    for i in range(SETUP_REPEATS):
        daemon = Daemon(ctx)
        spans.append((daemon.t0, daemon.t0 + daemon.ready_s))
        try:
            if i + 1 < SETUP_REPEATS:
                daemon.stop()
            speed.sample()
        except BaseException:
            daemon.abort()
            raise
    return daemon, [(end - start) / speed.factor(start, end)
                    for start, end in spans]


async def _stats(connection) -> dict:
    from repro.serve.protocol import control_request

    phase = await run_phase([connection], [control_request("stats", "stats")],
                            rate=1.0, seconds=1.0, timeout=REPLY_TIMEOUT)
    return (phase.responses[0] or {}).get("stats", {})


def _owed(phase) -> bool:
    """Replies still owed would be paired with the next phase's requests."""
    return any(lat is None for lat in phase.latencies)


async def _open(address) -> list[tuple]:
    return [await asyncio.open_connection(*address, limit=1 << 24)
            for _ in range(CONNECTIONS)]


async def _close(connections) -> None:
    for _, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _prime(connections, mix: Mix):
    """Solve the hot set once, before anything is timed."""
    return await run_phase(connections[:1], mix.hot, rate=50.0,
                           seconds=HOT_SET / 50.0, timeout=REPLY_TIMEOUT)


async def _nominal(address, mix: Mix, seconds: float, speed: Speed):
    """Prime the hot set, then run the nominal phase in segments.

    Returns the phases (priming, nominal), the daemon's ``stats`` before
    and after the nominal phase, and the speed factor of each nominal
    request.
    """
    connections = await _open(address)
    phases, stats, factors = [], [], []
    try:
        phases.append(await _prime(connections, mix))
        if _owed(phases[-1]):
            return phases, stats, factors
        count = max(1, round(seconds / SEGMENT_S))
        length = seconds / count
        stats.append(await _stats(connections[0]))
        segments, spans = [], []
        for _ in range(count):
            # No request is in flight here: the daemon idles while the
            # reference job runs.
            speed.sample()
            t0 = perf_counter()
            segments.append(await run_phase(
                connections, mix.take(len(schedule(NOMINAL_RPS, length))),
                NOMINAL_RPS, length, REPLY_TIMEOUT, spin=SPIN_S))
            spans.append((t0, perf_counter()))
            if _owed(segments[-1]):
                break
        speed.sample()
        for segment, (start, end) in zip(segments, spans):
            factors += [speed.factor(start, end)] * len(segment.latencies)
        phases.append(concat(segments))
        if not _owed(phases[-1]):
            stats.append(await _stats(connections[0]))
    finally:
        await _close(connections)
    return phases, stats, factors


async def _ladder(address, mix: Mix, seconds: float):
    """Prime the hot set, then climb the rate ladder up to the first rung
    that misses.  Returns the phases (priming, rungs...)."""
    connections = await _open(address)
    phases = []
    try:
        phases.append(await _prime(connections, mix))
        rung_s = seconds / len(LADDER_RPS)
        for rate in LADDER_RPS:
            if _owed(phases[-1]):
                break
            phases.append(await run_phase(
                connections, mix.take(len(schedule(rate, rung_s))), rate,
                rung_s, REPLY_TIMEOUT))
            if not passes(phases[-1], LIMIT_S):
                break  # the first miss bounds the rate
    finally:
        await _close(connections)
    return phases


def _audit(daemons: list[list], mix: Mix, outcome: Outcome) -> None:
    """Schema, request IDs, failures, bit-identity, trace IDs, hot set.

    ``daemons`` holds each daemon's phases; trace IDs are unique per
    daemon, results bit-identical across both.
    """
    from repro.experiments.parallel import SweepCell, solve_cell
    from repro.serve.protocol import validate_response

    results: dict[str, str] = {}
    hot: dict[str, dict] = {}
    for phases in daemons:
        traces: set[int] = set()
        for phase in phases:
            for request, response in zip(phase.requests, phase.responses):
                outcome.attempted += 1
                if response is None:
                    outcome.failed += 1
                    continue
                errors = validate_response(response)
                outcome.check(not errors, f"{request['id']}: {errors}")
                outcome.check(response.get("id") == request["id"],
                              f"{request['id']}: answered as {response.get('id')!r}")
                if response.get("status") != "ok":
                    outcome.failed += 1
                    continue
                trace = response.get("trace")
                outcome.check(trace not in traces, f"trace ID {trace} repeated")
                traces.add(trace)
                body = json.dumps(response["result"], sort_keys=True)
                known = results.setdefault(response["fingerprint"], body)
                outcome.check(known == body, f"{request['id']}: result differs "
                              "from an earlier reply with the same fingerprint")
                if request["id"].startswith("hot-"):
                    hot[request["id"]] = response["result"]
    for request in mix.hot:
        instance = request["instance"]
        cell = SweepCell(n=instance["n"], side=instance["side"],
                         seed=instance["seed"])
        expected = json.loads(json.dumps(
            solve_cell(cell, algorithm=request["algorithm"])))
        outcome.check(hot.get(request["id"]) == expected,
                      f"{request['id']}: served result differs from solve_cell")


def _serve(daemon: Daemon, drive) -> tuple:
    """Run ``drive`` against ``daemon``, then stop it: ``(what drive
    returned, peak RSS in MB, CPU seconds)``.  The daemon never outlives
    this call."""
    try:
        result = asyncio.run(drive)
        peak_rss, cpu_s = daemon.stop()
    except BaseException:
        daemon.abort()
        raise
    return result, peak_rss, cpu_s


def run_serve(ctx) -> Outcome:
    outcome = Outcome()
    mix = Mix(ctx.seed)
    speed = Speed(ctx)
    daemon, boot_times = _boot(ctx, speed)
    nominal_s = NOMINAL_SHARE * ctx.seconds
    (phases, stats, factors), peak_rss, cpu_s = _serve(
        daemon, _nominal(daemon.address, mix, nominal_s, speed))
    outcome.check(daemon.proc.returncode == 0,
                  f"daemon exited {daemon.proc.returncode}")
    # The ladder overloads its daemon; a daemon of its own keeps that
    # out of the nominal daemon's CPU time.
    climbed = []
    if len(phases) == 2 and not _owed(phases[1]):
        ladder_daemon = Daemon(ctx)
        climbed, ladder_rss, _ = _serve(ladder_daemon, _ladder(
            ladder_daemon.address, mix, ctx.seconds - nominal_s))
        outcome.check(ladder_daemon.proc.returncode == 0,
                      f"ladder daemon exited {ladder_daemon.proc.returncode}")
        peak_rss = max(peak_rss, ladder_rss)
    _audit([phases, climbed], mix, outcome)
    if len(phases) < 2:
        outcome.violations.append("the daemon lost replies to the hot set")
        return outcome

    nominal, rungs = phases[1], climbed[1:]
    # A failed or missing reply misses every limit: it counts as the
    # reply timeout.
    latencies = [lat if lat is not None and response.get("status") == "ok"
                 else REPLY_TIMEOUT
                 for lat, response in zip(nominal.latencies,
                                          [r or {} for r in nominal.responses])]
    pct, tail_value = tail(latencies)
    # A failure keeps the full timeout: it misses the limit at any speed.
    scaled = [lat / factor if lat != REPLY_TIMEOUT else lat
              for lat, factor in zip(latencies, factors)]
    # The median is taken over the cache hits: over all requests it
    # fell where quick hits give way to solves and hits slowed beside
    # them, and moved by half between runs.  The tail covers them all.
    hits = [lat for lat, request in zip(scaled, nominal.requests)
            if request["id"] in mix.hot_ids]
    hit_latencies = [lat for lat, request in zip(latencies, nominal.requests)
                     if request["id"] in mix.hot_ids]
    # The nominal phase is the ladder's bottom rung.
    ladder = [nominal, *rungs]
    best = highest_passing(ladder, LIMIT_S)
    rate = max_rate(ladder, LIMIT_S)
    if rate is None:
        outcome.notes.append("no rung met the limit; max_rate_rps is the "
                             "nominal phase's achieved rate")
        rate = achieved_rate(nominal)
    # Every reply of the nominal daemon, the hot set's included: the
    # same requests in every run.
    replies = sum(1 for phase in phases for response in phase.responses
                  if response and response.get("status") == "ok")
    sizes = {}
    for phase in phases[:2]:
        for response in phase.responses:
            if response and response.get("status") == "ok":
                sizes[response["fingerprint"]] = response["result"]["cds_size"]
    outcome.end_to_end = {
        "setup_s": median(boot_times),
        "p50_ms": 1e3 * median(hits),
        "tail_ms": 1e3 * tail(scaled)[1],
        # Replies per CPU second of the nominal daemon (boot, hot set
        # and nominal phase), at the reference speed.  The ladder's rate
        # follows the host's wake-up latency more than the daemon's
        # work, so it is printed but not bounded.
        "throughput_per_s": replies / cpu_s * speed.typical_cpu(),
        "peak_rss_mb": peak_rss,
        "backbone_nodes": float(sum(sizes.values())),
    }
    outcome.notes += [
        speed.note(),
        f"latency_p50_ms = {1e3 * median(latencies):.3f} ms as measured at "
        f"{NOMINAL_RPS:g} req/s ({len(latencies)} requests, timed from their "
        "due times)",
        f"hit_p50_ms = {1e3 * median(hit_latencies):.3f} ms as measured "
        f"({len(hit_latencies)} cache hits)",
        f"latency_p99_ms = {1e3 * tail_value:.3f} ms as measured (tail rule: "
        f"p{pct:.1f} of {len(latencies)})",
        f"capacity = {replies / cpu_s:.2f} replies per daemon CPU second "
        f"as measured ({replies} replies, {cpu_s:.3f} CPU s)",
        f"max_rate_rps = {rate:.2f} req/s as measured (ladder "
        f"{list(LADDER_RPS)} req/s, "
        f"limit {1e3 * LIMIT_S:g} ms, highest passing rung "
        f"{best.rate if best else 'none'})",
    ]
    for phase in rungs:
        done = phase.completed
        if done:
            rung_pct, rung_tail = tail(done)
            outcome.notes.append(
                f"rung {phase.rate:g} req/s: {len(done)}/{len(phase.latencies)} "
                f"answered, p50 {1e3 * median(done):.2f} ms, p{rung_pct:.1f} "
                f"{1e3 * rung_tail:.2f} ms, drain {1e3 * phase.drain:.1f} ms")
    if ctx.trace:
        outcome.per_layer = _layers(ctx, phases + climbed, stats, outcome)
    return outcome


def _layers(ctx, phases, stats: list[dict], outcome: Outcome) -> dict:
    """Daemon-side numbers from its ``stats`` op, client-side from the phases.

    The latency decomposition covers the nominal phase: the daemon's
    own wall time (the difference of its ``stats`` around the phase)
    plus the generator's lateness, against the client's latencies.
    """
    from repro.serve.protocol import normalize_request

    layers = dict(import_probe(ctx))
    tracer = Tracer()
    for phase in phases:
        for request in phase.requests:
            with tracer.span("serve.protocol.normalize"):
                normalize_request(request)
    outcome.check(len(stats) == 2 and all(stats), "the stats op failed")
    before, server = (stats + [{}, {}])[:2]
    cache = server.get("cache", {})
    histograms = server.get("histograms", {})
    queue = histograms.get("serve.latency.queue", {})
    solve = histograms.get("serve.latency.solve", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    late = [x for phase in phases for x in phase.late]
    nominal = phases[1]
    client = sum(nominal.completed)

    def wall_total(snapshot: dict) -> float:
        latency = snapshot.get("latency", {})
        return latency.get("mean", 0.0) * latency.get("count", 0)

    daemon = wall_total(server) - wall_total(before)
    unattributed, share = residual(client, [daemon, sum(nominal.late)])
    outcome.notes.append(
        f"nominal phase: client latency {client:.3f} s = daemon wall "
        f"{daemon:.3f} s + generator lateness {sum(nominal.late):.3f} s + "
        f"unattributed {unattributed:.3f} s (socket queueing, transport)")
    layers.update({
        "serve.protocol.normalize_s": tracer.durations()["serve.protocol.normalize"],
        "serve.cache.hit_share": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serve.server.queue_p50_ms": 1e3 * queue.get("p50", 0.0),
        "serve.server.queue_p99_ms": 1e3 * queue.get("p99", 0.0),
        "serve.server.solve_p50_ms": 1e3 * solve.get("p50", 0.0),
        "serve.server.solve_p99_ms": 1e3 * solve.get("p99", 0.0),
        "serve.server.batch_size_mean":
            server.get("batch_cells", 0) / max(1, server.get("batches", 0)),
        "serve.server.coalesced": float(server.get("coalesced", 0)),
        "serve.server.cells_solved": float(server.get("cells_solved", 0)),
        "loadgen.late_p99_ms": 1e3 * percentile(late, 99),
        "loadgen.late_max_ms": 1e3 * max(late),
        "unattributed_s": unattributed,
        "attributed_share": share,
        "obs.trace_overhead_share":
            span_cost() * len(tracer.spans) / tracer.top_level(),
    })
    return layers
