"""``sweep-grid``: checkpointed ``python -m repro sweep --jobs 2`` grids.

The sequence starts with the two grids the documentation prints, at
the default density-preserving side and with their documented seeds
(``--seeds 0:10``); ``default_side`` is below the UDG connectivity
threshold from n = 200 on, so the second grid loses cells, and those
failures are counted, not avoided.  The other grids use explicit sides
and seeds drawn from the benchmark's ``--seed``.  Every ledger is
parsed with ``read_checkpoint``; every completed cell is re-solved
in-process with ``solve_cell`` and must match the ledger exactly.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

from common import (Outcome, Speed, Tracer, median, residual, run_child,
                    span_cost, tail)
from probes import import_probe

JOBS = 2
SETUP_REPEATS = 5
TIMEOUT = 150.0

#: The documented grids, verbatim (README and docs/robustness.md).
DOCUMENTED = [
    {"ns": [50, 100], "side": None, "seeds": (0, 10), "algorithm": ("greedy",)},
    {"ns": [100, 200], "side": None, "seeds": (0, 10), "algorithm": ("greedy",)},
]
#: (n, side, cells, solver arguments, fixed first seed) of the other
#: grids.  Their seeds follow ``--seed`` unless a fixed first seed is
#: given: an n = 4000 cell at side 36 takes anything from one to several
#: rejection draws of about 0.3 s each, and with two cells that count,
#: not the program, would set the pass time.  Those cells are the same
#: deployments in every run.
SEEDED = [
    (1000, 18.0, 4, ("greedy",), None),
    (1000, 18.0, 4, ("waf",), None),
    (1000, 18.0, 4, ("mfold-greedy", "--m", "2"), None),
    (4000, 36.0, 2, ("greedy",), 4_000_000),
    (1000, 18.0, 2, ("waf-dist",), None),
]

#: In-process spans of the traced re-solve: (span name, module, function).
TRACED = [
    ("graphs.generators.sample", "repro.graphs.generators", "random_connected_udg"),
    ("graphs.udg.build", "repro.graphs.udg", "unit_disk_graph"),
    ("graphs.traversal.is_connected", "repro.graphs.traversal", "is_connected"),
    ("graphs.backend.build_kernel", "repro.graphs.backend", "build_kernel"),
    ("mis.first_fit", "repro.mis.first_fit", "first_fit_mis_nodes"),
    ("mis.first_fit", "repro.mis.first_fit", "first_fit_mis"),
    ("cds.connectors", "repro.cds.greedy_connector", "greedy_connectors"),
    ("cds.connectors", "repro.cds.waf", "waf_connectors"),
]


def _grids(seed: int) -> list[dict]:
    base = 1000 + 100 * seed
    grids = list(DOCUMENTED)
    for k, (n, side, count, algorithm, fixed) in enumerate(SEEDED):
        start = base + 10 * k if fixed is None else fixed
        grids.append({"ns": [n], "side": side, "seeds": (start, start + count),
                      "algorithm": algorithm})
    return grids


def _args(grid: dict, ledger) -> list[str]:
    args = ["sweep", "--ns", ",".join(map(str, grid["ns"])),
            "--seeds", "%d:%d" % grid["seeds"], "--algorithm", grid["algorithm"][0],
            *grid["algorithm"][1:], "--jobs", str(JOBS), "--checkpoint", str(ledger)]
    if grid["side"] is not None:
        args[3:3] = ["--side", repr(grid["side"])]
    return args


def _cells(grid: dict):
    from repro.experiments.parallel import cell_key, sweep_cells

    cells = sweep_cells(grid["ns"], range(*grid["seeds"]), side=grid["side"])
    return [(cell_key(cell), cell) for cell in cells]


def _setup(ctx, speed: Speed) -> list[float]:
    """Warm the interpreter and page cache with a one-cell sweep, several
    times; each time divided by the speed factor around it."""
    spans = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        ledger = ctx.work / "warm.jsonl"
        ledger.unlink(missing_ok=True)
        t0 = perf_counter()
        run_child(ctx.repro("sweep", "--ns", "20", "--seeds", "0:1",
                            "--checkpoint", str(ledger)),
                  env=ctx.env, cwd=ctx.work, timeout=TIMEOUT,
                  stdout_path=ctx.work / "warm.log")
        spans.append((t0, perf_counter()))
        speed.sample()
    return [(end - start) / speed.factor(start, end) for start, end in spans]


def run_sweep(ctx) -> Outcome:
    from repro.reliability.checkpoint import read_checkpoint

    outcome = Outcome()
    speed = Speed(ctx)
    setup_times = _setup(ctx, speed)
    grids = _grids(ctx.seed)
    plans = [_cells(grid) for grid in grids]

    walls: list[list[float]] = [[] for _ in grids]
    scaled: list[list[float]] = [[] for _ in grids]  # walls / speed factor
    first: list = [None] * len(grids)  # the first pass's parsed ledgers
    ledger_bytes = [0] * len(grids)
    timed: list[tuple[int, float, float, float]] = []  # slot, start, end, wall
    peak_rss = 0.0
    cells_done = 0
    t_start = perf_counter()
    i = 0
    while True:
        slot = i % len(grids)
        grid, plan = grids[slot], plans[slot]
        ledger = ctx.work / f"ledger-{slot}.jsonl"
        ledger.unlink(missing_ok=True)
        t_op = perf_counter()
        run = run_child(ctx.repro(*_args(grid, ledger)), env=ctx.env,
                        cwd=ctx.work, timeout=TIMEOUT,
                        stdout_path=ctx.work / "sweep.log")
        walls[slot].append(run.wall)
        timed.append((slot, t_op, perf_counter(), run.wall))
        peak_rss = max(peak_rss, run.maxrss_mb)
        outcome.attempted += len(plan)
        cells_done += len(plan)
        try:
            parsed = read_checkpoint(ledger)
        except (OSError, ValueError) as exc:
            outcome.failed += len(plan)
            outcome.notes.append(f"failed: sweep {slot} left no ledger ({exc})")
        else:
            _check_ledger(slot, plan, parsed, run.returncode, outcome)
            outcome.failed += len(plan) - len(parsed.cells)
            if first[slot] is None:
                first[slot] = parsed
                ledger_bytes[slot] = ledger.stat().st_size
            else:
                outcome.check(_results(parsed) == _results(first[slot]),
                              f"sweep {slot}: a repeated sweep changed its cells")
        speed.due()
        i += 1
        if i % len(grids) == 0:  # only whole passes, so the mix is fixed
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / (i // len(grids)) > ctx.seconds:
                break
    speed.sample()
    for slot, start, end, wall in timed:
        scaled[slot].append(wall / speed.factor(start, end))

    tracer = Tracer()
    per_cell: list[list[tuple]] = [[] for _ in grids]
    backbone = 0
    with _patch(tracer, ctx.trace):
        for slot, (grid, plan) in enumerate(zip(grids, plans)):
            if first[slot] is None:
                continue
            results = _results(first[slot])
            backbone += sum(r["cds_size"] for r in results.values())
            for key, cell in plan:
                if key not in results and not ctx.trace:
                    continue
                per_cell[slot].append(
                    _resolve(tracer, cell, grid, results.get(key), outcome, key))
            for failure in first[slot].failures:
                outcome.notes.append(f"failed cell: {failure.key} "
                                     f"({grid['algorithm'][0]}: {failure.message})")

    # One sample is one pass over the whole sequence: the invocations
    # differ too much in size for their walls to share a percentile.
    samples = [sum(per) for per in zip(*walls)]
    pct, tail_value = tail(samples)
    passes = [sum(per) for per in zip(*scaled)]
    throughput = cells_done / sum(passes)
    outcome.end_to_end = {
        "setup_s": median(setup_times),
        "p50_ms": 1e3 * median(passes),
        "tail_ms": 1e3 * tail(passes)[1],
        "throughput_per_s": throughput,
        "peak_rss_mb": peak_rss,
        "backbone_nodes": float(backbone),
    }
    outcome.notes += [
        speed.note(),
        f"cells_per_s = {cells_done / sum(samples):.3f} 1/s as measured "
        f"({cells_done} cells in {len(samples)} passes of {len(grids)} sweeps;"
        f" pass wall p50 {median(samples):.3f} s, p{pct:.1f} "
        f"{tail_value:.3f} s)",
        f"backbone_nodes = {backbone} (sum of |CDS| over completed cells)",
    ]
    if ctx.trace:
        outcome.per_layer = _layers(ctx, grids, walls, first, ledger_bytes,
                                    tracer, per_cell, outcome)
    return outcome


def _results(ledger) -> dict:
    return {key: line["result"] for key, line in ledger.cells.items()}


def _check_ledger(slot: int, plan, parsed, returncode: int,
                  outcome: Outcome) -> None:
    keys = {key for key, _ in plan}
    failures = {f.key for f in parsed.failures}
    outcome.check(set(parsed.cells) <= keys and failures <= keys,
                  f"sweep {slot}: ledger names cells outside the grid")
    outcome.check(set(parsed.cells) | failures == keys,
                  f"sweep {slot}: ledger is missing cells")
    complete = len(parsed.cells) == len(plan)
    outcome.check(returncode == (0 if complete else 1),
                  f"sweep {slot}: exit {returncode} does not match "
                  f"{len(plan) - len(parsed.cells)} failed cell(s)")


def _patch(tracer: Tracer, enabled: bool):
    """Route the layer functions through spans, for the traced run only."""
    if not enabled:
        return nullcontext()
    import importlib

    return tracer.patched(
        (name, getattr(importlib.import_module(module), attr))
        for name, module, attr in TRACED)


def _resolve(tracer: Tracer, cell, grid: dict, expected, outcome: Outcome,
             key: str) -> tuple:
    """Re-solve one cell in-process; ``(span range, summary or None)``."""
    from repro.experiments.parallel import solve_cell

    algorithm = grid["algorithm"]
    m = int(algorithm[2]) if len(algorithm) > 2 else None
    start = len(tracer.spans)
    summary = None
    with tracer.span("experiments.parallel.solve_cell"):
        try:
            summary = solve_cell(cell, algorithm=algorithm[0], m=m)
        except ValueError:
            pass
    if expected is None:
        outcome.check(summary is None, f"{key}: failed in the sweep but "
                      "solves in-process")
    else:
        outcome.check(summary == expected,
                      f"{key}: ledger result differs from in-process solve_cell")
    return start, len(tracer.spans), summary


def _layers(ctx, grids, walls, first, ledger_bytes, tracer: Tracer, per_cell,
            outcome: Outcome) -> dict:
    from repro.reliability.checkpoint import CheckpointWriter

    probe = import_probe(ctx)
    layers = dict(probe)
    durations = tracer.durations()
    for name in ("graphs.generators.sample", "graphs.udg.build",
                 "graphs.traversal.is_connected", "graphs.backend.build_kernel",
                 "mis.first_fit", "cds.connectors",
                 "experiments.parallel.solve_cell"):
        layers[f"{name}_s"] = durations.get(name, 0.0)
    attempts = sum(1 for span in tracer.spans if span[0] == "graphs.udg.build")
    counters: dict[str, float] = {}
    selected = connectors = 0
    distributed_s = 0.0
    wall_sum = attributed_sum = overhead_sum = record_sum = 0.0
    for slot, grid in enumerate(grids):
        if first[slot] is None:
            continue
        solve_cell_s = 0.0
        for start, end, summary in per_cell[slot]:
            spans = tracer.spans[start:end]
            cell_s = spans[0][2] - spans[0][1]
            solve_cell_s += cell_s
            if summary is None:
                continue
            selected += summary["dominators"]
            connectors += summary["connectors"]
            for name, value in summary["counters"].items():
                counters[name] = counters.get(name, 0) + value
            if grid["algorithm"][0] == "waf-dist":
                sample = sum(s[2] - s[1] for s in spans
                             if s[0] == "graphs.generators.sample")
                distributed_s += cell_s - sample
        # Replay the first pass's ledger through the program's writer
        # (fsync per line) to time the checkpoint layer on its own.
        replay = ctx.work / f"replay-{slot}.jsonl"
        source = first[slot]
        keys = list(source.cells) + [f.key for f in source.failures]
        t0 = perf_counter()
        with CheckpointWriter(replay, keys=keys, label=source.label) as writer:
            for key, line in source.cells.items():
                writer.record_cell(key, line["result"], line["attempts"])
            for failure in source.failures:
                writer.record_failure(failure)
        record_s = perf_counter() - t0
        record_sum += record_s
        wall = walls[slot][0]
        overhead = wall - probe["cli.start_s"] - probe["cli.import_s"] \
            - solve_cell_s / JOBS
        overhead_sum += overhead
        parts = [probe["cli.start_s"], probe["cli.import_s"],
                 solve_cell_s / JOBS, record_s]
        wall_sum += wall
        attributed_sum += sum(parts)
        outcome.notes.append(
            f"sweep {slot} ({grid['algorithm'][0]} n={grid['ns']}): wall "
            f"{wall:.3f} s = start {parts[0]:.3f} + import {parts[1]:.3f} + "
            f"solve_cell/{JOBS} {parts[2]:.3f} + checkpoint {record_s:.3f} + "
            f"unattributed {wall - sum(parts):.3f}")
    outcome.notes.append("self time per span: " + ", ".join(
        f"{name} {seconds:.3f} s" for name, seconds in tracer.self_times().items()))
    unattributed, share = residual(wall_sum, [attributed_sum])
    layers.update({
        "graphs.generators.attempts": float(attempts),
        "mis.selected": float(selected),
        "cds.connectors": float(connectors),
        "cds.gain_evaluations": float(counters.get("gain.evaluations", 0)),
        "distributed.solve_s": distributed_s,
        "distributed.rounds": float(counters.get("sim.rounds", 0)),
        "distributed.transmissions": float(counters.get("sim.transmissions", 0)),
        "reliability.runner.overhead_s": overhead_sum,
        "reliability.checkpoint.record_s": record_sum,
        "reliability.checkpoint.bytes": float(sum(ledger_bytes)),
        "unattributed_s": unattributed,
        "attributed_share": share,
        "obs.trace_overhead_share":
            span_cost() * len(tracer.spans) / tracer.top_level(),
    })
    return layers
