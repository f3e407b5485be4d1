"""``cli-small`` and ``solve-large``: sequential ``python -m repro solve``.

Each invocation is a fresh interpreter on a CSV deployment with
``--out``; its wall time and its own peak RSS are measured from
outside.  Every ``--out`` file is reloaded with ``load_result`` and
checked against the deployment's UDG.  The traced run rebuilds each
(deployment, algorithm) pair in-process from the solver's public
phases, asserts the same node set, and charges the invocation's wall
time to interpreter start, ``import repro.cli``, the phases and an
explicit unattributed residual.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np

from common import Outcome, Speed, median, residual, run_child, span_cost, tail
from inputs import connected_deployment, write_csv
from probes import import_probe

HERE = Path(__file__).resolve().parent

#: (n, side) deployments and solver argument lists per workload; the
#: sides are the fixture densities of ``benchmarks/bench_to_json.py``.
PLANS = {
    "cli-small": {
        "deployments": [(60, 6.2), (150, 8.0), (1000, 18.0)],
        "algorithms": [("greedy",), ("waf",), ("mfold-greedy", "--m", "2")],
        "timeout": 60.0,
        "warm_up": True,
    },
    "solve-large": {
        "deployments": [(100000, 140.0)],
        "algorithms": [("greedy",), ("waf",)],
        "timeout": 150.0,
        "warm_up": False,
    },
}
SETUP_REPEATS = 5

#: The phase spans of the in-process rebuild, in pipeline order.
PHASES = (
    "io.load_points",
    "graphs.udg.build",
    "graphs.traversal.is_connected",
    "graphs.backend.build_kernel",
    "mis.first_fit",
    "cds.connectors",
    "cds.mfold",
    "graphs.properties.validate",
    "io.save_result",
)


def _setup(plan: dict, ctx, speed: Speed) -> tuple[list[tuple[int, Path]], list[float]]:
    """Generate the deployments (and warm the CLI) several times.

    Returns the deployments and each repeat's time divided by the
    speed factor around it.
    """
    spans = []
    speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        rng = np.random.default_rng(ctx.seed)
        deployments = []
        for n, side in plan["deployments"]:
            xy, _ = connected_deployment(n, side, rng)
            path = ctx.work / f"deploy-{n}.csv"
            write_csv(xy, path)
            deployments.append((n, path))
        if plan["warm_up"]:
            n, path = deployments[0]
            run_child(ctx.repro("solve", str(path), "--out",
                                str(ctx.work / "warm.json")),
                      env=ctx.env, cwd=ctx.work, timeout=plan["timeout"],
                      stdout_path=ctx.work / "warm.log")
        spans.append((t0, perf_counter()))
        speed.sample()
    return deployments, [(end - start) / speed.factor(start, end)
                         for start, end in spans]


def _check(graph, path: Path, algorithm: tuple, outcome: Outcome, label: str):
    """Reload one ``--out`` file and check its backbone; the node set or None."""
    from repro.graphs.properties import is_connected_dominating_set, is_m_fold_cds
    from repro.io import load_result

    try:
        result = load_result(path)
    except (OSError, ValueError, KeyError) as exc:
        outcome.check(False, f"{label}: unreadable result ({exc})")
        return None
    nodes = result.nodes
    if not all(node in graph for node in nodes):
        outcome.check(False, f"{label}: backbone names nodes not deployed")
        return None
    if algorithm[0] == "mfold-greedy":
        valid = is_m_fold_cds(graph, nodes, int(algorithm[2]))
    else:
        valid = is_connected_dominating_set(graph, nodes)
    outcome.check(valid, f"{label}: not a valid backbone")
    return nodes if valid else None


def _rebuild(ctx, csv: Path, out: Path, algorithm: tuple) -> dict:
    """The traced phase rebuild of one invocation, in a fresh interpreter."""
    run = run_child([ctx.python, str(HERE / "rebuild.py"), str(csv), str(out),
                     *algorithm], env=ctx.env, cwd=ctx.work, timeout=300.0,
                    stdout_path=ctx.work / "rebuild.log")
    if run.returncode != 0:
        raise RuntimeError(f"phase rebuild failed: {run.stdout[-2000:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def run_solve(name: str, ctx) -> Outcome:
    plan = PLANS[name]
    outcome = Outcome()
    speed = Speed(ctx)
    deployments, setup_times = _setup(plan, ctx, speed)
    configs = [(n, path, algorithm) for algorithm in plan["algorithms"]
               for n, path in deployments]

    walls: list[list[float]] = [[] for _ in configs]
    outputs: list[list[Path]] = [[] for _ in configs]
    timed: list[tuple[float, float, float]] = []  # (start, end, wall)
    peak_rss = 0.0
    t_start = perf_counter()
    i = 0
    while True:
        slot = i % len(configs)
        n, path, algorithm = configs[slot]
        out = ctx.work / f"out-{i}.json"
        t_op = perf_counter()
        run = run_child(
            ctx.repro("solve", str(path), "--algorithm", *algorithm,
                      "--out", str(out)),
            env=ctx.env, cwd=ctx.work, timeout=plan["timeout"],
            stdout_path=ctx.work / "solve.log")
        outcome.attempted += 1
        peak_rss = max(peak_rss, run.maxrss_mb)
        if run.returncode != 0 or run.timed_out or not out.exists():
            outcome.failed += 1
            outcome.notes.append(
                f"failed: solve n={n} {' '.join(algorithm)} exit "
                f"{run.returncode}{' (timeout)' if run.timed_out else ''}")
        else:
            walls[slot].append(run.wall)
            outputs[slot].append(out)
            timed.append((t_op, perf_counter(), run.wall))
        speed.due()
        i += 1
        if i % len(configs) == 0:  # only whole passes, so the mix is fixed
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / (i // len(configs)) > ctx.seconds:
                break
    speed.sample()

    from repro.graphs.udg import unit_disk_graph
    from repro.io import load_points, load_result

    rebuilt: dict[int, dict] = {}
    graph, graph_path = None, None
    backbone = 0
    for slot, (n, path, algorithm) in enumerate(configs):
        label = f"n={n} {' '.join(algorithm)}"
        if graph_path != path:
            graph, graph_path = None, path  # one large graph alive at a time
            graph = unit_disk_graph(load_points(path))
        first = None
        for out in outputs[slot]:
            if first is None:
                first = _check(graph, out, algorithm, outcome, label)
                backbone += len(first) if first is not None else 0
            else:
                outcome.check(load_result(out).nodes == first,
                              f"{label}: repeated invocation changed the backbone")
        if ctx.trace:
            out = ctx.work / f"rebuilt-{slot}.json"
            report = _rebuild(ctx, path, out, algorithm)
            rebuilt[slot] = report
            outcome.check(report["valid"], f"{label}: phase rebuild is invalid")
            if first is not None:
                outcome.check(load_result(out).nodes == first,
                              f"{label}: the phase rebuild disagrees with the CLI")
    graph = None

    samples = [w for per in walls for w in per]
    if not samples:
        outcome.violations.append("no invocation succeeded")
        return outcome
    pct, tail_value = tail(samples)
    mean_wall = sum(samples) / len(samples)
    scaled = [wall / speed.factor(start, end) for start, end, wall in timed]
    outcome.end_to_end = {
        "setup_s": median(setup_times),
        "p50_ms": 1e3 * median(scaled),
        "tail_ms": 1e3 * tail(scaled)[1],
        "throughput_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss,
        "backbone_nodes": float(backbone),
    }
    outcome.notes.append(speed.note())
    if name == "cli-small":
        outcome.notes += [
            f"cli_p50_s = {median(samples):.4f} s as measured ({len(samples)} "
            "invocations)",
            f"cli_tail_s = {tail_value:.4f} s as measured (p{pct:.1f} of "
            f"{len(samples)})",
        ]
    else:
        outcome.notes += [
            f"solve_s = {mean_wall:.3f} s as measured (mean of {len(samples)} "
            "solves)",
            f"peak_rss_mb = {peak_rss:.1f} MB (largest single solve process)",
        ]
    outcome.notes.append(f"backbone_nodes = {backbone} (sum of |CDS|)")
    if ctx.trace:
        outcome.per_layer = _layers(ctx, configs, walls, rebuilt, outcome)
    return outcome


def _layers(ctx, configs, walls, rebuilt: dict, outcome: Outcome) -> dict:
    """Charge each invocation's median wall time to start, import, the
    rebuilt phases and an explicit unattributed residual."""
    probe = import_probe(ctx)
    layers = dict(probe)
    totals = dict.fromkeys(PHASES, 0.0)
    kernels = {"IndexedGraph": 0, "BitsetGraph": 0, "ArrayGraph": 0}
    counts = {"edges": 0, "dominators": 0, "connectors": 0, "gain_evaluations": 0}
    wall_sum = attributed_sum = spans = 0.0
    for slot, (n, _, algorithm) in enumerate(configs):
        if slot not in rebuilt or not walls[slot]:
            continue
        report = rebuilt[slot]
        for key in counts:
            counts[key] += report[key]
        if report["kernel"]:
            kernels[report["kernel"]] += 1
        phases: dict[str, float] = {}
        for span_name, seconds in report["spans"]:
            phases[span_name] = phases.get(span_name, 0.0) + seconds
            totals[span_name] += seconds
        spans += len(report["spans"])
        wall = median(walls[slot])
        parts = [probe["cli.start_s"], probe["cli.import_s"], *phases.values()]
        unattributed, _ = residual(wall, parts)
        wall_sum += wall
        attributed_sum += sum(parts)
        outcome.notes.append(
            f"n={n} {' '.join(algorithm)}: wall {wall:.4f} s = start "
            f"{probe['cli.start_s']:.4f} + import {probe['cli.import_s']:.4f} + "
            + " + ".join(f"{k} {v:.4f}" for k, v in phases.items())
            + f" + unattributed {unattributed:.4f}")
    unattributed, share = residual(wall_sum, [attributed_sum])
    layers.update({f"{phase}_s": seconds for phase, seconds in totals.items()})
    layers.update({
        "graphs.udg.edges": float(counts["edges"]),
        "graphs.backend.kernel_indexed": float(kernels["IndexedGraph"]),
        "graphs.backend.kernel_bitset": float(kernels["BitsetGraph"]),
        "graphs.backend.kernel_array": float(kernels["ArrayGraph"]),
        "mis.selected": float(counts["dominators"]),
        "cds.connectors": float(counts["connectors"]),
        "cds.gain_evaluations": float(counts["gain_evaluations"]),
        "unattributed_s": unattributed,
        "attributed_share": share,
        "obs.trace_overhead_share":
            span_cost() * spans / sum(totals.values()),
    })
    return layers
