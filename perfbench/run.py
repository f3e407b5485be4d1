"""End-to-end benchmark of the CDS pipeline, run from outside the program.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``cli-small``   -- sequential ``python -m repro solve`` at n = 60/150/1000;
* ``solve-large`` -- ``python -m repro solve`` on one 10^5-node deployment;
* ``sweep-grid``  -- checkpointed ``python -m repro sweep --jobs 2`` grids;
* ``serve-mixed`` -- ``python -m repro serve`` daemons driven open-loop.

``BENCHMARK.json`` lists the last three; ``cli-small`` runs on request.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same work and adds an in-process decomposition of it, timed around the
calls into each layer, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it name
every metric with its unit.  Every output is checked; a violation
makes the exit code 1.  Without the program's sources next to this
directory the benchmark exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import Outcome, child_env  # noqa: E402

WORKLOADS = ("cli-small", "solve-large", "sweep-grid", "serve-mixed")


@dataclass
class Context:
    """Everything a workload needs: where to run, what to run, how long."""

    work: Path
    seed: int
    seconds: float
    trace: bool
    env: dict
    python: str = sys.executable

    def repro(self, *args: str) -> list[str]:
        return [self.python, "-m", "repro", *args]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_workload(name: str, ctx: Context) -> Outcome:
    if name in ("cli-small", "solve-large"):
        from solve_wl import run_solve

        return run_solve(name, ctx)
    if name == "sweep-grid":
        from sweep_wl import run_sweep

        return run_sweep(ctx)
    from serve_wl import run_serve

    return run_serve(ctx)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources at {src}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    sys.path.insert(0, str(src))

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(work=work, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  env=child_env(src))
    try:
        outcome = _run_workload(args.workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    group = "per_layer" if ctx.trace else "end_to_end"
    measured = outcome.per_layer if ctx.trace else outcome.end_to_end
    metrics = {}
    for entry in spec[group]:
        name = entry["name"]
        if ctx.trace and name not in measured:
            measured[name] = 0.0  # a layer this workload does not exercise
        if not math.isfinite(measured.get(name, math.nan)):
            outcome.violations.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": measured[name], "unit": entry["unit"]}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {int(ctx.trace)}  "
          f"machine {json.dumps(_machine(), sort_keys=True)}")
    for line in outcome.notes:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"failed_share = {share:.4f} ({outcome.failed} of "
          f"{outcome.attempted} operations)")
    for violation in outcome.violations:
        print(f"VIOLATION: {violation}")
    correct = not outcome.violations and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
