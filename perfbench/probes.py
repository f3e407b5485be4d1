"""Interpreter start and ``import repro.cli`` cost, measured in fresh children."""

from __future__ import annotations

import json

from common import median, run_child

REPEATS = 3

_IMPORT = (
    "import json, sys, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "print(json.dumps({'import_s': time.perf_counter() - t0,"
    " 'numpy': 'numpy' in sys.modules}))\n"
)


def import_probe(ctx) -> dict[str, float]:
    """``cli.start_s``, ``cli.import_s`` and ``cli.numpy_loaded``."""
    starts, imports, numpy_loaded = [], [], []
    for _ in range(REPEATS):
        start = run_child([ctx.python, "-c", "pass"], env=ctx.env,
                          cwd=ctx.work, timeout=30.0,
                          stdout_path=ctx.work / "probe.log")
        starts.append(start.wall)
        probe = run_child([ctx.python, "-c", _IMPORT], env=ctx.env,
                          cwd=ctx.work, timeout=30.0,
                          stdout_path=ctx.work / "probe.log")
        if probe.returncode != 0:
            raise RuntimeError(f"import probe failed: {probe.stdout}")
        report = json.loads(probe.stdout.strip().splitlines()[-1])
        imports.append(report["import_s"])
        numpy_loaded.append(report["numpy"])
    return {
        "cli.start_s": median(starts),
        "cli.import_s": median(imports),
        "cli.numpy_loaded": float(all(numpy_loaded)),
    }
