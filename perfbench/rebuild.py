"""One ``python -m repro solve`` invocation rebuilt from its public phases.

Run in a fresh interpreter, as the CLI is, so the phases meet the same
process state::

    python3 perfbench/rebuild.py <deployment.csv> <out.json> greedy
    python3 perfbench/rebuild.py <deployment.csv> <out.json> mfold-greedy --m 2

Each phase -- ``load_points``, ``unit_disk_graph``, ``is_connected``,
``build_kernel``, the first-fit MIS, the connectors, ``CDSResult.is_valid``
and ``save_result`` -- runs inside one span.  The result is written to
``out.json`` like the CLI's ``--out``; the last line of standard output is
a JSON report of the span durations and the work counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import Tracer


def _rebuild(tracer: Tracer, csv: Path, algorithm: tuple, out: Path):
    """The solver rebuilt from its public phases, one span per phase."""
    from repro.cds.base import CDSResult
    from repro.cds.greedy_connector import greedy_connectors
    from repro.cds.mfold import mfold_greedy_cds
    from repro.cds.waf import waf_connectors
    from repro.graphs.backend import build_kernel
    from repro.graphs.bitset import BitsetGraph
    from repro.graphs.traversal import is_connected
    from repro.graphs.udg import unit_disk_graph
    from repro.io import load_points, save_result
    from repro.mis.first_fit import first_fit_mis, first_fit_mis_nodes
    from repro.obs import OBS

    kernel = None
    with OBS.capture() as registry:
        with tracer.span("io.load_points"):
            points = load_points(csv)
        with tracer.span("graphs.udg.build"):
            graph = unit_disk_graph(points)
        with tracer.span("graphs.traversal.is_connected"):
            if not is_connected(graph):
                raise ValueError(f"{csv.name}: deployment is disconnected")
        name = algorithm[0]
        if name == "mfold-greedy":
            with tracer.span("cds.mfold"):
                result = mfold_greedy_cds(graph, m=int(algorithm[2]))
        elif name == "greedy":
            with tracer.span("graphs.backend.build_kernel"):
                index = build_kernel(graph, "auto")
                if isinstance(index, BitsetGraph):
                    index.neighbor_masks  # the solver forces the bulk build
            kernel = type(index).__name__
            with tracer.span("mis.first_fit"):
                dominators = first_fit_mis_nodes(graph, None, index=index)
            with tracer.span("cds.connectors"):
                connectors, gains, q_values = greedy_connectors(
                    graph, dominators, "min", index)
            result = CDSResult(
                algorithm="greedy-connector",
                nodes=frozenset(dominators) | frozenset(connectors),
                dominators=dominators, connectors=tuple(connectors),
                meta={"root": min(graph.nodes()), "gain_history": tuple(gains),
                      "q_history": tuple(q_values)})
        else:
            with tracer.span("graphs.backend.build_kernel"):
                index = build_kernel(graph, "auto", auto_bitset=False)
            kernel = type(index).__name__
            with tracer.span("mis.first_fit"):
                mis = first_fit_mis(graph, None, "bfs", index=index)
            with tracer.span("cds.connectors"):
                connectors = waf_connectors(graph, mis, index)
            result = CDSResult(
                algorithm="waf",
                nodes=frozenset(mis.nodes) | frozenset(connectors),
                dominators=tuple(mis.nodes), connectors=tuple(connectors),
                meta={"root": mis.tree.root,
                      "s": connectors[0] if connectors else None})
        with tracer.span("graphs.properties.validate"):
            valid = result.is_valid(graph)
        with tracer.span("io.save_result"):
            save_result(result, out)
        counters = registry.counters()
    return graph, result, valid, kernel, counters


def main(argv: list[str]) -> int:
    csv, out, algorithm = Path(argv[0]), Path(argv[1]), tuple(argv[2:])
    tracer = Tracer()
    graph, result, valid, kernel, counters = _rebuild(tracer, csv, algorithm, out)
    print(json.dumps({
        "spans": [[name, end - start] for name, start, end, _ in tracer.spans],
        "valid": valid,
        "kernel": kernel,
        "edges": graph.edge_count(),
        "dominators": len(result.dominators),
        "connectors": len(result.connectors),
        "gain_evaluations": counters.get("gain.evaluations", 0),
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
