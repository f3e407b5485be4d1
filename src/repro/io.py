"""Persistence: deployments and CDS results on disk.

A downstream user wants to pin down the exact instance a result came
from.  Deployments (point sets) are stored as two-column CSV; results
as JSON carrying the algorithm label, the node set and the phase split.
Round-tripping is exact: coordinates are written with ``repr`` so
``float`` survives bit-for-bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .geometry.point import Point
from .cds.base import CDSResult

__all__ = [
    "save_points",
    "load_points",
    "save_result",
    "load_result",
]


def save_points(points: Iterable[Point], path: str | Path) -> None:
    """Write a deployment as ``x,y`` CSV (with header)."""
    lines = ["x,y"]
    for p in points:
        lines.append(f"{p.x!r},{p.y!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_points(path: str | Path) -> list[Point]:
    """Read a deployment written by :func:`save_points`.

    Raises:
        ValueError: on a malformed file.
    """
    text = Path(path).read_text().strip()
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "x,y":
        raise ValueError(f"{path}: expected 'x,y' header")
    points: list[Point] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns")
        try:
            points.append(Point(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return points


def _point_to_obj(node) -> object:
    if isinstance(node, Point):
        return {"x": node.x, "y": node.y}
    return node


def _obj_to_node(obj: object):
    if isinstance(obj, dict) and set(obj) == {"x", "y"}:
        return Point(float(obj["x"]), float(obj["y"]))
    if isinstance(obj, list):  # JSON has no tuples
        return tuple(obj)
    return obj


def _nested_json(value: object) -> str:
    """``json.dumps(value, indent=2)`` as a value of the top-level object
    (one level deeper: JSON text holds no raw newline but its own)."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _nodes_json(nodes: Sequence) -> str:
    """:func:`_nested_json` of a node list, fast for Points.

    With ``indent`` set, CPython's ``json`` takes its pure-Python
    encoder.  A list of Points with finite ``float`` coordinates is
    written directly instead, in the same layout — ``repr`` is exactly
    how ``json`` spells a finite float — and anything else (other node
    types, int or non-finite coordinates) goes through ``json.dumps``.
    """
    if not nodes:
        return "[]"
    items = []
    isfinite = math.isfinite
    for node in nodes:
        if type(node) is not Point:
            break
        x, y = node.x, node.y
        if type(x) is not float or type(y) is not float:
            break
        if not (isfinite(x) and isfinite(y)):
            break
        items.append(f'    {{\n      "x": {x!r},\n      "y": {y!r}\n    }}')
    else:
        return "[\n" + ",\n".join(items) + "\n  ]"
    return _nested_json([_point_to_obj(v) for v in nodes])


def save_result(result: CDSResult, path: str | Path) -> None:
    """Write a :class:`CDSResult` as JSON.

    The bytes are those of ``json.dumps(payload, indent=2) + "\n"``;
    the node lists are written by :func:`_nodes_json`, everything else
    by ``json`` itself.  ``meta`` is stored only where
    JSON-serializable; unserializable entries are dropped (they are run
    diagnostics, not results).
    """
    meta = {}
    for key, value in result.meta.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        meta[key] = value
    fields = [
        ("algorithm", _nested_json(result.algorithm)),
        ("nodes", _nodes_json(sorted(result.nodes))),
        ("dominators", _nodes_json(result.dominators)),
        ("connectors", _nodes_json(result.connectors)),
        ("meta", _nested_json(meta)),
    ]
    body = ",\n".join(f'  "{key}": {text}' for key, text in fields)
    Path(path).write_text("{\n" + body + "\n}\n")


def load_result(path: str | Path) -> CDSResult:
    """Read a result written by :func:`save_result`."""
    payload = json.loads(Path(path).read_text())
    return CDSResult(
        algorithm=payload["algorithm"],
        nodes=frozenset(_obj_to_node(v) for v in payload["nodes"]),
        dominators=tuple(_obj_to_node(v) for v in payload["dominators"]),
        connectors=tuple(_obj_to_node(v) for v in payload["connectors"]),
        meta=dict(payload.get("meta", {})),
    )
