"""Deployments the benchmark generates from its ``--seed``.

The program under test receives only these files and request specs;
they are drawn with numpy and checked for UDG connectivity with scipy,
not with the program's own generators.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

#: Rejection-sampling budget: n = 60 at side 6.2 is connected about 2 % of
#: the time, so this fails with probability below 1e-15.
MAX_ATTEMPTS = 2000


def udg_pairs(xy: np.ndarray) -> np.ndarray:
    """Index pairs at distance <= 1 (the program adds a tiny tolerance)."""
    return cKDTree(xy).query_pairs(1.0, output_type="ndarray")


def is_connected(xy: np.ndarray, pairs: np.ndarray) -> bool:
    n = len(xy)
    if n <= 1:
        return True
    adjacency = coo_matrix(
        (np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
        shape=(n, n),
    )
    count, _ = connected_components(adjacency, directed=False)
    return count == 1


def connected_deployment(n: int, side: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(points, udg_pairs)`` of a connected uniform deployment."""
    for _ in range(MAX_ATTEMPTS):
        xy = rng.uniform(0.0, side, size=(n, 2))
        pairs = udg_pairs(xy)
        if is_connected(xy, pairs):
            return xy, pairs
    raise RuntimeError(f"no connected deployment of {n} nodes in side {side}")


def write_csv(xy: np.ndarray, path: Path) -> None:
    """The ``x,y`` CSV the program's ``load_points`` reads, exact floats."""
    rows = "".join(f"{x!r},{y!r}\n" for x, y in xy.tolist())
    path.write_text("x,y\n" + rows)
