"""Tests for deployment / result persistence."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cds import greedy_connector_cds
from repro.geometry import Point
from repro.graphs import random_connected_udg, unit_disk_graph
from repro.io import load_points, load_result, save_points, save_result


class TestPointsRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        pts, _ = random_connected_udg(15, 3.0, seed=1)
        path = tmp_path / "deploy.csv"
        save_points(pts, path)
        assert load_points(path) == pts

    def test_topology_survives_roundtrip(self, tmp_path):
        pts, g = random_connected_udg(20, 4.0, seed=2)
        path = tmp_path / "deploy.csv"
        save_points(pts, path)
        g2 = unit_disk_graph(load_points(path))
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(e) for e in g2.edges()
        }

    def test_empty_deployment(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_points([], path)
        assert load_points(path) == []

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError):
            load_points(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0\n")
        with pytest.raises(ValueError):
            load_points(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\nfoo,bar\n")
        with pytest.raises(ValueError):
            load_points(path)


class TestResultRoundtrip:
    def test_point_node_result(self, tmp_path):
        _, g = random_connected_udg(18, 3.8, seed=3)
        result = greedy_connector_cds(g)
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.algorithm == result.algorithm
        assert back.nodes == result.nodes
        assert set(back.dominators) == set(result.dominators)
        assert back.is_valid(g)

    def test_int_node_result(self, tmp_path, path5):
        from repro.cds import CDSResult

        result = CDSResult(algorithm="manual", nodes=frozenset([1, 2, 3]))
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.nodes == frozenset([1, 2, 3])
        assert back.is_valid(path5)

    def test_meta_json_serializable_kept(self, tmp_path, path5):
        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="manual",
            nodes=frozenset([1, 2, 3]),
            meta={"note": "hello", "weird": object()},
        )
        path = tmp_path / "result.json"
        save_result(result, path)
        back = load_result(path)
        assert back.meta == {"note": "hello"}  # unserializable dropped


class TestCLICSVExport:
    def test_csv_written(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["F1F2", "--csv", str(tmp_path / "out")]) == 0
        files = sorted((tmp_path / "out").glob("*.csv"))
        assert len(files) == 2
        assert files[0].read_text().startswith("instance,")


def reference_text(result) -> str:
    """What ``save_result`` must write: the ``json.dumps(indent=2)`` bytes
    of the payload, built the plain way."""
    import json

    from repro.io import _point_to_obj

    meta = {}
    for key, value in result.meta.items():
        try:
            json.dumps(value)
        except TypeError:
            continue
        meta[key] = value
    payload = {
        "algorithm": result.algorithm,
        "nodes": [_point_to_obj(v) for v in sorted(result.nodes)],
        "dominators": [_point_to_obj(v) for v in result.dominators],
        "connectors": [_point_to_obj(v) for v in result.connectors],
        "meta": meta,
    }
    return json.dumps(payload, indent=2) + "\n"


#: Floats whose shortest repr exercises every spelling json can produce.
AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1.5e-07, 0.1 + 0.2, -123.456, 2.0**70]


class TestSaveResultGolden:
    """``save_result`` writes Point lists itself; the bytes must be
    exactly those of the reference encoder."""

    def check(self, tmp_path, result):
        path = tmp_path / "result.json"
        save_result(result, path)
        assert path.read_bytes() == reference_text(result).encode()
        return path

    def test_solver_result(self, tmp_path):
        _, g = random_connected_udg(40, 5.0, seed=11)
        result = greedy_connector_cds(g)
        self.check(tmp_path, result)

    def test_awkward_floats(self, tmp_path):
        from repro.cds import CDSResult

        pts = [Point(x, y) for x in AWKWARD_FLOATS for y in AWKWARD_FLOATS[::-1]]
        pts = list(dict.fromkeys(pts))  # -0.0 == 0.0: one Point
        result = CDSResult(
            algorithm="manual",
            nodes=frozenset(pts),
            dominators=tuple(pts[::2]),
            connectors=tuple(pts[1::2]),
            meta={"history": [1, 2.5, None], "nested": {"a": [0.1 + 0.2]}},
        )
        path = self.check(tmp_path, result)
        back = load_result(path)
        assert back.connectors == result.connectors
        assert [(p.x, p.y) for p in back.dominators] == [
            (p.x, p.y) for p in result.dominators
        ]

    def test_int_nodes(self, tmp_path):
        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="manual",
            nodes=frozenset([3, 1, 2]),
            dominators=(1, 3),
            connectors=(2,),
        )
        self.check(tmp_path, result)

    def test_tuple_nodes(self, tmp_path):
        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="manual", nodes=frozenset([(0, 1), (2.5, -0.0), (1, 1)])
        )
        self.check(tmp_path, result)

    def test_empty_lists_and_unicode(self, tmp_path):
        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="gréedy", nodes=frozenset(), meta={"note": "✓"}
        )
        self.check(tmp_path, result)

    def test_int_and_non_finite_coordinates_fall_back(self, tmp_path):
        from repro.cds import CDSResult

        for pts in (
            [Point(1, 2), Point(0.5, 0.25)],
            [Point(float("nan"), 0.0), Point(1.0, 2.0)],
            [Point(float("inf"), 0.0), Point(1.0, float("-inf"))],
        ):
            result = CDSResult(
                algorithm="manual", nodes=frozenset(pts), connectors=tuple(pts)
            )
            self.check(tmp_path, result)

    @pytest.mark.parametrize(
        "nodes",
        [
            [Point(0.5, 1.5), 3, (1, 2)],
            [7, Point(0.1 + 0.2, -0.0)],
            [Point(1.0, 2.0), "label", None, 2.5],
            [(0.1, 0.2), Point(5e-324, 1e16)],
        ],
    )
    def test_mixed_node_lists_match_json(self, nodes):
        import json

        from repro.io import _nodes_json, _point_to_obj

        expected = json.dumps({"k": [_point_to_obj(v) for v in nodes]}, indent=2)
        assert '{\n  "k": ' + _nodes_json(nodes) + "\n}" == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(Point, st.floats(), st.floats()), max_size=12, unique=True
        )
    )
    def test_any_float_points(self, pts):
        import tempfile
        from pathlib import Path

        from repro.cds import CDSResult

        result = CDSResult(
            algorithm="manual", nodes=frozenset(pts), connectors=tuple(pts)
        )
        with tempfile.TemporaryDirectory() as tmp:
            self.check(Path(tmp), result)
