"""Serialization round-trip tests (repro.io)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ColorSpace, degree_plus_one_instance, uniform_instance
from repro.core.instance import random_list_defective_instance
from repro.core.validate import validate_ldc
from repro.graphs import gnp, ring
from repro.algorithms import solve_list_arbdefective
from repro.io import (
    coloring_from_dict,
    coloring_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_json,
    load_run,
    save_json,
    save_run,
)


def instances_equal(a, b) -> bool:
    return (
        a.directed == b.directed
        and sorted(a.graph.nodes) == sorted(b.graph.nodes)
        and sorted(map(tuple, map(sorted, a.graph.edges)))
        == sorted(map(tuple, map(sorted, b.graph.edges)))
        and a.space.size == b.space.size
        and a.space.offset == b.space.offset
        and a.lists == b.lists
        and a.defects == b.defects
    )


class TestInstanceRoundTrip:
    def test_undirected(self):
        inst = uniform_instance(ring(6), ColorSpace(4), range(4), 1)
        back = instance_from_dict(instance_to_dict(inst))
        assert instances_equal(inst, back)

    def test_directed(self):
        inst = uniform_instance(ring(6), ColorSpace(4), range(4), 1).to_oriented()
        back = instance_from_dict(instance_to_dict(inst))
        assert back.directed
        assert instances_equal(inst, back)

    def test_offset_space(self):
        inst = uniform_instance(ring(4), ColorSpace(3, offset=10), range(10, 13), 0)
        back = instance_from_dict(instance_to_dict(inst))
        assert back.space.offset == 10

    def test_file_round_trip(self, tmp_path):
        inst = degree_plus_one_instance(gnp(15, 0.3, seed=3))
        path = tmp_path / "inst.json"
        save_json(instance_to_dict(inst), path)
        assert instances_equal(inst, instance_from_dict(load_json(path)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_round_trip(self, seed):
        rng = random.Random(seed)
        inst = random_list_defective_instance(
            gnp(10, 0.4, seed=seed), ColorSpace(30), 4, 3, rng
        )
        assert instances_equal(inst, instance_from_dict(instance_to_dict(inst)))


class TestColoringRoundTrip:
    def test_plain(self):
        from repro.core.coloring import ColoringResult

        res = ColoringResult({0: 1, 1: 2})
        back = coloring_from_dict(coloring_to_dict(res))
        assert back.assignment == res.assignment
        assert back.orientation is None

    def test_with_orientation(self):
        from repro.core.coloring import ColoringResult, EdgeOrientation

        ori = EdgeOrientation({(0, 1), (2, 1)})
        res = ColoringResult({0: 1, 1: 2, 2: 1}, ori)
        back = coloring_from_dict(coloring_to_dict(res))
        assert back.orientation.arcs == ori.arcs


class TestRunRecord:
    def test_full_run_round_trip(self, tmp_path):
        g = gnp(15, 0.3, seed=5)
        inst = degree_plus_one_instance(g)
        res, metrics, _rep = solve_list_arbdefective(inst)
        path = tmp_path / "run.json"
        save_run(inst, res, metrics, path, info={"algorithm": "thm13"})
        inst2, res2, record = load_run(path)
        assert instances_equal(inst, inst2)
        assert res2.assignment == res.assignment
        assert record["info"]["algorithm"] == "thm13"
        assert record["metrics"]["rounds"] == metrics.rounds
        # the reloaded solution still validates against the reloaded instance
        validate_ldc(inst2, res2).raise_if_invalid()

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other"}')
        with pytest.raises(ValueError):
            load_run(path)


class TestEdgeList:
    def test_round_trip(self, tmp_path):
        from repro.io import load_graph_edgelist, save_graph_edgelist

        g = gnp(20, 0.2, seed=9)
        path = tmp_path / "g.edges"
        save_graph_edgelist(g, path)
        back = load_graph_edgelist(path)
        assert sorted(back.nodes) == sorted(g.nodes)
        assert sorted(map(tuple, map(sorted, back.edges))) == sorted(
            map(tuple, map(sorted, g.edges))
        )

    def test_isolated_nodes_preserved(self, tmp_path):
        import networkx as nx

        from repro.io import load_graph_edgelist, save_graph_edgelist

        g = nx.Graph()
        g.add_nodes_from(range(5))
        g.add_edge(0, 1)
        path = tmp_path / "g.edges"
        save_graph_edgelist(g, path)
        assert load_graph_edgelist(path).number_of_nodes() == 5

    def test_bad_line_rejected(self, tmp_path):
        from repro.io import load_graph_edgelist

        path = tmp_path / "bad.edges"
        path.write_text("0 1\njunk\n")
        with pytest.raises(ValueError):
            load_graph_edgelist(path)

    def test_cli_graph_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io import save_graph_edgelist

        g = ring(12)
        path = tmp_path / "ring.edges"
        save_graph_edgelist(g, path)
        rc = main(["color", "--graph-file", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=12" in out and "valid=True" in out
