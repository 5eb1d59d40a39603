"""Tests for the parallel sweep runner and its on-disk cache."""

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.sweep import (
    SweepCell,
    cell_key,
    compute_cell,
    grid,
    partition_cells,
    run_sweep,
    run_sweep_summarized,
)


def small_cells():
    return grid(
        "random_regular",
        ["linial_vectorized", "classic_vectorized", "greedy_vectorized"],
        [48, 72],
        seeds=[0],
        extra_family_params={"degree": 4},
    )


class TestCells:
    def test_key_is_stable_and_param_order_independent(self):
        a = SweepCell.make("ring", {"n": 10}, "linial_vectorized", {"defect": 1})
        b = SweepCell.make("ring", {"n": 10}, "linial_vectorized", {"defect": 1})
        assert cell_key(a) == cell_key(b)
        c = SweepCell(
            family="ring",
            family_params=(("n", 10),),
            algorithm="linial_vectorized",
            algo_params=(("defect", 1),),
        )
        assert cell_key(c) == cell_key(a)

    def test_key_separates_specs(self):
        base = SweepCell.make("ring", {"n": 10}, "linial_vectorized")
        keys = {
            cell_key(base),
            cell_key(SweepCell.make("ring", {"n": 11}, "linial_vectorized")),
            cell_key(SweepCell.make("ring", {"n": 10}, "classic_vectorized")),
            cell_key(SweepCell.make("path", {"n": 10}, "linial_vectorized")),
        }
        assert len(keys) == 4

    def test_compute_cell_record_shape(self):
        rec = compute_cell(SweepCell.make("ring", {"n": 30}, "linial_vectorized"))
        assert rec["n"] == 30 and rec["m"] == 30 and rec["delta"] == 2
        assert rec["valid"] is True
        assert rec["metrics"]["rounds"] >= 1
        assert rec["key"] == cell_key(
            SweepCell.make("ring", {"n": 30}, "linial_vectorized")
        )

    def test_reference_algorithms_run_too(self):
        rec = compute_cell(
            SweepCell.make("random_regular", {"n": 24, "degree": 3, "seed": 1}, "thm14")
        )
        assert rec["valid"] is True and rec["metrics"] is not None

    def test_defective_split_validates_against_its_defect(self):
        rec = compute_cell(
            SweepCell.make(
                "random_regular",
                {"n": 48, "degree": 6, "seed": 3},
                "defective_split",
                {"defect": 2},
            )
        )
        assert rec["valid"] is True and rec["palette"] is not None


class TestPartitioning:
    def test_deterministic_round_robin(self):
        cells = small_cells()
        p1 = partition_cells(cells, 3)
        p2 = partition_cells(list(reversed(cells)), 3)
        assert p1 == p2  # order of input never changes the assignment
        flat = [c for batch in p1 for c in batch]
        assert sorted(map(cell_key, flat)) == sorted(map(cell_key, cells))

    def test_more_workers_than_cells(self):
        cells = small_cells()[:2]
        parts = partition_cells(cells, 5)
        assert sum(len(p) for p in parts) == 2

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            partition_cells(small_cells(), 0)


class TestRunSweep:
    def test_second_invocation_skips_cached_cells(self, tmp_path):
        cells = small_cells()
        first = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert first.computed == len(cells) and first.cached == 0
        second = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert second.computed == 0 and second.cached == len(cells)
        # cached records are byte-identical reads of what was stored
        for a, b in zip(first.results, second.results):
            assert a.data == b.data

    def test_partial_cache_only_computes_missing(self, tmp_path):
        cells = small_cells()
        run_sweep(cells[:3], cache_dir=tmp_path, workers=1)
        summary = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert summary.cached == 3
        assert summary.computed == len(cells) - 3

    def test_recompute_overrides_cache(self, tmp_path):
        cells = small_cells()[:2]
        run_sweep(cells, cache_dir=tmp_path, workers=1)
        summary = run_sweep_summarized(
            cells, cache_dir=tmp_path, workers=1, recompute=True
        )
        assert summary.computed == 2 and summary.cached == 0

    def test_results_in_caller_order(self, tmp_path):
        cells = small_cells()
        results = run_sweep(cells, cache_dir=tmp_path, workers=1)
        assert [r.cell for r in results] == cells

    def test_parallel_equals_inline(self, tmp_path):
        def strip_clock(data):
            # wall-clock and batching-provenance fields legitimately
            # differ between runs / worker counts
            out = {
                k: v
                for k, v in data.items()
                if k not in ("wall_s", "timings", "batched_with")
            }
            if out.get("run_record") is not None:
                out["run_record"] = {
                    k: v for k, v in out["run_record"].items() if k != "timings"
                }
            return out

        cells = small_cells()
        inline = run_sweep(cells, cache_dir=None, workers=1)
        parallel = run_sweep(cells, cache_dir=None, workers=2)
        for a, b in zip(inline, parallel):
            assert strip_clock(a.data) == strip_clock(b.data)

    def test_no_cache_dir_always_computes(self):
        cells = small_cells()[:2]
        s1 = run_sweep_summarized(cells, cache_dir=None, workers=1)
        s2 = run_sweep_summarized(cells, cache_dir=None, workers=1)
        assert s1.computed == 2 and s2.computed == 2

    def test_duplicate_cells_computed_once(self, tmp_path):
        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        results = run_sweep([cell, cell], cache_dir=tmp_path, workers=1)
        assert len(results) == 1


class TestCacheSchema:
    def test_records_carry_current_schema(self, tmp_path):
        from repro.experiments.sweep import SWEEP_CACHE_SCHEMA, load_cached_detailed

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        cached, status = load_cached_detailed(tmp_path, cell)
        assert status == "hit"
        assert cached["schema"] == SWEEP_CACHE_SCHEMA

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        from repro.experiments.sweep import SWEEP_CACHE_SCHEMA, load_cached_detailed

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        path = tmp_path / f"{cell_key(cell)}.json"
        record = json.loads(path.read_text())
        record["schema"] = SWEEP_CACHE_SCHEMA + 1  # simulate a code bump
        path.write_text(json.dumps(record))
        assert load_cached_detailed(tmp_path, cell) == (None, "stale")
        # the sweep recomputes (and rewrites) rather than serving stale data
        summary = run_sweep_summarized([cell], cache_dir=tmp_path, workers=1)
        assert summary.computed == 1 and summary.cached == 0
        assert load_cached_detailed(tmp_path, cell)[1] == "hit"

    def test_pre_versioning_record_is_a_miss(self, tmp_path):
        from repro.experiments.sweep import load_cached_detailed

        cell = SweepCell.make("ring", {"n": 24}, "linial_vectorized")
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        path = tmp_path / f"{cell_key(cell)}.json"
        record = json.loads(path.read_text())
        del record["schema"]  # records from before the field existed
        path.write_text(json.dumps(record))
        assert load_cached_detailed(tmp_path, cell) == (None, "stale")

    def test_run_record_attached_for_observable_paths(self, tmp_path):
        from repro.obs import OBS_SCHEMA_VERSION

        rec = compute_cell(SweepCell.make("ring", {"n": 24}, "linial_vectorized"))
        assert rec["run_record"] is not None
        assert rec["run_record"]["schema"] == OBS_SCHEMA_VERSION
        assert rec["run_record"]["engine"] == "vectorized"
        assert set(rec["timings"]) >= {"csr_build", "rounds", "graph", "cell_validate"}
        # registry-only algorithms attach no record, only the cell's clocks
        rec = compute_cell(
            SweepCell.make("random_regular", {"n": 24, "degree": 3, "seed": 1}, "thm14")
        )
        assert rec["run_record"] is None
        assert set(rec["timings"]) == {"graph", "cell_validate"}


class TestAnalysisBridge:
    def test_sweep_result_from_cells(self, tmp_path):
        from repro.analysis.sweeps import sweep_result_from_cells

        cells = grid("ring", ["linial_vectorized"], [32, 64], seeds=[0])
        records = [r.data for r in run_sweep(cells, cache_dir=tmp_path, workers=1)]
        res = sweep_result_from_cells(records, x_param="n", metric="rounds")
        assert res.xs() == [32.0, 64.0]
        assert res.complete()
        colors = sweep_result_from_cells(records, x_param="n", metric="colors")
        assert all(p.samples for p in colors.points)


class TestCLI:
    def test_sweep_command_caches_across_invocations(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--family", "ring",
            "--n", "40,80",
            "--algorithms", "linial_vectorized,classic_vectorized",
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "1",
            "--output", str(tmp_path / "sweep.json"),
        ]
        assert cli_main(argv) == 0
        out1 = capsys.readouterr().out
        assert "4 cells (4 computed, 0 cached)" in out1
        assert cli_main(argv) == 0
        out2 = capsys.readouterr().out
        assert "4 cells (0 computed, 4 cached)" in out2
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["cached"] == 4 and len(payload["cells"]) == 4
        assert all(c["valid"] for c in payload["cells"])


def graph_snapshot(graph):
    """Everything a sweep path could mutate on a shared graph: nodes,
    edges and adjacency in iteration order, plus graph/node/edge
    attributes (deep-copied so later in-place edits show)."""
    import copy

    return copy.deepcopy(
        (
            type(graph),
            list(graph.nodes(data=True)),
            list(graph.edges(data=True)),
            [(u, list(graph.adj[u])) for u in graph],
            dict(graph.graph),
        )
    )


def spy_family(monkeypatch):
    """Record every graph ``repro.graphs.family`` builds with its
    snapshot at build time."""
    import repro.graphs as graphs_mod

    built = []
    real = graphs_mod.family

    def family(name, **params):
        graph = real(name, **params)
        built.append((graph, graph_snapshot(graph)))
        return graph

    monkeypatch.setattr(graphs_mod, "family", family)
    return built


class TestSharedRecipes:
    RECIPE = {"n": 30, "degree": 4, "seed": 2}

    def test_computed_cell_written_once_and_hit_on_rerun(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import sweep as sweep_mod

        cells = grid(
            "random_regular",
            ["linial_vectorized", "fk24_vectorized", "linial", "thm14"],
            [24],
            seeds=[0, 1],
            extra_family_params={"degree": 3},
        )
        writes = []
        real = sweep_mod.store_cached

        def store(cache_dir, record):
            writes.append(record["key"])
            return real(cache_dir, record)

        monkeypatch.setattr(sweep_mod, "store_cached", store)
        first = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert first.computed == len(cells)
        assert sorted(writes) == sorted(cell_key(c) for c in cells)
        writes.clear()
        again = run_sweep_summarized(cells, cache_dir=tmp_path, workers=1)
        assert again.cached == len(cells) and writes == []
        assert [r.cache_status for r in again.results] == ["hit"] * len(cells)
        assert [r.data for r in again.results] == [r.data for r in first.results]

    def test_no_sweep_path_mutates_the_shared_graph(self, monkeypatch):
        """Every sweep algorithm, two cells each (so batchable ones take
        the batched path), on one shared recipe: the graph must come out
        exactly as the generator built it."""
        from repro.experiments.sweep import _compute_batch, algorithm_names

        built = spy_family(monkeypatch)
        specs = []
        for algorithm in algorithm_names():
            for rep in range(2):
                params = {"rep": rep}
                if "faulty" in algorithm or algorithm == "linial_resilient":
                    params["faults"] = {"seed": 3, "p_drop": 0.1}
                specs.append(
                    SweepCell.make(
                        "random_regular", self.RECIPE, algorithm, params
                    ).spec()
                )
        records = _compute_batch(specs)
        assert [r["status"] for r in records] == ["ok"] * len(specs)
        assert all(r["valid"] for r in records)
        assert len(built) == 1
        graph, before = built[0]
        assert graph_snapshot(graph) == before

    def test_batch_builds_each_recipe_and_csr_once(self, monkeypatch):
        from repro.experiments.sweep import _compute_batch
        from repro.sim.engine import CSRGraph

        cells = [
            SweepCell.make(
                "random_regular", {"n": 40, "degree": 4, "seed": seed}, algorithm
            )
            for seed in (0, 1)
            for algorithm in ("linial_vectorized", "fk24_vectorized")
        ]
        built = spy_family(monkeypatch)
        freezes = []
        real_freeze = CSRGraph.__dict__["from_networkx"].__func__

        def from_networkx(cls, graph):
            freezes.append(graph)
            return real_freeze(cls, graph)

        monkeypatch.setattr(CSRGraph, "from_networkx", classmethod(from_networkx))
        records = _compute_batch([c.spec() for c in cells])
        assert len(built) == 2 and len(freezes) == 2
        assert {id(g) for g in freezes} == {id(g) for g, _ in built}
        # one cell of each recipe pays for its graph, the other reuses it
        graph_s = [r["timings"]["graph"] for r in records]
        for pair in (graph_s[:2], graph_s[2:]):
            assert min(pair) == 0.0 and max(pair) > 0
        assert all(r["timings"]["cell_validate"] > 0 for r in records)

        def clock_free(record):
            # batched_with counts the cells sharing one batched engine
            # invocation: 2 here, 1 for a lone compute_cell
            out = {
                k: v
                for k, v in record.items()
                if k not in ("wall_s", "timings", "batched_with")
            }
            out["run_record"] = {
                k: v for k, v in out["run_record"].items() if k != "timings"
            }
            return out

        for cell, record in zip(cells, records):
            assert clock_free(record) == clock_free(compute_cell(cell))

    def test_group_that_raises_still_builds_each_recipe_once(self, monkeypatch):
        import repro.experiments.sweep as sweep_mod

        cells = [
            SweepCell.make(
                "random_regular", {"n": 40, "degree": 4, "seed": seed}, algorithm
            )
            for seed in (0, 1)
            for algorithm in ("linial_vectorized", "fk24_vectorized")
        ]

        def broken(algorithm, built):
            raise RuntimeError("batched engine down")

        monkeypatch.setattr(sweep_mod, "_run_batched", broken)
        built = spy_family(monkeypatch)
        records = sweep_mod._compute_batch([c.spec() for c in cells])
        # both groups fell back to compute_cell, which reused the graphs
        # the groups had built instead of generating them again
        assert [r["status"] for r in records] == ["ok"] * 4
        assert [r["batched_with"] for r in records] == [1] * 4
        assert len(built) == 2
