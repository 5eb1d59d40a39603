"""The benchmark's own tests: contract, tiny runs, gates, trace fidelity.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.tracing import Tracer
from perfbench.workloads.fuzz import BATCH_SIZE, FuzzWorkload, expected_launches
from perfbench.workloads.partition import PartitionWorkload, ring_plus_matching_csr
from perfbench.workloads.serve import ServeWorkload
from perfbench.workloads.sweep import SweepWorkload

ROOT = harness.ROOT
SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_benchmark_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert sorted(WORKLOADS) == sorted(
        workloads.get(n).name for n in WORKLOADS
    )


def _run(workload: str, trace: int, cwd=ROOT) -> tuple[int, str, str]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, out, err = _run(workload, trace)
    assert code == 0, out + err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        report = json.loads(
            (ROOT / ".perfbench" / "results" / f"{workload}-tiny-seed5-trace1.json").read_text()
        )
        assert report["spans"], "the traced run recorded no spans"
        assert all(v["count"] >= 1 for v in report["spans"].values())


def test_run_without_the_program_fails_cleanly():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(
            ROOT / "perfbench",
            bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
        code, out, _ = _run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and out == ""


# ----------------------------------------------------------------------
# every correctness gate fails the run on a corrupted output
# ----------------------------------------------------------------------
def _run_in_process(workload) -> harness.RunResult:
    return harness.run_workload(workload, seed=7, seconds=0, trace=False, scale="tiny")


def test_sweep_gate_fails_the_run_on_an_invalid_coloring(monkeypatch):
    import repro.sim.vectorized as vectorized

    original = vectorized.linial_vectorized

    def one_color(*args, **kwargs):
        result, metrics, palette = original(*args, **kwargs)
        for v in result.assignment:
            result.assignment[v] = 0
        return result, metrics, palette

    monkeypatch.setattr(vectorized, "linial_vectorized", one_color)
    result = _run_in_process(SweepWorkload())
    assert not result.correct
    assert any("not valid" in f for f in result.report["failures"])


def test_sweep_gate_fails_on_outputs_that_differ_between_repeats():
    from perfbench.workloads.sweep import sweep_gates

    record = {"algorithm": "a", "key": "k", "status": "ok", "valid": True, "colors": 9}
    assert sweep_gates([[record], [dict(record)]]) == []
    assert sweep_gates([[record], [dict(record, colors=10)]])


def test_fuzz_gate_fails_the_run_on_a_divergent_engine(monkeypatch):
    from repro.fuzz import differential

    pair = differential.ENGINE_PAIRS["greedy"]

    def shifted(case):
        run = pair.run_vectorized(case)
        run.assignment = {v: c + 1 for v, c in run.assignment.items()}
        return run

    monkeypatch.setitem(
        differential.ENGINE_PAIRS,
        "greedy",
        dataclasses.replace(pair, run_vectorized=shifted),
    )
    result = _run_in_process(FuzzWorkload())
    assert not result.correct
    assert result.failed > 0
    assert any(f.startswith("fuzz (") for f in result.report["failures"])


class _CorruptServe(ServeWorkload):
    """Shifts one node's color in every served response before the gates
    see it."""

    def _entry(self, response):
        colors = dict(response.colors)
        colors["0"] += 1
        return super()._entry(dataclasses.replace(response, colors=colors))


def test_serve_gate_fails_the_run_on_a_corrupted_response():
    result = _run_in_process(_CorruptServe())
    assert not result.correct
    assert any("differs from linial_vectorized_batch" in f for f in result.report["failures"])
    assert result.report["resources"]["daemon_bad_exit"] == 0


class _CorruptPartition(PartitionWorkload):
    def round(self, ctx, samples):
        super().round(ctx, samples)
        ctx["outputs"][2][-1][0] += 1


def test_partition_gate_fails_the_run_on_a_corrupted_coloring():
    result = _run_in_process(_CorruptPartition())
    assert not result.correct
    assert any("differs from 1 shard" in f for f in result.report["failures"])
    assert result.report["resources"]["leaked_shm"] == 0


def test_partition_gate_rejects_an_improper_coloring():
    from perfbench.workloads.partition import partition_gates

    indptr, indices = ring_plus_matching_csr(8, seed=0)
    same = np.zeros(8, dtype=np.int64)
    assert partition_gates({1: [same], 2: [same]}, indptr, indices, palette=3)


def test_partition_generator_matches_bench_partition():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    bench = pytest.importorskip("bench_partition")
    for got, want in zip(ring_plus_matching_csr(1000, 3), bench.ring_plus_matching_csr(1000, 3)):
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# trace fidelity
# ----------------------------------------------------------------------
def _launches(pairs_override: bool) -> int:
    from repro.fuzz import differential, fuzz_run

    tracer = Tracer()
    launch = lambda tr, sides: tr.count("launches")  # noqa: E731
    for name, fn in list(differential._VEC_BATCH.items()):
        tracer.replace_item(differential._VEC_BATCH, name, tracer.wrap("fast", fn, launch))
    wrapped = {
        name: dataclasses.replace(
            pair, run_reference=tracer.wrap("reference", pair.run_reference)
        )
        for name, pair in differential.ENGINE_PAIRS.items()
    }
    try:
        if pairs_override:
            fuzz_run(seed=1, iterations=4, shrink=False, batch_size=BATCH_SIZE, pairs=wrapped)
        else:
            for name, pair in wrapped.items():
                tracer.replace_item(differential.ENGINE_PAIRS, name, pair)
            fuzz_run(seed=1, iterations=4, shrink=False, batch_size=BATCH_SIZE)
    finally:
        tracer.restore()
    return int(tracer.counters.get("launches", 0))


def test_in_place_wrapping_keeps_the_batched_path():
    from repro.fuzz.differential import ENGINE_PAIRS

    expected = expected_launches(list(ENGINE_PAIRS), 4, BATCH_SIZE)
    assert expected > 0
    assert _launches(pairs_override=False) == expected
    # a pairs= override of wrapped callables falls back to per-case
    # execution: the fidelity check would see the missing launches
    assert _launches(pairs_override=True) != expected


def test_tracer_self_time_excludes_children_and_restores_patches():
    import types

    module = types.SimpleNamespace(f=lambda: time_sink(0.01))
    tracer = Tracer()
    tracer.patch(module, "f", "child")
    with tracer.span("root"):
        module.f()
    tracer.restore()
    assert not hasattr(module.f, "__wrapped__")
    layers = tracer.layers()
    assert layers["child"]["count"] == 1
    assert layers["root"]["self_s"] < layers["root"]["total_s"]
    assert abs(
        layers["root"]["self_s"] + layers["child"]["self_s"] - layers["root"]["total_s"]
    ) < 1e-9


def time_sink(seconds: float) -> None:
    import time

    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
