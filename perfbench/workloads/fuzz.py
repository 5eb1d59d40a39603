"""``fuzz-differential``: ``fuzz_run`` over all five engine pairs.

Thousands of instances with 8-48 nodes, so time goes to case generation,
the per-message reference engine, and the per-call overhead of the
vectorized and batched engines: the opposite end from ``sweep-4x25k`` on
instance size.

Main path: one fixed case stream, per case.  Alt path: the same stream
with ``batch_size=16``.  Shrinking is off; any failure is a finding.  The
stream is ``CHUNKS`` ``fuzz_run`` calls (seeds ``seed * CHUNKS + k``),
each run per case and then batched, so both paths see the same machine
conditions and each chunk's time is a median over rounds.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Any

from ..harness import Samples, Stopwatch, Workload
from ..tracing import Tracer

BATCH_SIZE = 16
CHUNKS = 10


def expected_launches(pairs: list[str], iterations: int, batch_size: int) -> int:
    """Batched launches ``fuzz_run(batch_size=...)`` makes on this stream.

    ``fuzz_run`` queues cases iteration by iteration, one per pair, cuts
    the queue into chunks of ``batch_size``, and ``run_cases_batched``
    launches one batched execution per stock pair holding two or more
    cases of a chunk.
    """
    queue = [pair for _ in range(iterations) for pair in pairs]
    launches = 0
    for start in range(0, len(queue), batch_size):
        chunk = queue[start : start + batch_size]
        launches += sum(1 for pair in set(chunk) if chunk.count(pair) >= 2)
    return launches


class FuzzWorkload(Workload):
    name = "fuzz-differential"
    #: fuzz_run iterations per chunk; each iteration is one case per pair
    PARAMS = {"full": {"iterations": 40}, "tiny": {"iterations": 2}}
    ALIASES = {
        "fuzz_cases_per_s": "main_items_per_cpu_s",
        "fuzz_batched_cases_per_s": "alt_items_per_cpu_s",
        "fail_frac": "1 - ok_frac",
    }

    def setup(self, seed: int, params: dict[str, Any], work: Path) -> dict[str, Any]:
        import repro.sim.batch  # noqa: F401
        from repro.fuzz import fuzz_run  # noqa: F401
        from repro.fuzz.differential import ENGINE_PAIRS

        return {
            "seed": seed,
            "iterations": params["iterations"],
            "pairs": list(ENGINE_PAIRS),
            "reports": [],
            "trace_failures": [],
        }

    def _chunk(self, ctx: dict[str, Any], samples: Samples, chunk: int, batch_size: int):
        from repro.fuzz import fuzz_run

        with Stopwatch() as watch:
            report = fuzz_run(
                seed=ctx["seed"] * CHUNKS + chunk,
                iterations=ctx["iterations"],
                shrink=False,
                batch_size=batch_size,
            )
        ctx["reports"].append(
            {
                "chunk": chunk,
                "batch_size": batch_size,
                "cases": report.cases_run,
                "skipped": report.skipped,
                "per_pair": dict(report.per_pair),
                "failures": [f.describe() for f in report.failures],
            }
        )
        samples.outcome(report.cases_run, len(report.failures))
        return watch, report.cases_run - len(report.failures)

    def round(self, ctx: dict[str, Any], samples: Samples) -> None:
        for chunk in range(CHUNKS):
            samples.main.add(f"chunk{chunk}", *self._chunk(ctx, samples, chunk, 0))
            samples.alt.add(f"chunk{chunk}", *self._chunk(ctx, samples, chunk, BATCH_SIZE))

    def gates(self, ctx: dict[str, Any]) -> list[str]:
        return fuzz_gates(ctx["reports"], ctx["iterations"]) + ctx["trace_failures"]

    def trace(self, ctx: dict[str, Any], tracer: Tracer, samples: Samples):
        import repro.sim.vectorized as vectorized
        from repro.fuzz import differential, runner
        from repro.sim.batch import BatchCSRGraph
        from repro.sim.engine import CSRGraph

        untraced = sum(
            self._chunk(ctx, samples, chunk, batch_size)[0].cpu
            for chunk in range(CHUNKS)
            for batch_size in (0, BATCH_SIZE)
        )

        def messages(tr: Tracer, run: Any) -> None:
            if run.metrics is not None:
                tr.count("network.messages", run.metrics.total_messages)

        def launch(tr: Tracer, sides: list) -> None:
            tr.count("batch.launches")
            tr.count("batch.cases", len(sides))

        tracer.patch(runner, "generate_case", "fuzz.generate")
        for name, pair in list(differential.ENGINE_PAIRS.items()):
            traced_pair = dataclasses.replace(
                pair,
                run_reference=tracer.wrap("fuzz.reference", pair.run_reference, messages),
                run_vectorized=tracer.wrap("fuzz.fast", pair.run_vectorized),
            )
            tracer.replace_item(differential.ENGINE_PAIRS, name, traced_pair)
        for name, fn in list(differential._VEC_BATCH.items()):
            tracer.replace_item(
                differential._VEC_BATCH, name, tracer.wrap("fuzz.fast", fn, launch)
            )
        tracer.patch(differential, "_judge_case", "fuzz.judge")
        for fn in (
            "linial_vectorized",
            "classic_delta_plus_one_vectorized",
            "greedy_list_vectorized",
            "defective_split_vectorized",
        ):
            tracer.patch(differential, fn, "vectorized.call")
            tracer.patch(vectorized, fn, "vectorized.call")
        tracer.patch(vectorized, "fk24_vectorized", "vectorized.call")
        tracer.patch(BatchCSRGraph, "from_graphs", "batch.pack")
        tracer.patch(CSRGraph, "from_networkx", "engine.csr_build")
        traced = 0.0
        for chunk in range(CHUNKS):
            for batch_size in (0, BATCH_SIZE):
                with tracer.span("fuzz.run"):
                    traced += self._chunk(ctx, samples, chunk, batch_size)[0].cpu
        tracer.restore()

        launches = int(tracer.counters.get("batch.launches", 0))
        expected = CHUNKS * expected_launches(ctx["pairs"], ctx["iterations"], BATCH_SIZE)
        if launches != expected:
            ctx["trace_failures"].append(
                f"trace fidelity: {launches} batched launches under tracing, "
                f"{expected} without"
            )
        layers = tracer.layers()
        run = layers["fuzz.run"]
        reference = layers.get("fuzz.reference", {}).get("total_s", 0.0)
        metrics = {
            "fuzz.generate_s": tracer.self_s("fuzz.generate"),
            "fuzz.reference_s": tracer.self_s("fuzz.reference"),
            "fuzz.fast_s": tracer.self_s("fuzz.fast"),
            "fuzz.judge_s": tracer.self_s("fuzz.judge"),
            "vectorized.call_s": tracer.self_s("vectorized.call"),
            "engine.csr_build_s": tracer.self_s("engine.csr_build"),
            "engine.csr_builds": tracer.calls("engine.csr_build"),
            "network.messages_per_s": (
                tracer.counters.get("network.messages", 0) / reference if reference else 0.0
            ),
            "batch.pack_s": tracer.self_s("batch.pack"),
            "batch.launches": launches,
            "batch.cases_per_launch": (
                tracer.counters.get("batch.cases", 0) / launches if launches else 0.0
            ),
            "unattributed_frac": run["self_s"] / run["total_s"],
            "trace_overhead_frac": traced / untraced - 1.0,
        }
        required = [
            "fuzz.generate",
            "fuzz.reference",
            "fuzz.fast",
            "fuzz.judge",
            "vectorized.call",
            "batch.pack",
        ]
        return metrics, required


def fuzz_gates(reports: list[dict[str, Any]], iterations: int) -> list[str]:
    """Zero failures and skips in every chunk; every pair ran ``iterations``
    cases of every chunk, the same per case and batched."""
    failures: list[str] = []
    for report in reports:
        mode = f"chunk {report['chunk']}, batch_size={report['batch_size']}"
        for failure in report["failures"]:
            failures.append(f"fuzz ({mode}): {failure.splitlines()[0]}")
        if report["skipped"]:
            failures.append(f"fuzz ({mode}): {report['skipped']} case(s) skipped")
        uneven = {p: k for p, k in report["per_pair"].items() if k != iterations}
        if uneven or not report["per_pair"]:
            failures.append(
                f"fuzz ({mode}): per-pair case counts {report['per_pair']} "
                f"!= {iterations} each"
            )
    if len({tuple(sorted(r["per_pair"].items())) for r in reports}) > 1:
        failures.append("fuzz: per-pair case counts differ between chunks or paths")
    if not reports:
        failures.append("fuzz: no pass ran")
    return failures
