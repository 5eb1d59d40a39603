"""``sweep-4x25k``: ``run_sweep`` over four n=25k recipes, two cells each.

Each call handles one large instance, so time goes to graph generation,
CSR freeze, the single-instance round kernel, validation and cache
serialization; nothing is batched and nothing crosses a socket.  Each
``random_regular`` recipe (n=25000, d=8) is shared by two cells,
``linial_vectorized`` and ``fk24_vectorized``, so reuse of work across
cells shows here.  Each recipe is its own ``run_sweep`` call: one call
over all eight cells would take the sweep's batched path, which runs
same-algorithm cells of a worker as one batch.

Four recipes of 25k nodes, not one of 100k: ``networkx`` builds a random
regular graph by retrying random pairings, so its cost depends on the
graph seed.  At n=100k most seeds took 4.0-4.5 s to generate and some
6.3-7.1 s, which moved the whole sweep by 45% from seed to seed; four
graph seeds per run average that out.

Main path: ``run_sweep`` inline (one worker, fresh cache dir), which is
also the only path the traced run's spans can see.  Alt path: the same
cells with two worker processes, the ``repro-cli sweep`` default on a
two-core machine; its CPU time includes the workers', which are reaped
when ``run_sweep`` returns.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any

from ..harness import Samples, Stopwatch, Workload, record_digest
from ..tracing import Tracer

#: Record fields that hold clock readings, left out of output digests.
CLOCK_FIELDS = ("wall_s", "timings")


def output_digest(record: dict[str, Any]) -> str:
    """Digest of a sweep record without its clock fields."""
    body = {k: v for k, v in record.items() if k not in CLOCK_FIELDS}
    if body.get("run_record") is not None:
        body["run_record"] = {
            k: v for k, v in body["run_record"].items() if k != "timings"
        }
    return record_digest(body)


class SweepWorkload(Workload):
    name = "sweep-4x25k"
    PARAMS = {
        "full": {"n": 25_000, "degree": 8, "recipes": 4, "workers": 2},
        "tiny": {"n": 400, "degree": 8, "recipes": 2, "workers": 2},
    }
    ALGORITHMS = ("linial_vectorized", "fk24_vectorized")
    ALIASES = {"sweep_s": "main_cpu_s", "fail_frac": "1 - ok_frac"}

    def setup(self, seed: int, params: dict[str, Any], work: Path) -> dict[str, Any]:
        # the modules a sweep cell imports lazily: users pay these once
        import repro.algorithms.fk24  # noqa: F401
        import repro.core.validate  # noqa: F401
        import repro.sim.vectorized  # noqa: F401
        from repro.experiments.sweep import SweepCell

        recipes = params["recipes"]
        sweeps = [
            [
                SweepCell.make(
                    "random_regular",
                    {"n": params["n"], "degree": params["degree"], "seed": seed * recipes + k},
                    algorithm,
                )
                for algorithm in self.ALGORITHMS
            ]
            for k in range(recipes)
        ]
        return {"sweeps": sweeps, "params": params, "work": work, "records": []}

    def _sweep(
        self, ctx: dict[str, Any], cells: list, workers: int
    ) -> tuple[Stopwatch, list[dict]]:
        from repro.experiments.sweep import run_sweep

        cache = tempfile.mkdtemp(prefix="cache-", dir=ctx["work"])
        with Stopwatch() as watch:
            results = run_sweep(cells, cache_dir=cache, workers=workers)
        records = [r.data for r in results]
        ctx["records"].append(records)
        return watch, records

    def _inline_pass(self, ctx: dict[str, Any], samples: Samples) -> tuple[float, list[dict]]:
        """Every recipe once, inline: CPU seconds and the records."""
        cpu, records = 0.0, []
        for cells in ctx["sweeps"]:
            watch, got = self._sweep(ctx, cells, workers=1)
            self._account(samples, got)
            cpu += watch.cpu
            records += got
        return cpu, records

    def _account(self, samples: Samples, records: list[dict]) -> int:
        """Count cells; return the nodes of the ok and valid ones."""
        good = [r for r in records if r.get("status") == "ok" and r.get("valid")]
        samples.outcome(len(records), len(records) - len(good))
        return sum(int(r["n"]) for r in good)

    def round(self, ctx: dict[str, Any], samples: Samples) -> None:
        for k, cells in enumerate(ctx["sweeps"]):
            watch, records = self._sweep(ctx, cells, workers=1)
            samples.main.add(f"recipe{k}", watch, self._account(samples, records))
            watch, records = self._sweep(ctx, cells, workers=ctx["params"]["workers"])
            samples.alt.add(f"recipe{k}", watch, self._account(samples, records))

    def gates(self, ctx: dict[str, Any]) -> list[str]:
        return sweep_gates(ctx["records"])

    def trace(self, ctx: dict[str, Any], tracer: Tracer, samples: Samples):
        import repro.graphs
        import repro.graphs.generators
        import repro.sim.vectorized as vectorized
        from repro.experiments import sweep
        from repro.sim.engine import CSRGraph

        untraced, _ = self._inline_pass(ctx, samples)

        def stored(tr: Tracer, path: Path) -> None:
            tr.count("sweep.record_bytes", Path(path).stat().st_size)

        tracer.patch(repro.graphs, "family", "graphs.family")
        tracer.patch(repro.graphs.generators, "family", "graphs.family")
        tracer.patch(CSRGraph, "from_networkx", "engine.csr_build")
        for fn in ("linial_vectorized", "fk24_vectorized"):
            tracer.patch(vectorized, fn, "vectorized.call")
        tracer.patch(sweep, "_validate", "validate")
        tracer.patch(sweep, "store_cached", "sweep.store", on_result=stored)
        with tracer.span("sweep.run"):
            traced, records = self._inline_pass(ctx, samples)
        tracer.restore()

        layers = tracer.layers()
        run = layers["sweep.run"]
        cells = len(records)
        stores = tracer.calls("sweep.store")
        metrics = {
            "graphs.family_s": tracer.self_s("graphs.family"),
            "graphs.family_calls": tracer.calls("graphs.family"),
            "engine.csr_build_s": tracer.self_s("engine.csr_build"),
            "engine.csr_builds": tracer.calls("engine.csr_build"),
            "engine.csr_builds_per_cell": tracer.calls("engine.csr_build") / cells,
            "vectorized.schedule_s": sum(r["timings"].get("schedule", 0.0) for r in records),
            "vectorized.rounds_s": sum(r["timings"].get("rounds", 0.0) for r in records),
            "vectorized.rounds": sum(r["metrics"]["rounds"] for r in records),
            "vectorized.call_s": tracer.self_s("vectorized.call"),
            "validate.s": tracer.self_s("validate"),
            "sweep.store_s": tracer.self_s("sweep.store"),
            "sweep.record_bytes": tracer.counters.get("sweep.record_bytes", 0) / max(1, stores),
            "unattributed_frac": run["self_s"] / run["total_s"],
            "trace_overhead_frac": traced / untraced - 1.0,
        }
        required = ["graphs.family", "engine.csr_build", "vectorized.call", "validate", "sweep.store"]
        return metrics, required


def sweep_gates(passes: list[list[dict]]) -> list[str]:
    """Every cell ok and valid; each cell's output digest equal in every pass."""
    failures: list[str] = []
    digests: dict[str, set[str]] = {}
    for records in passes:
        for record in records:
            cell = f"{record['algorithm']}@{record['key']}"
            if record.get("status") != "ok":
                failures.append(f"sweep: {cell} status {record.get('status')!r}")
            elif not record.get("valid"):
                failures.append(f"sweep: {cell} output is not valid")
            digests.setdefault(cell, set()).add(output_digest(record))
    for cell, seen in sorted(digests.items()):
        if len(seen) != 1:
            failures.append(f"sweep: {cell} outputs differ across {len(seen)} repeats")
    if not passes:
        failures.append("sweep: no pass ran")
    return failures
