"""``partition-1m``: ``run_partitioned_dense`` on a 1M-node 3-regular graph.

The only workload for ``repro.sim.partition`` (spawn, shared memory,
barriers, ghost exchange); its kernel is memory-bound on large arrays.
The graph is a ring plus a seeded perfect matching, built in numpy (the
generator ``benchmarks/bench_partition.py`` uses, copied here so the
benchmark does not depend on that script).

Main path: one shard.  Alt path: two shards.  Both start from identity
colors and run the Linial schedule for n and degree 3.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

from ..harness import Samples, Stopwatch, Workload
from ..tracing import Tracer

SHM_DIR = Path("/dev/shm")


def ring_plus_matching_csr(n: int, seed: int):
    """CSR arrays of a 3-regular graph: cycle 0..n-1 plus a seeded perfect
    matching with no matching edge on a ring edge (``n`` even, >= 6)."""
    import numpy as np

    if n % 2 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n).astype(np.int64)
    u, v = perm[0::2].copy(), perm[1::2].copy()
    for _ in range(64):
        gap = (u - v) % n
        bad = (gap == 1) | (gap == n - 1)
        if not bad.any():
            break
        rot = np.concatenate([np.nonzero(bad)[0], np.nonzero(~bad)[0][:1]])
        v[rot] = np.roll(v[rot], 1)
    else:
        raise RuntimeError("matching repair did not converge")
    mate = np.empty(n, dtype=np.int64)
    mate[u], mate[v] = v, u
    ar = np.arange(n, dtype=np.int64)
    nbr = np.empty((n, 3), dtype=np.int64)
    nbr[:, 0] = (ar - 1) % n
    nbr[:, 1] = (ar + 1) % n
    nbr[:, 2] = mate
    return 3 * np.arange(n + 1, dtype=np.int64), nbr.reshape(-1)


def shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


class PartitionWorkload(Workload):
    name = "partition-1m"
    PARAMS = {"full": {"n": 1_000_000}, "tiny": {"n": 20_000}}
    MIN_ROUNDS = 3
    ALIASES = {
        "partition_1shard_s": "main_cpu_s",
        "partition_2shard_s": "alt_cpu_s",
        "fail_frac": "1 - ok_frac",
    }

    def setup(self, seed: int, params: dict[str, Any], work: Path) -> dict[str, Any]:
        import numpy as np
        from repro.algorithms.linial import linial_schedule
        import repro.sim.partition  # noqa: F401

        n = params["n"]
        indptr, indices = ring_plus_matching_csr(n, seed)
        steps = linial_schedule(n, 3)
        return {
            "shm_before": shm_entries(),
            "n": n,
            "indptr": indptr,
            "indices": indices,
            "colors": np.arange(n, dtype=np.int64),
            "sched": [(s.q, s.deg) for s in steps],
            "palette": steps[-1].out_colors if steps else n,
            "outputs": {1: [], 2: []},
            "rss_kb": 0,
            "stats": [],
        }

    def _run(self, ctx: dict[str, Any], shards: int, samples: Samples) -> tuple[Stopwatch, int]:
        """One partitioned run; its CPU time includes the shard workers',
        which are reaped before ``run_partitioned_dense`` returns."""
        from repro.sim.partition import run_partitioned_dense

        try:
            with Stopwatch() as watch:
                out, stats, _ = run_partitioned_dense(
                    ctx["n"],
                    ctx["indptr"],
                    ctx["indices"],
                    ctx["colors"],
                    ctx["sched"],
                    shards=shards,
                )
        except Exception:
            samples.outcome(1, 1)
            raise
        samples.outcome(1, 0)
        ctx["outputs"][shards].append(out)
        ctx["rss_kb"] = max(ctx["rss_kb"], stats.max_peak_rss_kb)
        ctx["stats"].append((shards, watch.wall, stats))
        return watch, ctx["n"]

    def round(self, ctx: dict[str, Any], samples: Samples) -> None:
        samples.main.add("run", *self._run(ctx, 1, samples))
        samples.alt.add("run", *self._run(ctx, 2, samples))

    def gates(self, ctx: dict[str, Any]) -> list[str]:
        return partition_gates(
            ctx["outputs"], ctx["indptr"], ctx["indices"], ctx["palette"]
        )

    def trace(self, ctx: dict[str, Any], tracer: Tracer, samples: Samples):
        from repro.sim import partition

        self._run(ctx, 1, samples)
        untraced, _ = self._run(ctx, 2, samples)
        tracer.patch(partition, "partition_arrays", "partition.partition")
        with tracer.span("partition.run"):
            traced, _ = self._run(ctx, 2, samples)
        tracer.restore()
        _, _, stats = ctx["stats"][-1]
        walls = [sum(s.round_walls) for s in stats.shard_stats]
        rounds_s = max(walls)
        run = tracer.layers()["partition.run"]
        metrics = {
            "partition.rounds_s": rounds_s,
            "partition.overhead_s": traced.wall - rounds_s,
            "partition.barrier_wait_s": max(walls) - min(walls),
            "partition.exchange_bytes_per_round": stats.exchange_bytes_per_round,
            "partition.max_shard_rss_mb": stats.max_peak_rss_kb / 1024.0,
            "unattributed_frac": (run["self_s"] - rounds_s) / run["total_s"],
            "trace_overhead_frac": traced.cpu / untraced.cpu - 1.0,
        }
        return metrics, ["partition.partition"]

    def peak_rss_mb(self, ctx: dict[str, Any]) -> float:
        """The largest shard worker's peak RSS over every run."""
        return ctx["rss_kb"] / 1024.0

    def teardown(self, ctx: dict[str, Any]) -> dict[str, int]:
        return {"leaked_shm": len(shm_entries() - ctx["shm_before"])}


def partition_gates(outputs: dict[int, list], indptr, indices, palette: int) -> list[str]:
    """Every 2-shard coloring ``np.array_equal`` to the 1-shard one, and the
    1-shard coloring proper within the schedule's palette."""
    import numpy as np

    failures: list[str] = []
    if not outputs[1] or not outputs[2]:
        return ["partition: a shard count never ran"]
    base = outputs[1][0]
    for shards, outs in sorted(outputs.items()):
        for i, out in enumerate(outs):
            if not np.array_equal(out, base):
                failures.append(f"partition: {shards}-shard run {i} differs from 1 shard")
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    clashes = int(np.count_nonzero(base[src] == base[indices]))
    if clashes:
        failures.append(f"partition: coloring is not proper ({clashes // 2} clashing edges)")
    if base.size and (int(base.min()) < 0 or int(base.max()) >= palette):
        failures.append(f"partition: colors outside the palette of {palette}")
    return failures
