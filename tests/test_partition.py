"""The partitioned backend: partitioner invariants, bit-identity, death.

Three layers, tested bottom-up:

* :func:`~repro.sim.partition.partition_arrays` — the pure partitioner:
  for every strategy/shard-count, owned sets partition ``0..n-1``,
  ghosts are exactly the foreign endpoints of cut edges, send lists
  mirror ghost lists pairwise, and the per-shard local CSRs re-assemble
  into the global adjacency;
* :func:`~repro.sim.partition.run_partitioned_linial` — the equivalence
  contract: bit-identical ``(coloring, metrics, palette)`` to
  :func:`~repro.sim.vectorized.linial_vectorized` for shard counts
  1/2/8, on clean and on gappy-unsorted-label graphs, with
  :func:`~repro.obs.compare_round_accounting` agreeing round-for-round
  (the ``exchange`` column is partitioned-only and deliberately not
  compared), plus corpus replay through ``PARTITIONED_PAIRS`` on
  2/4/8 shards;
* failure semantics — a shard worker SIGKILLed mid-round surfaces as a
  structured :class:`~repro.sim.partition.PartitionWorkerError` naming
  the shard and exit code, never as a hang (the barrier timeout plus
  the parent's exitcode poll are the two watchdogs under test).

Worker tests use the ``fork`` start method for speed (a spawn worker
re-imports the package per process); one test pins that ``spawn`` —
the honest-RSS default used by the benchmark — works too.
"""

import numpy as np
import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz import PARTITIONED_PAIRS, load_corpus, run_case
from repro.obs import (
    ENGINE_PARTITIONED,
    ENGINE_VECTORIZED,
    RunRecorder,
    compare_round_accounting,
)
from repro.sim.engine import CSRGraph
from repro.sim.partition import (
    PARTITION_STRATEGIES,
    GraphPartition,
    PartitionWorkerError,
    partition_arrays,
    partition_graph,
    run_partitioned_dense,
    run_partitioned_linial,
)
from repro.sim.vectorized import linial_vectorized
from tests.test_fuzz_corpus import CORPUS_DIR


def spread(g):
    """Spread initial colors: forces a non-empty multi-round schedule."""
    return {v: 64 * i for i, v in enumerate(sorted(g.nodes))}


def gappy_ring(n: int, stride: int = 977) -> nx.Graph:
    """A ring whose labels are gappy and deliberately unsorted."""
    labels = [(i * stride) % (n * stride + 13) + 5 for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(labels)
    for i in range(n):
        g.add_edge(labels[i], labels[(i + 1) % n])
    return g


# ----------------------------------------------------------------------
# layer 1: the pure partitioner
# ----------------------------------------------------------------------
def check_partition_invariants(csr: CSRGraph, part: GraphPartition) -> None:
    n = csr.n
    # owned sets partition 0..n-1
    owned_all = np.concatenate([p.owned for p in part.plans]) if n else (
        np.empty(0, dtype=np.int64)
    )
    assert sorted(owned_all.tolist()) == list(range(n))
    assert np.array_equal(part.owner[owned_all], np.repeat(
        np.arange(part.shards), [p.n_owned for p in part.plans]
    ))
    total_cut = 0
    for plan in part.plans:
        # ghosts: sorted, foreign-owned, disjoint from owned
        assert np.array_equal(plan.ghosts, np.unique(plan.ghosts))
        assert not np.intersect1d(plan.owned, plan.ghosts).size
        assert np.all(part.owner[plan.ghosts] != plan.shard)
        # every ghost is an endpoint of at least one local edge, and the
        # local CSR re-assembles into the exact global neighbor lists
        local_ids = np.concatenate([plan.owned, plan.ghosts])
        seen_ghost_slots = set()
        for li, v in enumerate(plan.owned):
            lo, hi = plan.indptr[li], plan.indptr[li + 1]
            nbrs_local = plan.indices[lo:hi]
            nbrs_global = local_ids[nbrs_local]
            lo_g, hi_g = csr.indptr[v], csr.indptr[v + 1]
            assert np.array_equal(nbrs_global, csr.indices[lo_g:hi_g])
            seen_ghost_slots.update(
                int(x) for x in nbrs_local[nbrs_local >= plan.n_owned]
            )
        assert seen_ghost_slots == set(
            range(plan.n_owned, plan.n_owned + plan.n_ghost)
        )
        # ghost rows of the local CSR are empty
        assert np.all(
            np.diff(plan.indptr[plan.n_owned:]) == 0
        )
        total_cut += plan.cut_directed_edges
    assert total_cut == part.cut_directed_edges
    assert part.cut_directed_edges <= csr.num_directed_edges
    # send lists mirror ghost lists pairwise: what s sends to t is
    # exactly the slice of t's ghosts that s owns
    for s, plan in enumerate(part.plans):
        for t, sent in plan.send_to.items():
            assert t != s
            assert np.all(part.owner[sent] == s)
            ghosts_t = part.plans[t].ghosts
            expected = ghosts_t[part.owner[ghosts_t] == s]
            assert np.array_equal(sent, expected)
    # and nothing is sent that no shard wants
    for t, plan in enumerate(part.plans):
        received = [
            other.send_to[t]
            for other in part.plans
            if t in other.send_to
        ]
        got = np.sort(np.concatenate(received)) if received else np.empty(
            0, dtype=np.int64
        )
        assert np.array_equal(got, plan.ghosts)


class TestPartitioner:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_invariants_on_regular_graph(self, strategy, shards):
        g = nx.random_regular_graph(3, 24, seed=7)
        csr, part = partition_graph(g, shards, strategy=strategy, seed=3)
        check_partition_invariants(csr, part)

    def test_single_shard_has_no_cut(self):
        g = nx.random_regular_graph(3, 16, seed=1)
        csr, part = partition_graph(g, 1)
        assert part.cut_directed_edges == 0
        assert part.total_ghosts == 0
        assert part.exchange_bytes_per_round == 0
        assert part.exchange_row() == {
            "bytes": 0,
            "ghosts": 0,
            "cut_directed_edges": 0,
        }

    def test_more_shards_than_nodes_is_legal(self):
        g = nx.path_graph(3)
        csr, part = partition_graph(g, 8)
        check_partition_invariants(csr, part)
        assert sum(p.n_owned for p in part.plans) == 3
        assert sum(p.n_owned == 0 for p in part.plans) == 5

    def test_empty_graph(self):
        part = partition_arrays(
            0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert part.cut_edge_fraction == 0.0
        assert part.ghost_fraction == 0.0

    def test_bad_arguments_raise(self):
        g = nx.path_graph(4)
        with pytest.raises(ValueError, match="shards"):
            partition_graph(g, 0)
        with pytest.raises(ValueError, match="strategy"):
            partition_graph(g, 2, strategy="metis")

    def test_hash_strategy_is_seed_deterministic(self):
        g = nx.random_regular_graph(3, 30, seed=2)
        _, a = partition_graph(g, 4, strategy="hash", seed=11)
        _, b = partition_graph(g, 4, strategy="hash", seed=11)
        _, c = partition_graph(g, 4, strategy="hash", seed=12)
        assert np.array_equal(a.owner, b.owner)
        assert not np.array_equal(a.owner, c.owner)

    @given(
        n=st.integers(0, 20),
        shards=st.integers(1, 5),
        strategy=st.sampled_from(PARTITION_STRATEGIES),
        graph_seed=st.integers(0, 100),
        part_seed=st.integers(0, 100),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_invariants_hold_everywhere(
        self, n, shards, strategy, graph_seed, part_seed
    ):
        g = nx.gnp_random_graph(n, 0.3, seed=graph_seed)
        csr, part = partition_graph(g, shards, strategy=strategy, seed=part_seed)
        check_partition_invariants(csr, part)


# ----------------------------------------------------------------------
# layer 2: bit-identity to the vectorized engine
# ----------------------------------------------------------------------
def run_both(g, *, shards, strategy="contiguous", defect=0, initial=None):
    rec_p = RunRecorder(engine=ENGINE_PARTITIONED)
    res_p, met_p, pal_p = run_partitioned_linial(
        g,
        initial_colors=initial,
        defect=defect,
        recorder=rec_p,
        shards=shards,
        strategy=strategy,
        mp_context="fork",
    )
    rec_v = RunRecorder(engine=ENGINE_VECTORIZED)
    res_v, met_v, pal_v = linial_vectorized(
        g, initial_colors=initial, defect=defect, recorder=rec_v
    )
    assert res_p.assignment == res_v.assignment
    assert pal_p == pal_v
    assert met_p.summary() == met_v.summary()
    accounting = compare_round_accounting(rec_p.record, rec_v.record)
    assert accounting["accounting_equal"], accounting
    assert accounting["rounds_equal"], accounting
    return rec_p


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_shard_count_invariance(self, shards):
        g = nx.random_regular_graph(3, 40, seed=5)
        run_both(g, shards=shards, initial=spread(g))

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_gappy_unsorted_labels(self, shards):
        g = gappy_ring(23)
        run_both(g, shards=shards, initial=spread(g))

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_strategy_invariance(self, strategy):
        g = nx.random_regular_graph(4, 30, seed=9)
        run_both(g, shards=3, strategy=strategy, initial=spread(g))

    def test_defective_schedule(self):
        g = nx.random_regular_graph(4, 26, seed=4)
        run_both(g, shards=2, defect=1, initial=spread(g))

    def test_exchange_column_recorded(self):
        g = nx.random_regular_graph(3, 40, seed=5)
        rec = run_both(g, shards=2, initial=spread(g))
        rows = rec.record.rows
        assert rows, "spread colors must force a non-empty schedule"
        for row in rows:
            assert set(row.exchange) == {
                "bytes",
                "ghosts",
                "cut_directed_edges",
            }
            assert row.exchange["bytes"] == 8 * row.exchange["ghosts"]

    def test_empty_schedule_short_circuits(self):
        # identity colors on a tiny graph: nothing to reduce, no workers
        g = nx.path_graph(3)
        stats_sink = []
        res, met, pal = run_partitioned_linial(
            g, shards=2, mp_context="fork", stats_out=stats_sink
        )
        assert met.rounds == 0
        assert res.assignment == {0: 0, 1: 1, 2: 2}
        assert stats_sink[0].rounds == 0
        # no workers ran: placeholder per-shard stats, no round walls
        assert all(s.round_walls == [] for s in stats_sink[0].shard_stats)

    def test_spawn_context_matches_too(self):
        # one spawn cell (the benchmark default); fork everywhere else
        # for speed
        g = nx.random_regular_graph(3, 20, seed=8)
        res_s, _, _ = run_partitioned_linial(
            g, initial_colors=spread(g), shards=2, mp_context="spawn"
        )
        res_v, _, _ = linial_vectorized(g, initial_colors=spread(g))
        assert res_s.assignment == res_v.assignment


class TestCorpusReplay:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_linial_corpus_replays_partitioned(self, shards):
        import dataclasses

        from repro.fuzz.differential import EngineRun

        def partitioned_fast(case):
            rec = RunRecorder(engine=ENGINE_PARTITIONED)
            result, metrics, palette = run_partitioned_linial(
                case.graph(),
                initial_colors=case.initial_colors,
                defect=case.defect,
                recorder=rec,
                shards=shards,
                mp_context="fork",
            )
            return EngineRun(
                dict(result.assignment), metrics, rec.record, palette
            )

        pairs = {
            name: dataclasses.replace(pair, run_vectorized=partitioned_fast)
            for name, pair in PARTITIONED_PAIRS.items()
        }
        replayed = 0
        for path, case in load_corpus(CORPUS_DIR):
            if case.pair not in pairs or case.fault is not None:
                continue
            outcome = run_case(case, pairs)
            assert outcome.ok, f"{path.name} diverged:\n{outcome.describe()}"
            replayed += 1
        assert replayed > 0, "corpus has no linial no-fault cases to replay"


# ----------------------------------------------------------------------
# layer 3: failure semantics
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_sigkilled_worker_raises_structured_error(self):
        g = nx.random_regular_graph(3, 24, seed=6)
        csr = CSRGraph.from_networkx(g)
        colors = csr.gather(spread(g))
        with pytest.raises(PartitionWorkerError) as err:
            run_partitioned_dense(
                csr.n,
                csr.indptr,
                csr.indices,
                colors,
                [(17, 3), (7, 3)],
                shards=2,
                mp_context="fork",
                barrier_timeout=10.0,
                _crash={1: 0},  # shard 1 SIGKILLs itself in round 0
            )
        assert err.value.shard == 1
        assert err.value.exitcode == -9
        assert "killed by signal 9" in str(err.value)

    def test_surviving_shards_are_reaped(self):
        # after the error, no orphan worker processes may linger
        import multiprocessing

        g = nx.random_regular_graph(3, 24, seed=6)
        csr = CSRGraph.from_networkx(g)
        colors = csr.gather(spread(g))
        before = set(multiprocessing.active_children())
        with pytest.raises(PartitionWorkerError):
            run_partitioned_dense(
                csr.n,
                csr.indptr,
                csr.indices,
                colors,
                [(17, 3), (7, 3)],
                shards=3,
                mp_context="fork",
                barrier_timeout=10.0,
                _crash={2: 1},
            )
        leaked = [
            p for p in multiprocessing.active_children() if p not in before
        ]
        for p in leaked:
            p.join(timeout=10.0)
        assert all(not p.is_alive() for p in leaked)

    def test_start_failure_propagates_and_cleans_up(self, monkeypatch):
        # shard 1's start() raises after shard 0 started: the start error
        # must surface as-is (not an AssertionError from joining a
        # never-started process), the shared block must be unlinked, and
        # the started sibling reaped well inside its barrier timeout
        import multiprocessing
        import os
        import time

        from repro.sim import partition

        fork = multiprocessing.get_context("fork")

        class FailSecondStart(fork.Process):
            starts = 0

            def start(self):
                FailSecondStart.starts += 1
                if FailSecondStart.starts == 2:
                    raise OSError("simulated start failure")
                super().start()

        class Context:
            Process = FailSecondStart

            def __getattr__(self, name):
                return getattr(fork, name)

        monkeypatch.setattr(partition.mp, "get_context", lambda _name: Context())
        g = nx.random_regular_graph(3, 24, seed=6)
        csr = CSRGraph.from_networkx(g)
        colors = csr.gather(spread(g))
        shm_before = set(os.listdir("/dev/shm"))
        t0 = time.monotonic()
        with pytest.raises(OSError, match="simulated start failure"):
            run_partitioned_dense(
                csr.n,
                csr.indptr,
                csr.indices,
                colors,
                [(17, 3), (7, 3)],
                shards=2,
                mp_context="fork",
                barrier_timeout=30.0,
            )
        assert time.monotonic() - t0 < 15.0
        assert set(os.listdir("/dev/shm")) - shm_before == set()
