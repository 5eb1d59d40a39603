"""Batched multi-instance execution: k graphs, one block-diagonal CSR.

Every sweep cell, fuzz case, and benchmark row runs the vectorized CSR
engine on one graph at a time, so a grid of thousands of *small*
instances pays per-instance Python dispatch for every round.  The
schedule-driven kernels are embarrassingly parallel across instances —
no information ever crosses an instance boundary — so k instances can be
packed into a single block-diagonal :class:`BatchCSRGraph` and run
through the existing kernels as single NumPy operations spanning all
instances at once.

The packing is literal block-diagonal structure:

* member ``j``'s nodes occupy the contiguous dense range
  ``node_offsets[j]..node_offsets[j+1]`` and its directed edges the
  contiguous range ``edge_offsets[j]..edge_offsets[j+1]``;
* ``indptr``/``indices``/``src`` are the members' CSR arrays shifted by
  those offsets, so a :class:`BatchCSRGraph` duck-types as the adjacency
  argument of :func:`~repro.sim.engine.collision_counts` and
  :func:`~repro.sim.engine.equal_neighbor_counts` — the block-diagonal
  shape alone guarantees no cross-instance counting;
* ``instance_id`` maps every dense node back to its member.

FK24 is the exception: its batch freezes the graphs the same way, but
each :class:`Fk24Instance` runs its own rounds on its member CSR — a
packed FK24 round loop measured no faster (``docs/BACKENDS.md``).

**Equivalence contract** (the point of the whole module): each batched
kernel produces, per instance, the *identical* ``(output, RunMetrics,
palette)`` triple — and, with recorders attached, the identical obs
schema v2 :class:`~repro.obs.RunRecord` rows including per-round fault
columns — as its single-instance twin in :mod:`repro.sim.vectorized`.
Per-instance termination masks stop finished (or halted) instances from
contributing rounds, and the per-instance accounting is demultiplexed
through the same :func:`~repro.sim.engine.record_uniform_round`
primitive the single-instance paths charge through.  The battery in
``tests/test_batch.py`` replays the entire fuzz corpus through this
module at batch sizes 1/4/16 and asserts node-for-node equality.

Fault injection batches too: :func:`linial_vectorized_batch` and
:func:`fk24_vectorized_batch` accept one
:class:`~repro.faults.FaultPlan` (or ``None``) per instance; plans are
pure functions of ``(seed, round, node labels)``, so each member of the
batch sees exactly the adversary its single-instance run would.  An
instance whose crash-stop plan exhausts its round budget raises the same
:class:`~repro.sim.node.HaltingError` (same rounds, same unfinished
list) — surfaced per instance via ``return_exceptions=True`` so sibling
instances in the batch still complete.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..core.coloring import ColoringResult, orientation_from_priority
from .engine import (
    CSRGraph,
    equal_neighbor_counts,
    linial_round,
    poly_digits,
    poly_eval_grid,
    ragged_lists,
    record_uniform_round,
    synthesized_metrics,
)
from .message import int_bits
from .metrics import RunMetrics, congest_bandwidth
from .node import HaltingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> sim)
    from ..obs import RunRecorder

#: Sentinel larger than any within-list position (greedy first-free and
#: FK24 first-viable scans).
_NO_PICK = np.int64(1) << np.int64(60)


# ----------------------------------------------------------------------
# the block-diagonal graph
# ----------------------------------------------------------------------
class BatchCSRGraph:
    """k independent :class:`~repro.sim.engine.CSRGraph`s as one CSR.

    Attributes
    ----------
    members:
        The per-instance CSR graphs, in batch order.
    k:
        Instance count.
    node_offsets / edge_offsets:
        ``len k+1`` prefix arrays: member ``j`` owns dense nodes
        ``node_offsets[j]:node_offsets[j+1]`` and directed edge slots
        ``edge_offsets[j]:edge_offsets[j+1]``.
    indptr / indices / src:
        The members' CSR arrays concatenated with ``indices``/``src``
        shifted into the global dense range — block-diagonal adjacency,
        so every neighbor of a member's node lies inside that member's
        own node range *by construction*.
    instance_id:
        Per dense node, the owning member's batch index.
    """

    __slots__ = (
        "members",
        "k",
        "node_offsets",
        "edge_offsets",
        "indptr",
        "indices",
        "src",
        "instance_id",
    )

    def __init__(self, members: Sequence[CSRGraph]) -> None:
        self.members = tuple(members)
        k = len(self.members)
        self.k = k
        node_counts = np.array([m.n for m in self.members], dtype=np.int64)
        edge_counts = np.array(
            [m.num_directed_edges for m in self.members], dtype=np.int64
        )
        self.node_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(node_counts, out=self.node_offsets[1:])
        self.edge_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(edge_counts, out=self.edge_offsets[1:])
        n_total = int(self.node_offsets[-1])
        self.indptr = np.zeros(n_total + 1, dtype=np.int64)
        self.indices = np.empty(int(self.edge_offsets[-1]), dtype=np.int64)
        self.src = np.empty(int(self.edge_offsets[-1]), dtype=np.int64)
        for j, member in enumerate(self.members):
            ns = slice(int(self.node_offsets[j]), int(self.node_offsets[j + 1]))
            es = slice(int(self.edge_offsets[j]), int(self.edge_offsets[j + 1]))
            self.indptr[ns.start + 1 : ns.stop + 1] = (
                member.indptr[1:] + self.edge_offsets[j]
            )
            self.indices[es] = member.indices + self.node_offsets[j]
            self.src[es] = member.src + self.node_offsets[j]
        self.instance_id = np.repeat(
            np.arange(k, dtype=np.int64), node_counts
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_graphs(cls, graphs: Sequence[Any]) -> "BatchCSRGraph":
        """Freeze k ``networkx`` graphs into one block-diagonal batch.

        One global ``fromiter`` / ``argsort`` / ``bincount`` over every
        member's edges replaces k per-graph freezes, so the fixed numpy
        dispatch cost of freezing amortizes across the whole batch — for
        many small instances this is where batching starts paying,
        before the first round kernel even runs.  The member
        :class:`~repro.sim.engine.CSRGraph`\\ s carved back out of the
        global arrays are value-identical to
        :meth:`CSRGraph.from_networkx` on each graph (same stable-sort
        edge order), so per-instance fallbacks and sub-batches see
        exactly what a per-graph freeze would have produced.
        """
        gs = list(graphs)
        for g in gs:
            if g.is_directed():
                raise ValueError(
                    "CSRGraph (and the vectorized fast paths) support "
                    "undirected graphs only; got a directed graph. Convert "
                    "explicitly with graph.to_undirected() if that is "
                    "intended."
                )
        k = len(gs)
        nodes_list = [tuple(sorted(g.nodes)) for g in gs]
        index_list = [{v: i for i, v in enumerate(nt)} for nt in nodes_list]
        node_counts = np.fromiter(
            (len(nt) for nt in nodes_list), dtype=np.int64, count=k
        )
        node_offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(node_counts, out=node_offsets[1:])
        n_total = int(node_offsets[-1])
        m_total = sum(g.number_of_edges() for g in gs)

        def _endpoints():
            for g, idx, off in zip(gs, index_list, node_offsets.tolist()):
                for u, v in g.edges:
                    yield idx[u] + off
                    yield idx[v] + off

        flat = np.fromiter(_endpoints(), dtype=np.int64, count=2 * m_total)
        eu, ev = flat[0::2], flat[1::2]
        src_all = np.concatenate([eu, ev])
        dst_all = np.concatenate([ev, eu])
        # Stable sort by (global) source: member node ranges are disjoint
        # and increasing, so this both groups edges by member and — within
        # a member — reproduces from_networkx's [eu..., ev...] tie order.
        order = np.argsort(src_all, kind="stable")
        indices = dst_all[order]
        counts = (
            np.bincount(src_all, minlength=n_total)
            if m_total
            else np.zeros(n_total, dtype=np.int64)
        )
        indptr = np.zeros(n_total + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        edge_offsets = indptr[node_offsets]

        members = []
        for j in range(k):
            n0, n1 = int(node_offsets[j]), int(node_offsets[j + 1])
            e0, e1 = int(edge_offsets[j]), int(edge_offsets[j + 1])
            members.append(
                CSRGraph(
                    n1 - n0,
                    nodes_list[j],
                    index_list[j],
                    indptr[n0 : n1 + 1] - e0,
                    indices[e0:e1] - n0,
                )
            )

        batch = cls.__new__(cls)
        batch.members = tuple(members)
        batch.k = k
        batch.node_offsets = node_offsets
        batch.edge_offsets = edge_offsets
        batch.indptr = indptr
        batch.indices = indices
        batch.src = np.repeat(np.arange(n_total, dtype=np.int64), counts)
        batch.instance_id = np.repeat(
            np.arange(k, dtype=np.int64), node_counts
        )
        return batch

    @classmethod
    def from_csrs(cls, csrs: Sequence[CSRGraph]) -> "BatchCSRGraph":
        """Pack already-frozen member CSRs (cheap array concatenation)."""
        return cls(csrs)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Total dense node count across all members (duck-types as
        ``CSRGraph.n`` for the shared engine kernels)."""
        return int(self.node_offsets[-1])

    @property
    def num_directed_edges(self) -> int:
        """Total directed edge slots across all members."""
        return int(self.edge_offsets[-1])

    @property
    def edge_instance_id(self) -> np.ndarray:
        """Per directed edge slot, the owning member's batch index."""
        return np.repeat(
            np.arange(self.k, dtype=np.int64), np.diff(self.edge_offsets)
        )

    def node_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous dense node range."""
        return slice(int(self.node_offsets[j]), int(self.node_offsets[j + 1]))

    def edge_slice(self, j: int) -> slice:
        """Member ``j``'s contiguous directed edge range."""
        return slice(int(self.edge_offsets[j]), int(self.edge_offsets[j + 1]))

    # ------------------------------------------------------------------
    def gather(
        self, mappings: Sequence[Mapping[Any, int]], dtype: type = np.int64
    ) -> np.ndarray:
        """One dense array from k label-keyed mappings (member order)."""
        if len(mappings) != self.k:
            raise ValueError(
                f"gather expects {self.k} mappings, got {len(mappings)}"
            )
        if not self.k:
            return np.empty(0, dtype=dtype)
        return np.concatenate(
            [m.gather(mapping, dtype) for m, mapping in zip(self.members, mappings)]
        )

    def scatter(self, values: np.ndarray) -> list[dict[Any, int]]:
        """k label-keyed dicts from one dense per-node array."""
        return [
            member.scatter(values[self.node_slice(j)])
            for j, member in enumerate(self.members)
        ]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Per-member views of a dense per-node array (no copies)."""
        return [values[self.node_slice(j)] for j in range(self.k)]


# ----------------------------------------------------------------------
# small shared plumbing
# ----------------------------------------------------------------------
class _MultiPhase:
    """Enter the same profiler phase on every attached recorder at once."""

    def __init__(self, recorders: Sequence["RunRecorder | None"], name: str):
        self._cms = [
            r.profiler.phase(name) for r in recorders if r is not None
        ]

    def __enter__(self):
        for cm in self._cms:
            cm.__enter__()
        return None

    def __exit__(self, *exc):
        for cm in reversed(self._cms):
            cm.__exit__(*exc)
        return False


def _phase_all(recorders: Sequence["RunRecorder | None"], name: str):
    return _MultiPhase(recorders, name) if recorders else nullcontext()


def _seq_arg(value, k: int, name: str) -> list:
    """Normalize an optional per-instance sequence argument."""
    if value is None:
        return [None] * k
    out = list(value)
    if len(out) != k:
        raise ValueError(f"{name} must have one entry per instance "
                         f"({k}), got {len(out)}")
    return out


def _int_list(value, k: int, name: str) -> list[int]:
    """Normalize an int-or-sequence argument (scalar broadcasts)."""
    if isinstance(value, (list, tuple)):
        if len(value) != k:
            raise ValueError(f"{name} must have one entry per instance "
                             f"({k}), got {len(value)}")
        return [int(v) for v in value]
    return [int(value)] * k


def _drain(
    instances: list["BatchInstance"],
    recorders: Sequence["RunRecorder | None"],
    finalize_recorders: bool = True,
) -> list:
    """Step ``instances`` to completion inside one ``rounds`` phase and
    return each outcome (result triple or per-instance exception).

    Records are flushed after the phase closes, so their timings include
    it; a halted instance always flushes its partial record — the same
    post-mortem contract as ``SyncNetwork.run``'s halt path — while a
    completed one flushes only when ``finalize_recorders`` (a composing
    caller finalizes against merged metrics itself).
    """
    for inst in instances:
        inst.flush_recorder = False
    with _phase_all(recorders, "rounds"):
        LinialBatchStepper(instances).run_to_completion()
    for inst in instances:
        if inst.recorder is not None and (
            inst.error is not None or finalize_recorders
        ):
            inst.flush_record()
    return [inst.outcome() for inst in instances]


def _raise_or_return(results: list, return_exceptions: bool) -> list:
    if not return_exceptions:
        for r in results:
            if isinstance(r, BaseException):
                raise r
    return results


# ----------------------------------------------------------------------
# round-kernel tiles
# ----------------------------------------------------------------------
#: Node-count cap per round-kernel tile.  One monolithic (q, n_total)
#: evaluation grid falls out of cache once n_total reaches the tens of
#: thousands and goes memory-bound — measurably *slower* than the
#: per-instance loop it replaces — while tiles of a few thousand nodes
#: keep the working set cache-resident and still amortize dispatch over
#: dozens of small instances.
_TILE_NODES = 2048


def _node_tiles(
    js: list[int], node_counts: list[int], cap: int = _TILE_NODES
) -> list[tuple[int, ...]]:
    """Partition member indices into contiguous tiles of <= ``cap`` total
    nodes (a member larger than ``cap`` gets a tile of its own)."""
    tiles: list[tuple[int, ...]] = []
    cur: list[int] = []
    cur_n = 0
    for j in js:
        if cur and cur_n + node_counts[j] > cap:
            tiles.append(tuple(cur))
            cur, cur_n = [], 0
        cur.append(j)
        cur_n += node_counts[j]
    if cur:
        tiles.append(tuple(cur))
    return tiles


# ----------------------------------------------------------------------
# public batched kernels
# ----------------------------------------------------------------------
def linial_vectorized_batch(
    graphs: Sequence[Any],
    initial_colors: Sequence[dict[int, int] | None] | None = None,
    defect: int | Sequence[int] = 0,
    recorders: Sequence["RunRecorder | None"] | None = None,
    faults: Sequence[Any] | None = None,
    return_exceptions: bool = False,
    _batch: BatchCSRGraph | None = None,
    _finalize_recorders: bool = True,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.linial_vectorized`.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance, identical to k independent single-instance runs (outputs,
    palettes, metrics, and — with ``recorders`` — obs rows including
    fault columns).  ``initial_colors``/``recorders``/``faults`` are
    per-instance sequences (``None`` entries use the single-instance
    defaults); ``defect`` broadcasts a scalar or takes one value per
    instance.  With ``return_exceptions=True`` an instance that raises
    (a crash-stop :class:`~repro.sim.node.HaltingError`) yields the
    exception object in its slot instead of aborting the batch;
    otherwise the first error is raised after all instances finish.

    The graphs are frozen once, block-diagonally; each member becomes a
    :func:`make_batch_instance` and one :class:`LinialBatchStepper`
    drains them all — the execution core the serving daemon schedules
    on, so offline and served runs share every round.
    """
    k = _batch.k if _batch is not None else len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    plans = _seq_arg(faults, k, "faults")
    inits = _seq_arg(initial_colors, k, "initial_colors")
    defects = _int_list(defect, k, "defect")

    with _phase_all(recs, "csr_build"):
        batch = _batch if _batch is not None else BatchCSRGraph.from_graphs(graphs)
    with _phase_all(recs, "schedule"):
        instances = [
            make_batch_instance(
                csr=member,
                initial_colors=inits[j],
                defect=defects[j],
                faults=plans[j],
                recorder=recs[j],
            )
            for j, member in enumerate(batch.members)
        ]
    results = _drain(instances, recs, _finalize_recorders)
    return _raise_or_return(results, return_exceptions)


def _segments(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten ragged per-segment ranges: (flat indices, segment id,
    within-segment position)."""
    total = int(counts.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    offs = np.zeros(counts.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=offs[1:])
    within = np.arange(total, dtype=np.int64) - offs[seg]
    return np.repeat(starts, counts) + within, seg, within


# ----------------------------------------------------------------------
# batched FK24 simple iterative list-defective coloring
# ----------------------------------------------------------------------
def fk24_vectorized_batch(
    graphs: Sequence[Any],
    lists: Sequence[Mapping[Any, Any] | None] | None = None,
    space_size: int | Sequence[int | None] | None = None,
    defect: int | Sequence[int] = 1,
    recorders: Sequence["RunRecorder | None"] | None = None,
    faults: Sequence[Any] | None = None,
    return_exceptions: bool = False,
    adoption_outs: Sequence[dict | None] | None = None,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.fk24_vectorized`.

    Returns one ``(ColoringResult, RunMetrics, palette)`` triple per
    instance — including the later-to-earlier adoption orientation on
    each result — identical to k independent single-instance runs
    (outputs, palettes, metrics, obs rows incl. fault columns).
    ``lists``/``recorders``/``faults``/``adoption_outs`` are per-instance
    sequences (``None`` entries use single-instance defaults);
    ``space_size``/``defect`` broadcast scalars or take one value per
    instance.  With ``return_exceptions=True`` an instance that halts
    (round-budget exhaustion under an adversarial plan) yields its
    :class:`~repro.sim.node.HaltingError` in place, siblings unaffected.

    The graphs are frozen once, block-diagonally; each member becomes a
    :func:`make_fk24_instance` and one :class:`LinialBatchStepper`
    drains them all.  FK24 instances are not packed: each advances
    through its own round every step (measured no slower than a packed
    FK24 round loop, see ``docs/BACKENDS.md``).
    """
    gs = list(graphs)
    k = len(gs)
    recs = _seq_arg(recorders, k, "recorders")
    plans = _seq_arg(faults, k, "faults")
    lists_seq = _seq_arg(lists, k, "lists")
    outs_seq = _seq_arg(adoption_outs, k, "adoption_outs")
    defects = _int_list(defect, k, "defect")
    spaces = _seq_arg(
        space_size if isinstance(space_size, (list, tuple)) else [space_size] * k,
        k,
        "space_size",
    )

    with _phase_all(recs, "csr_build"):
        batch = BatchCSRGraph.from_graphs(gs)
    with _phase_all(recs, "schedule"):
        instances = [
            make_fk24_instance(
                gs[j],
                csr=member,
                lists=lists_seq[j],
                space_size=spaces[j],
                defect=defects[j],
                faults=plans[j],
                recorder=recs[j],
            )
            for j, member in enumerate(batch.members)
        ]
    results = _drain(instances, recs)
    for inst, out in zip(instances, outs_seq):
        if out is not None and inst.error is None:
            out.update(inst.adoption())
    return _raise_or_return(results, return_exceptions)


def greedy_list_vectorized_batch(
    instances: Sequence[Any],
    return_exceptions: bool = False,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.greedy_list_vectorized`
    (zero-defect list instances, default sorted-label order).

    The sequential greedy is order-dependent *within* an instance but
    independent *across* instances, so the batch runs in waves: wave
    ``t`` colors the ``t``-th node (in sorted label order — dense index
    ``t``, since CSR node labels are sorted) of every still-running
    instance in one vectorized first-free-color scan.  Within an
    instance the waves replay the exact sequential order, so outputs
    match the single-instance path node for node.  A stuck instance
    fails with the identical ``ValueError`` and stops; siblings keep
    coloring.  Returns one :class:`~repro.core.coloring.ColoringResult`
    per instance (or the exception, with ``return_exceptions=True``).
    """
    k = len(instances)
    errors: list[BaseException | None] = [None] * k
    for j, inst in enumerate(instances):
        if inst.directed:
            errors[j] = ValueError(
                "greedy_list_vectorized expects an undirected instance"
            )
        elif any(d for dv in inst.defects.values() for d in dv.values()):
            errors[j] = ValueError(
                "greedy_list_vectorized handles zero-defect instances only; "
                "use repro.algorithms.greedy.greedy_list_coloring for defects"
            )
    valid = [j for j in range(k) if errors[j] is None]
    results: list = [None] * k

    if valid:
        batch = BatchCSRGraph.from_graphs([instances[j].graph for j in valid])
        list_indptr = np.zeros(batch.n + 1, dtype=np.int64)
        value_parts: list[np.ndarray] = []
        offset = 0
        for pos, j in enumerate(valid):
            lp, lv = ragged_lists(batch.members[pos], instances[j].lists)
            sl = batch.node_slice(pos)
            list_indptr[sl.start + 1 : sl.stop + 1] = lp[1:] + offset
            offset += int(lv.shape[0])
            value_parts.append(lv)
        list_values = (
            np.concatenate(value_parts) if value_parts else np.empty(0, np.int64)
        )
        space = int(list_values.max()) + 1 if list_values.size else 1
        final = np.full(batch.n, -1, dtype=np.int64)
        failed = np.zeros(len(valid), dtype=bool)
        max_n = max(m.n for m in batch.members) if batch.k else 0

        for t in range(max_n):
            wave = [
                p
                for p in range(len(valid))
                if not failed[p] and t < batch.members[p].n
            ]
            if not wave:
                continue
            wave_nodes = np.array(
                [batch.node_offsets[p] + t for p in wave], dtype=np.int64
            )
            nstarts = batch.indptr[wave_nodes]
            ncounts = batch.indptr[wave_nodes + 1] - nstarts
            npos, nseg, _ = _segments(nstarts, ncounts)
            ncol = final[batch.indices[npos]]
            seen = ncol >= 0
            taken_keys = nseg[seen] * space + ncol[seen]

            lstarts = list_indptr[wave_nodes]
            lcounts = list_indptr[wave_nodes + 1] - lstarts
            lpos, lseg, lwithin = _segments(lstarts, lcounts)
            cand = list_values[lpos]
            free = ~np.isin(lseg * space + cand, taken_keys)
            pos_masked = np.where(free, lwithin, _NO_PICK)
            loffs = np.zeros(len(wave), dtype=np.int64)
            np.cumsum(lcounts[:-1], out=loffs[1:])
            firsts = np.full(len(wave), _NO_PICK, dtype=np.int64)
            nonempty = lcounts > 0
            if pos_masked.size:
                firsts[nonempty] = np.minimum.reduceat(
                    pos_masked, loffs[nonempty]
                )
            good = firsts < _NO_PICK
            if good.any():
                gsel = np.nonzero(good)[0]
                final[wave_nodes[gsel]] = list_values[
                    lstarts[gsel] + firsts[gsel]
                ]
            for p_idx in np.nonzero(~good)[0]:
                p = wave[p_idx]
                errors[valid[p]] = ValueError(
                    f"greedy stuck at node {batch.members[p].nodes[t]}"
                )
                failed[p] = True

        for pos, j in enumerate(valid):
            if errors[j] is None:
                results[j] = ColoringResult(
                    batch.members[pos].scatter(final[batch.node_slice(pos)])
                )

    for j in range(k):
        if errors[j] is not None:
            results[j] = errors[j]
    return _raise_or_return(results, return_exceptions)


def defective_split_vectorized_batch(
    graphs: Sequence[Any],
    defect: int | Sequence[int] = 1,
    validate: bool = True,
    recorders: Sequence["RunRecorder | None"] | None = None,
    return_exceptions: bool = False,
) -> list:
    """Batched twin of :func:`repro.sim.vectorized.defective_split_vectorized`.

    One block-diagonal Linial run followed by one batch-wide defect
    validation (a single integer bincount across all instances, judged
    per instance against that instance's budget).  Returns one
    ``(classes, metrics, palette)`` triple per instance, identical to
    the single-instance path; a member failing validation yields the
    identical ``ValueError``.
    """
    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    defects = _int_list(defect, k, "defect")
    errors: list[BaseException | None] = [None] * k
    for j, d in enumerate(defects):
        if d < 0:
            errors[j] = ValueError(f"defect must be >= 0, got {d}")
    valid = [j for j in range(k) if errors[j] is None]
    results: list = [None] * k

    if valid:
        valid_recs = [recs[j] for j in valid]
        with _phase_all(valid_recs, "csr_build"):
            batch = BatchCSRGraph.from_graphs([graphs[j] for j in valid])
        inner = linial_vectorized_batch(
            [graphs[j] for j in valid],
            defect=[defects[j] for j in valid],
            recorders=valid_recs,
            return_exceptions=True,
            _batch=batch,
            _finalize_recorders=False,
        )
        if validate:
            with _phase_all(valid_recs, "validate"):
                colors = np.full(batch.n, -1, dtype=np.int64)
                for pos, out in enumerate(inner):
                    if isinstance(out, BaseException):
                        continue
                    colors[batch.node_slice(pos)] = batch.members[pos].gather(
                        out[0].assignment
                    )
                same = equal_neighbor_counts(batch, colors)
                for pos, j in enumerate(valid):
                    if isinstance(inner[pos], BaseException):
                        continue
                    seg = same[batch.node_slice(pos)]
                    if seg.size and int(seg.max()) > defects[j]:
                        bad = batch.members[pos].nodes[int(np.argmax(seg))]
                        errors[j] = ValueError(
                            f"defective split invalid: node {bad} has "
                            f"{int(seg.max())} same-class neighbors "
                            f"(allowed {defects[j]})"
                        )
        for pos, j in enumerate(valid):
            out = inner[pos]
            if isinstance(out, BaseException):
                errors[j] = out
                continue
            if errors[j] is not None:
                continue  # validation failure: no finalize, like the single path
            res, metrics, palette = out
            member = batch.members[pos]
            if recs[j] is not None:
                recs[j].finalize(
                    metrics,
                    n=member.n,
                    m=member.num_directed_edges // 2,
                    palette=palette,
                    algorithm=recs[j].algorithm or "defective_split_vectorized",
                )
            results[j] = (dict(res.assignment), metrics, palette)

    for j in range(k):
        if errors[j] is not None:
            results[j] = errors[j]
    return _raise_or_return(results, return_exceptions)


def classic_delta_plus_one_vectorized_batch(
    graphs: Sequence[Any],
    recorders: Sequence["RunRecorder | None"] | None = None,
    return_exceptions: bool = False,
) -> list:
    """Batched twin of
    :func:`repro.sim.vectorized.classic_delta_plus_one_vectorized`.

    The Linial stage runs block-diagonal; the per-class schedule
    reduction runs per instance (its round structure is data-dependent);
    metrics merge through :func:`merge_sequential_batch` with each
    instance's **own** CONGEST budget stated explicitly as the budget of
    record — never a silently unified scalar.  Returns one
    ``(ColoringResult, RunMetrics)`` pair per instance.
    """
    from .vectorized import schedule_reduction_vectorized

    k = len(graphs)
    recs = _seq_arg(recorders, k, "recorders")
    inner = linial_vectorized_batch(
        graphs,
        recorders=recs,
        return_exceptions=True,
        _finalize_recorders=False,
    )
    results: list = [None] * k
    firsts: list[RunMetrics] = []
    seconds: list[RunMetrics] = []
    limits: list[int] = []
    staged: list[tuple[int, ColoringResult, int]] = []
    for j in range(k):
        out = inner[j]
        if isinstance(out, BaseException):
            results[j] = out
            continue
        pre, m1, _palette = out
        graph = graphs[j]
        delta = max((d for _, d in graph.degree), default=0)
        res, m2 = schedule_reduction_vectorized(
            graph,
            pre.assignment,
            delta + 1,
            recorder=recs[j],
            _finalize_recorder=False,
        )
        firsts.append(m1)
        seconds.append(m2)
        limits.append(congest_bandwidth(graph.number_of_nodes()))
        staged.append((j, res, delta))
    merged_list = merge_sequential_batch(firsts, seconds, bandwidth_limits=limits)
    for (j, res, delta), merged in zip(staged, merged_list):
        graph = graphs[j]
        if recs[j] is not None:
            recs[j].finalize(
                merged,
                n=graph.number_of_nodes(),
                m=graph.number_of_edges(),
                palette=delta + 1,
                algorithm=recs[j].algorithm or "classic_vectorized",
            )
        results[j] = (res, merged)
    return _raise_or_return(results, return_exceptions)


# ----------------------------------------------------------------------
# round-stepped driver (continuous batching substrate)
# ----------------------------------------------------------------------
class BatchInstance:
    """One Linial instance's complete state inside a round-stepped run.

    The :class:`LinialBatchStepper` owns the round loop, so a serving
    scheduler can evict finished instances and admit queued ones between
    rounds (continuous batching).  A ``BatchInstance`` is therefore one
    instance's progress made explicit and portable: its CSR, schedule,
    current colors, per-node step counters, metrics, and (optionally) the
    :class:`~repro.faults.FaultPlan` adversary with its local round
    clock and pending-delivery buffer.  Because a Linial run is a pure
    function of ``(colors, schedule[, plan])`` and no round kernel ever
    reads across an instance boundary, an instance computes the
    *identical* result no matter which batch composition — or admission
    round — each of its steps executed under.

    The lifecycle (``uid``, :attr:`complete`, :meth:`finalize`,
    :meth:`flush_record`, :meth:`outcome`, ``rounds_resident``) and the
    faulty delivery machinery are shared with :class:`Fk24Instance`.
    Build instances with :func:`make_batch_instance`; drive them with
    :class:`LinialBatchStepper`.
    """

    _next_uid = 0
    #: Whether :meth:`finalize` also finalizes the attached recorder.  The
    #: drain drivers clear it and call :meth:`flush_record` once their
    #: ``rounds`` profiler phase has closed, so the record's timings
    #: include that phase.
    flush_recorder = True
    #: The algorithm name a record is finalized under when its recorder
    #: names none.
    algorithm = "linial_vectorized"

    def __init__(
        self,
        csr: CSRGraph,
        sched: list,
        colors: np.ndarray,
        *,
        palette: int,
        bits: int,
        plan=None,
        recorder: "RunRecorder | None" = None,
    ) -> None:
        self._setup(csr, colors, palette, bits, plan, recorder, len(sched))
        self.sched = sched
        self.step = 0
        if plan is not None:
            self._steps = np.zeros(csr.n, dtype=np.int64)

    def _setup(
        self, csr, colors, palette, bits, plan, recorder, budget: int
    ) -> None:
        """The state every instance kind shares: identity, outputs,
        accounting, and the local round clock with its ``budget``
        (stretched by the plan, whose label arrays it also freezes)."""
        BatchInstance._next_uid += 1
        #: Stable identity across repacks (assigned at construction).
        self.uid = BatchInstance._next_uid
        self.csr = csr
        self.colors = colors
        self.palette = palette
        self.bits = bits
        self.plan = plan
        self.recorder = recorder
        self.metrics = synthesized_metrics(csr.n)
        self.rounds_resident = 0
        self.error: BaseException | None = None
        self.result: tuple | None = None
        self._sealed = False
        self._rnd = 0
        self._budget = budget if plan is None else plan.round_budget(budget)
        if plan is not None:
            from ..faults.plan import node_labels_u64

            self._labels = node_labels_u64(csr.nodes)
            self._src_labels = self._labels[csr.src]
            self._dst_labels = self._labels[csr.indices]
            self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """True once the instance needs no further rounds (done or halted)."""
        if self.error is not None:
            return True
        if self.plan is None:
            return self.step >= len(self.sched)
        return not bool((self._steps < len(self.sched)).any())

    @property
    def finished(self) -> bool:
        """True once :meth:`finalize` sealed the instance's outcome."""
        return self._sealed

    def pack_key(self) -> tuple[int, int] | None:
        """The ``(q, deg)`` group the stepper packs this instance's next
        round into, or ``None`` when it runs its own round
        (:meth:`advance`) — as every faulty instance does."""
        if self.plan is not None:
            return None
        step = self.sched[self.step]
        return step.q, step.deg

    def advance(self) -> None:
        """Run this instance's next round on its own: the faulty round
        (fault-free Linial rounds are packed by the stepper)."""
        self._faulty_round()

    # ------------------------------------------------------------------
    def finalize(self, algorithm: str | None = None) -> None:
        """Seal the outcome: build the result triple (or flush the halt).

        A halted instance flushes its partial per-round record before the
        error is surfaced; a completed one produces the same
        ``(ColoringResult, RunMetrics, palette)`` triple as its
        single-instance twin.
        """
        if self._sealed:
            return
        self._sealed = True
        if self.recorder is not None and self.flush_recorder:
            self.flush_record(algorithm)
        if self.error is None:
            self.result = (self._coloring(), self.metrics, self.palette)

    def _coloring(self) -> ColoringResult:
        return ColoringResult(self.csr.scatter(self.colors))

    def flush_record(self, algorithm: str | None = None) -> None:
        """Finalize the attached recorder against this run's metrics."""
        self.recorder.finalize(
            self.metrics,
            n=self.csr.n,
            m=self.csr.num_directed_edges // 2,
            palette=self.palette,
            algorithm=self.recorder.algorithm or algorithm or self.algorithm,
        )

    def outcome(self):
        """The finished result triple, or the per-instance exception."""
        if not self.finished:
            raise RuntimeError("instance has not finished; step it first")
        return self.error if self.error is not None else self.result

    # ------------------------------------------------------------------
    def _over_budget(self, unfinished: np.ndarray) -> bool:
        """Halt the instance if its round budget is spent: the same
        :class:`~repro.sim.node.HaltingError` (rounds, unfinished nodes)
        the reference simulator raises."""
        if self._rnd < self._budget:
            return False
        self.error = HaltingError(
            rounds=self._rnd,
            unfinished=[self.csr.nodes[i] for i in np.nonzero(unfinished)[0]],
        )
        return True

    def _deliver(
        self, alive: np.ndarray, transmit: np.ndarray, payload: np.ndarray
    ) -> tuple[np.ndarray, dict[str, int]]:
        """One faulty round's deliveries on the instance's local clock.

        Returns the per-edge value each receiver decodes this round
        (``-1``: nothing arrived) and the round's fault counts.  Mirrors
        the reference simulator's delivery semantics edge for edge:
        ``transmit`` marks the edges carrying ``payload`` this round,
        fates come from the plan's vectorized hash (pinned equal to the
        scalar hash), delayed and duplicated copies sit in a per-round
        pending buffer whose stale entries are overwritten by fresher
        same-edge deliveries, and deliveries to crashed receivers are
        discarded.  Plan queries use the instance's own round counter and
        label arrays, so an instance admitted at any global round replays
        exactly the adversary its standalone run would.
        """
        from ..faults.plan import (
            FATE_CORRUPT,
            FATE_DELAY,
            FATE_DELIVER,
            FATE_DROP,
            FATE_DUPLICATE,
        )

        csr, plan, rnd = self.csr, self.plan, self._rnd
        counts = dict.fromkeys(
            ("dropped", "corrupted", "delayed", "duplicated"), 0
        )
        counts["crashed"] = int(csr.n - alive.sum())
        delivered = np.full(csr.num_directed_edges, -1, dtype=np.int64)
        for edge_idx, values in self._pending.pop(rnd, ()):
            delivered[edge_idx] = values
        if transmit.any():
            codes, delays = plan.edge_fates(
                rnd, self._src_labels, self._dst_labels
            )
            codes = np.where(transmit, codes, -1)
            counts["dropped"] = int((codes == FATE_DROP).sum())
            counts["corrupted"] = int((codes == FATE_CORRUPT).sum())
            counts["delayed"] = int((codes == FATE_DELAY).sum())
            counts["duplicated"] = int((codes == FATE_DUPLICATE).sum())
            for code in (FATE_DELAY, FATE_DUPLICATE):
                idx = np.nonzero(codes == code)[0]
                for d in np.unique(delays[idx]):
                    sel = idx[delays[idx] == d]
                    self._pending.setdefault(rnd + int(d), []).append(
                        (sel, payload[sel].copy())
                    )
            now = (codes == FATE_DELIVER) | (codes == FATE_DUPLICATE)
            delivered[now] = payload[now]
            corrupt = codes == FATE_CORRUPT
            if corrupt.any():
                delivered[corrupt] = plan.corrupt_values(
                    rnd,
                    self._src_labels[corrupt],
                    self._dst_labels[corrupt],
                    payload[corrupt],
                )
        delivered[~alive[csr.indices]] = -1
        return delivered, counts

    def _faulty_round(self) -> None:
        """One faulty round on this instance's *local* clock — the only
        faulty Linial round; every engine runs fault plans through it.

        Transmissions come from active+alive senders (:meth:`_deliver`
        applies the plan), and receivers decode only payloads inside
        their step's ``q^(deg+1)`` domain.  Nodes advance one schedule
        step per round they are up, so crash outages leave step *skew* —
        distinct steps are processed group by group, exactly like the
        per-node reference receive.
        """
        csr = self.csr
        n = csr.n
        active = self._steps < len(self.sched)
        if self._over_budget(active):
            return
        alive = ~self.plan.crashed_mask(self._rnd, self._labels)
        transmit = (active & alive)[csr.src]
        delivered, counts = self._deliver(alive, transmit, self.colors[csr.src])

        receiving = active & alive
        new_colors = self.colors.copy()
        for s in np.unique(self._steps[receiving]):
            step = self.sched[s]
            q, deg = step.q, step.deg
            domain = q ** (deg + 1)
            group = receiving & (self._steps == s)
            own_evals = poly_eval_grid(poly_digits(self.colors, q, deg), q)
            edge_ok = (
                group[csr.indices] & (delivered >= 0) & (delivered < domain)
            )
            hits = np.zeros((q, n), dtype=np.int64)
            if edge_ok.any():
                edge_dst = csr.indices[edge_ok]
                edge_evals = poly_eval_grid(
                    poly_digits(delivered[edge_ok], q, deg), q
                )
                match = edge_evals == own_evals[:, edge_dst]
                for x in range(q):
                    hits[x] = np.bincount(edge_dst[match[x]], minlength=n)
            members = np.nonzero(group)[0]
            best_x = np.argmin(hits[:, members], axis=0)
            new_colors[members] = best_x * q + own_evals[best_x, members]
        self.colors = new_colors
        self._steps[receiving] += 1

        record_uniform_round(
            self.metrics,
            self.recorder,
            int(transmit.sum()),
            self.bits,
            active=int(active.sum()),
            faults=counts,
        )
        self._rnd += 1


class Fk24Instance(BatchInstance):
    """One [FK24] list-defective instance inside a round-stepped run.

    The state of :func:`repro.algorithms.fk24.run_fk24` as arrays: per
    node a status (trying / announcing / done), adopted color and
    adoption round, the ragged color lists, and a ``(n, space)`` count of
    known takers per color; under a plan also the last ``took`` color
    decoded on each directed edge.  Its rounds run on its own CSR and
    its own round clock (so ``adopted`` is the instance's round, whatever
    global round the stepper is on): :meth:`_plain_round` is the only
    fault-free FK24 round and :meth:`_faulty_round` the only faulty one.
    The lifecycle is :class:`BatchInstance`'s; the stepper never packs
    an FK24 instance, it :meth:`advance`\\ s it alone.

    Build instances with :func:`make_fk24_instance`.
    """

    algorithm = "fk24_vectorized"

    def __init__(
        self,
        graph: Any,
        csr: CSRGraph,
        lists: Mapping[Any, tuple[int, ...]],
        *,
        space: int,
        defect: int,
        plan=None,
        recorder: "RunRecorder | None" = None,
    ) -> None:
        from ..algorithms.fk24 import fk24_round_budget

        n = csr.n
        self._setup(
            csr,
            np.full(n, -1, dtype=np.int64),
            space,
            int_bits(max(1, 2 * space - 1)),
            plan,
            recorder,
            fk24_round_budget(lists.values(), n),
        )
        #: The graph the adoption orientation is built over.
        self.graph = graph
        self.list_indptr, self.list_values = ragged_lists(csr, lists)
        self.owner = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(self.list_indptr)
        )
        self.defect_arr = np.full(n, defect, dtype=np.int64)
        self.status = np.zeros(n, dtype=np.int64)  # 0 trying, 1 announcing, 2 done
        self.adopted = np.full(n, -1, dtype=np.int64)
        self.counts = np.zeros((n, max(1, space)), dtype=np.int64)
        if plan is not None:
            self._know = np.full(csr.num_directed_edges, -1, dtype=np.int64)

    @property
    def complete(self) -> bool:
        """True once every node is done, or the instance halted."""
        return self.error is not None or not bool((self.status < 2).any())

    def pack_key(self) -> None:
        """FK24 rounds are never packed (see :func:`fk24_vectorized_batch`)."""
        return None

    def advance(self) -> None:
        """Run this instance's next round (fault-free or faulty)."""
        if self.plan is None:
            self._plain_round()
        else:
            self._faulty_round()

    def adoption(self) -> dict[Any, int]:
        """Each node's adoption round (``-1``: never adopted)."""
        return self.csr.scatter(self.adopted)

    def _coloring(self) -> ColoringResult:
        return ColoringResult(
            self.csr.scatter(self.colors),
            orientation_from_priority(self.graph, self.adoption()),
        )

    # ------------------------------------------------------------------
    def _candidates(self, trying: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First viable list color per trying node: ``(has_cand, cand_color)``.

        Position ``p`` (owned by node ``owner[p]``, carrying color
        ``list_values[p]``) is viable when at most ``defect`` known
        neighbors hold that color.  The candidate is the first viable
        position in the node's original list order — exactly the
        reference's ``for x in L_v`` scan, using the counts as of the end
        of the previous round (the reference picks in ``send``).
        """
        n = self.csr.n
        indptr, values, owner = self.list_indptr, self.list_values, self.owner
        total = values.shape[0]
        if total:
            viable = self.counts[owner, values] <= self.defect_arr[owner]
            masked = np.where(viable, np.arange(total, dtype=np.int64), _NO_PICK)
            # reduceat quirks: clip trailing starts into range and
            # overwrite empty segments (their reduceat slot holds a
            # neighbor segment's element) with the no-candidate sentinel
            starts = np.minimum(indptr[:-1], total - 1)
            first = np.minimum.reduceat(masked, starts)
            first[np.diff(indptr) == 0] = _NO_PICK
        else:
            first = np.full(n, _NO_PICK, dtype=np.int64)
        has_cand = trying & (first < _NO_PICK)
        cand_color = np.zeros(n, dtype=np.int64)
        cand_color[has_cand] = values[first[has_cand]]
        return has_cand, cand_color

    def _adopt(
        self,
        cand: np.ndarray,
        cand_color: np.ndarray,
        load: np.ndarray,
        halting: np.ndarray,
    ) -> None:
        """Close a round: ``halting`` announcers are done, and every
        candidate whose load (known takers plus stronger same-round
        triers of its color) fits the defect budget adopts it."""
        adopt = cand & (load <= self.defect_arr)
        self.status[halting] = 2
        self.status[adopt] = 1
        self.colors[adopt] = cand_color[adopt]
        self.adopted[adopt] = self._rnd

    def _plain_round(self) -> None:
        """The fault-free FK24 round.

        Knowledge is the ``(n, space)`` counts matrix updated
        incrementally — valid because fault-free every adopter announces
        its color exactly once with guaranteed delivery, so per-sender
        knowledge equals the delivered-announcement multiset.  Adoption
        re-checks against counts updated with this round's announcements
        plus same-round smaller-label rivals trying the same color (dense
        index order equals sorted label order, so the index comparison is
        the reference's ``u < view.id``).
        """
        csr, status, counts = self.csr, self.status, self.counts
        active = status < 2
        if self._over_budget(active):
            return
        trying = status == 0
        announcing = status == 1
        has_cand, cand_color = self._candidates(trying)
        sending = has_cand | announcing
        msgs = int(csr.degrees[sending].sum())
        # this round's announcements update everyone's knowledge first
        took_edge = announcing[csr.src]
        if took_edge.any():
            np.add.at(
                counts,
                (csr.indices[took_edge], self.colors[csr.src[took_edge]]),
                1,
            )
        taken = np.zeros(csr.n, dtype=np.int64)
        cand = np.nonzero(has_cand)[0]
        taken[cand] = counts[cand, cand_color[cand]]
        conflict = (
            has_cand[csr.src]
            & has_cand[csr.indices]
            & (csr.src < csr.indices)
            & (cand_color[csr.src] == cand_color[csr.indices])
        )
        stronger = np.bincount(csr.indices[conflict], minlength=csr.n)
        self._adopt(has_cand, cand_color, taken + stronger, announcing)
        record_uniform_round(
            self.metrics,
            self.recorder,
            msgs,
            self.bits,
            active=int(active.sum()),
        )
        self._rnd += 1

    def _faulty_round(self) -> None:
        """The faulty FK24 round (deliveries through :meth:`_deliver`).

        Knowledge is per directed edge (``_know[e]`` = last decoded
        ``took`` color on ``e``) because under corruption a sender's
        announcement can differ per round — the counts matrix is adjusted
        incrementally as entries change.  Payloads encode ``tag * space +
        color``; decoders discard anything outside ``[0, 2 * space)``
        exactly like the reference's inbox filter.
        """
        csr, status, counts, space = self.csr, self.status, self.counts, self.palette
        active = status < 2
        if self._over_budget(active):
            return
        alive = ~self.plan.crashed_mask(self._rnd, self._labels)
        trying = status == 0
        announcing = status == 1
        has_cand, cand_color = self._candidates(trying)
        transmit = ((has_cand | announcing) & alive)[csr.src]
        payload = np.where(
            announcing[csr.src],
            space + self.colors[csr.src],
            cand_color[csr.src],
        )
        delivered, fcounts = self._deliver(alive, transmit, payload)

        # decode: knowledge updates for this round's took deliveries, with
        # the counts matrix adjusted where an edge's knowledge changed
        tk = np.nonzero((delivered >= space) & (delivered < 2 * space))[0]
        if tk.size:
            newv = delivered[tk] - space
            oldv = self._know[tk]
            chg = oldv != newv
            tk, newv, oldv = tk[chg], newv[chg], oldv[chg]
            dec = oldv >= 0
            if dec.any():
                np.add.at(counts, (csr.indices[tk[dec]], oldv[dec]), -1)
            if tk.size:
                np.add.at(counts, (csr.indices[tk], newv), 1)
                self._know[tk] = newv
        is_try = (delivered >= 0) & (delivered < space)
        receiver_cand = has_cand & alive
        taken = np.zeros(csr.n, dtype=np.int64)
        cand = np.nonzero(receiver_cand)[0]
        taken[cand] = counts[cand, cand_color[cand]]
        conflict = (
            is_try
            & receiver_cand[csr.indices]
            & (csr.src < csr.indices)
            & (delivered == cand_color[csr.indices])
        )
        stronger = np.bincount(csr.indices[conflict], minlength=csr.n)
        self._adopt(
            receiver_cand, cand_color, taken + stronger, announcing & alive
        )
        record_uniform_round(
            self.metrics,
            self.recorder,
            int(transmit.sum()),
            self.bits,
            active=int(active.sum()),
            faults=fcounts,
        )
        self._rnd += 1


@lru_cache(maxsize=1024)
def _schedule(m0: int, delta: int, defect: int) -> tuple:
    """The Linial schedule for ``(m0, delta, defect)``, computed once per
    distinct key — batches and served traffic repeat keys constantly."""
    from ..algorithms.linial import defective_schedule, linial_schedule

    if defect == 0:
        return tuple(linial_schedule(m0, delta))
    return tuple(defective_schedule(m0, delta, defect))


def make_batch_instance(
    graph: Any = None,
    *,
    csr: CSRGraph | None = None,
    initial_colors: dict[Any, int] | None = None,
    defect: int = 0,
    faults=None,
    recorder: "RunRecorder | None" = None,
) -> BatchInstance:
    """Freeze one Linial request into a steppable :class:`BatchInstance`.

    Mirrors :func:`~repro.sim.vectorized.linial_vectorized`'s setup
    exactly — identity initial colors by default, the zero-defect
    :func:`~repro.algorithms.linial.linial_schedule` or the
    defect-``d`` :func:`~repro.algorithms.linial.defective_schedule`,
    the same palette and per-message bit width — so stepping the
    instance to completion (under any batch composition) reproduces the
    single-instance triple bit for bit.  ``csr`` lets a caller that
    already froze the topology skip the second freeze.
    """
    if csr is None:
        if graph is None:
            raise ValueError("make_batch_instance needs a graph or a csr")
        csr = CSRGraph.from_networkx(graph)
    n = csr.n
    delta = int(csr.degrees.max()) if n else 0
    if initial_colors is None:
        m0 = n if n else 1
        colors = np.arange(n, dtype=np.int64)
    else:
        m0 = max(initial_colors.values()) + 1 if initial_colors else 1
        colors = csr.gather(initial_colors)
    sched = _schedule(m0, delta, int(defect))
    palette = sched[-1].out_colors if sched else m0
    return BatchInstance(
        csr,
        sched,
        colors,
        palette=palette,
        bits=int_bits(max(1, m0 - 1)),
        plan=faults,
        recorder=recorder,
    )


def make_fk24_instance(
    graph: Any,
    *,
    csr: CSRGraph | None = None,
    lists: Mapping[Any, Any] | None = None,
    space_size: int | None = None,
    defect: int = 1,
    faults=None,
    recorder: "RunRecorder | None" = None,
) -> Fk24Instance:
    """Freeze one [FK24] request into a steppable :class:`Fk24Instance`.

    Inputs resolve through :func:`repro.algorithms.fk24.fk24_inputs`,
    exactly as :func:`~repro.algorithms.fk24.run_fk24` resolves them
    (default lists and space, and the same ``ValueError`` for a list
    color outside the space or a negative defect), so stepping the
    instance to completion reproduces the reference triple bit for bit.
    ``csr`` lets a caller that already froze ``graph`` skip the second
    freeze.
    """
    from ..algorithms.fk24 import fk24_inputs

    if csr is None:
        csr = CSRGraph.from_networkx(graph)
    lists, space = fk24_inputs(graph, lists, space_size, int(defect))
    return Fk24Instance(
        graph,
        csr,
        lists,
        space=space,
        defect=int(defect),
        plan=faults,
        recorder=recorder,
    )


class StepReport:
    """What one :meth:`LinialBatchStepper.step` round did.

    ``finished`` is the round's newly sealed instances (completed *or*
    halted — check :attr:`BatchInstance.error`), already evicted from the
    stepper's live set; ``live`` counts the instances that participated,
    ``groups`` the distinct ``(q, deg)`` kernel groups the plain Linial
    cohort packed into plus one per instance that ran its own round, and
    ``round_index`` the stepper's global round clock.
    """

    __slots__ = ("round_index", "live", "groups", "finished")

    def __init__(
        self,
        round_index: int,
        live: int,
        groups: int,
        finished: tuple[BatchInstance, ...],
    ) -> None:
        self.round_index = round_index
        self.live = live
        self.groups = groups
        self.finished = finished


class LinialBatchStepper:
    """Round-stepped execution with mid-run repacking.

    The continuous-batching substrate :mod:`repro.serve` schedules on:
    the caller owns the round loop — :meth:`admit` new instances between
    rounds, :meth:`step` one synchronous round over the current
    membership, and collect the step's ``finished`` instances (their
    slots are free immediately; per-instance termination masks are
    literal here, a finished instance simply leaves the membership).

    It is the only Linial and FK24 execution core:
    :func:`linial_vectorized_batch` and :func:`fk24_vectorized_batch`
    drain one, and their single-instance twins in
    :mod:`repro.sim.vectorized` are batches of one.  Each round, live
    fault-free Linial instances are grouped by their current schedule
    step's ``(q, deg)`` (:meth:`BatchInstance.pack_key`) and each group
    runs :func:`~repro.sim.engine.linial_round` block-diagonally in
    cache-sized tiles (:data:`_TILE_NODES`); a multi-instance tile's
    packed :class:`BatchCSRGraph` is reused from the previous round while
    the tile's membership is unchanged (only the current round's tiles
    are kept, so memory stays bounded under continuous admission).  Every
    other instance — faulty Linial and every :class:`Fk24Instance` — runs
    its own local-clock round via :meth:`BatchInstance.advance`.  Because
    no kernel ever reads across an instance boundary, every instance's
    final triple is bit-identical to its single-instance run regardless
    of when it was admitted or which siblings shared its rounds — the
    property ``tests/test_serve.py`` pins and ``benchmarks/bench_serve.py``
    re-asserts end to end against the offline batched engine.
    """

    def __init__(self, instances: Sequence[BatchInstance] = ()) -> None:
        self._live: list[BatchInstance] = []
        self._sealed_at_admit: list[BatchInstance] = []
        self._round = 0
        #: Last round's packed multi-instance tiles, keyed by member uids.
        self._tiles: dict[tuple[int, ...], BatchCSRGraph] = {}
        for inst in instances:
            self.admit(inst)

    # ------------------------------------------------------------------
    @property
    def round_index(self) -> int:
        """Global rounds stepped so far."""
        return self._round

    @property
    def occupancy(self) -> int:
        """Live instances currently packed (the batch's fill level)."""
        return len(self._live)

    @property
    def live(self) -> tuple[BatchInstance, ...]:
        """The current membership, admission order (per-round view)."""
        return tuple(self._live)

    @property
    def drained(self) -> bool:
        """True when a :meth:`step` would have nothing to do or report.

        Covers both live instances and instances sealed at admission
        that still await delivery through a step's ``finished`` list.
        """
        return not self._live and not self._sealed_at_admit

    # ------------------------------------------------------------------
    def admit(self, inst: BatchInstance) -> BatchInstance:
        """Add an instance to the membership, effective next round.

        An instance that needs no rounds at all (empty schedule) is
        sealed immediately and reported in the next step's ``finished``
        — it never occupies a slot.
        """
        if inst.finished:
            raise ValueError("cannot admit an already-finished instance")
        if inst.complete:
            inst.finalize()
            self._sealed_at_admit.append(inst)
        else:
            self._live.append(inst)
        return inst

    def evict(self, inst: BatchInstance) -> bool:
        """Remove an instance from the membership without finishing it.

        The deadline-enforcement hook for serving schedulers: an
        instance whose request can no longer meet its latency budget
        leaves the batch immediately — its slot refills next admission
        — instead of burning rounds on an answer nobody is waiting for.
        Its partial state is abandoned (no :meth:`BatchInstance.finalize`),
        so it never appears in a later step's ``finished`` list.  Because
        the block-diagonal kernels never read across instance
        boundaries, removing a member mid-run cannot perturb any
        sibling's colors.  Returns whether the instance was resident.
        """
        for members in (self._live, self._sealed_at_admit):
            try:
                members.remove(inst)
                return True
            except ValueError:
                continue
        return False

    def step(self) -> StepReport:
        """Run one synchronous round over the current membership.

        Finished instances (including any sealed at admission since the
        last step) are evicted from the membership and returned in the
        report; the freed slots are available to :meth:`admit` before
        the next round — which is all continuous batching is.
        """
        finished: list[BatchInstance] = self._sealed_at_admit
        self._sealed_at_admit = []
        live = list(self._live)
        plain: list[BatchInstance] = []
        solo: list[BatchInstance] = []
        groups: dict[tuple[int, int], list[BatchInstance]] = {}
        for inst in live:
            key = inst.pack_key()
            if key is None:
                solo.append(inst)
            else:
                plain.append(inst)
                groups.setdefault(key, []).append(inst)
        tiles: dict[tuple[int, ...], BatchCSRGraph] = {}
        for (q, deg), members in sorted(groups.items()):
            node_counts = [m.csr.n for m in members]
            for tile in _node_tiles(list(range(len(members))), node_counts):
                tile_members = [members[p] for p in tile]
                if len(tile_members) == 1:
                    m = tile_members[0]
                    m.colors = linial_round(m.csr, m.colors, q, deg)
                    continue
                key = tuple(m.uid for m in tile_members)
                sub = self._tiles.get(key)
                if sub is None:
                    sub = BatchCSRGraph.from_csrs([m.csr for m in tile_members])
                tiles[key] = sub
                colors = linial_round(
                    sub, np.concatenate([m.colors for m in tile_members]), q, deg
                )
                for j, m in enumerate(tile_members):
                    m.colors = colors[sub.node_slice(j)]
        self._tiles = tiles
        for inst in plain:
            record_uniform_round(
                inst.metrics,
                inst.recorder,
                inst.csr.num_directed_edges,
                inst.bits,
                active=inst.csr.n,
            )
            inst.step += 1

        for inst in solo:
            inst.advance()

        still_live: list[BatchInstance] = []
        for inst in live:
            inst.rounds_resident += 1
            if inst.complete:
                inst.finalize()
                finished.append(inst)
            else:
                still_live.append(inst)
        self._live = still_live
        self._round += 1
        return StepReport(
            round_index=self._round - 1,
            live=len(live),
            groups=len(groups) + len(solo),
            finished=tuple(finished),
        )

    def run_to_completion(self) -> list[BatchInstance]:
        """Step until the membership drains (static batch-and-drain mode).

        The offline counterpart of a serving loop: how the Linial and
        FK24 drivers in this module and :mod:`repro.sim.vectorized` run
        their rounds.
        """
        done: list[BatchInstance] = []
        while self._live or self._sealed_at_admit:
            done.extend(self.step().finished)
        return done


def merge_sequential_batch(
    firsts: Sequence[RunMetrics],
    seconds: Sequence[RunMetrics],
    *,
    bandwidth_limits: Sequence[int | None] | int | None,
) -> list[RunMetrics]:
    """Per-instance :meth:`~repro.sim.metrics.RunMetrics.merge_sequential`
    with an **explicit budget of record per instance**.

    ``bandwidth_limits`` is normally one limit per instance (each
    instance's own CONGEST budget).  A scalar is accepted only when it
    matches every instance's native limit — a batch mixing budgets (e.g.
    cells of different ``n``) raises ``ValueError`` instead of silently
    unifying the budgets under one number, which would misattribute
    bandwidth violations across instances.
    """
    firsts = list(firsts)
    seconds = list(seconds)
    if len(firsts) != len(seconds):
        raise ValueError(
            f"merge_sequential_batch: {len(firsts)} first-phase vs "
            f"{len(seconds)} second-phase metrics"
        )
    k = len(firsts)
    if bandwidth_limits is None or isinstance(bandwidth_limits, int):
        native = {
            m.bandwidth_limit
            for m in [*firsts, *seconds]
            if m.bandwidth_limit is not None
        }
        if native - ({bandwidth_limits} if bandwidth_limits is not None else set()):
            raise ValueError(
                "merge_sequential_batch: mixed-budget batch — instances "
                f"carry bandwidth limits {sorted(native)} but a single "
                f"limit {bandwidth_limits!r} was given; pass one explicit "
                "bandwidth limit per instance (the budget of record is "
                "per-instance, never silently unified)"
            )
        limits: list[int | None] = [bandwidth_limits] * k
    else:
        limits = list(bandwidth_limits)
        if len(limits) != k:
            raise ValueError(
                f"merge_sequential_batch: {len(limits)} bandwidth limits "
                f"for {k} instances"
            )
    return [
        first.merge_sequential(second, bandwidth_limit=limit)
        for first, second, limit in zip(firsts, seconds, limits)
    ]
