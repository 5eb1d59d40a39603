"""Run one workload in this process: set-up, timed rounds, gates, output.

Every workload emits every end-to-end metric named in ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``); the harness
checks names and units against that file before printing, so a metric a
workload forgets to measure fails the run instead of going missing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
PROBE_MARK = "perfbench-setup-done"


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cpu_seconds(pids: tuple[int, ...] = ()) -> float:
    """CPU seconds used so far by this process, its reaped children, and
    every thread of the live helper processes ``pids``.

    The pass and set-up metrics count CPU time, not wall time.  On a
    shared host the wall time of the same work stretches with time the
    hypervisor gives to other tenants (steal) and with time-slicing
    against other processes; neither is in a task's CPU clock.  Two
    processes spinning beside an inline n=100k sweep on a 2-core VM
    stretched its wall time by 44-47% and its CPU time by 0-4%.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + kids.ru_utime + kids.ru_stime
    for pid in pids:
        task_dir = Path(f"/proc/{pid}/task")
        for task in os.listdir(task_dir):
            # first field: nanoseconds on a CPU
            total += int((task_dir / task / "schedstat").read_text().split()[0]) / 1e9
    return total


class Stopwatch:
    """CPU and wall seconds of a block: ``with Stopwatch(pids) as watch``.

    Entering collects garbage first, so when the collector runs inside
    the block depends on the block's own allocations, not on what the
    rounds before it left behind.
    """

    cpu = 0.0
    wall = 0.0

    def __init__(self, pids: tuple[int, ...] = ()) -> None:
        self.pids = tuple(pids)

    def __enter__(self) -> "Stopwatch":
        gc.collect()
        self._cpu = cpu_seconds(self.pids)
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = cpu_seconds(self.pids) - self._cpu


@dataclass
class PathTimings:
    """CPU and wall times of one execution path, per unit of work, over rounds.

    A pass over the workload's inputs is one or more *units* (a fuzz
    chunk, a sweep, a request set).  A pass time is the sum over units
    of each unit's median time across rounds, so one noisy round moves
    no figure.
    """

    cpu: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    items: dict[str, list[int]] = field(default_factory=dict)

    def add(self, unit: str, watch: Stopwatch, items: int) -> None:
        self.cpu.setdefault(unit, []).append(watch.cpu)
        self.wall.setdefault(unit, []).append(watch.wall)
        self.items.setdefault(unit, []).append(items)

    @property
    def rounds(self) -> int:
        return min((len(v) for v in self.cpu.values()), default=0)

    def cpu_s(self) -> float:
        return sum(statistics.median(v) for v in self.cpu.values())

    def wall_s(self) -> float:
        return sum(statistics.median(v) for v in self.wall.values())

    def items_per_cpu_s(self) -> float:
        return sum(statistics.median(v) for v in self.items.values()) / self.cpu_s()


@dataclass
class Samples:
    """What the timed rounds measured.

    ``main`` is the workload's primary path through the program and
    ``alt`` the same inputs through its second path.  ``op_ms`` holds, per
    round, the wall-clock latency of each client-visible operation on the
    main path when the workload has many (requests); it stays empty when
    an operation is a whole pass.
    """

    main: PathTimings = field(default_factory=PathTimings)
    alt: PathTimings = field(default_factory=PathTimings)
    op_ms: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def outcome(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One named workload; subclasses live in :mod:`perfbench.workloads`.

    ``PARAMS`` maps a scale (``full`` for the benchmark, ``tiny`` for the
    benchmark's own tests) to the sizes used; the code path is the same.
    """

    name = ""
    PARAMS: dict[str, dict[str, Any]] = {}
    #: The workload-specific names each generic metric stands for here.
    ALIASES: dict[str, str] = {}
    #: Timed rounds to run even past ``--seconds``: a path with one long
    #: pass needs three rounds for its median to shed one noisy round.
    MIN_ROUNDS = 1

    def setup(self, seed: int, params: dict[str, Any], work: Path) -> Any:
        raise NotImplementedError

    def round(self, ctx: Any, samples: Samples) -> None:
        """One main pass and one alt pass over the same inputs, recorded
        per unit into ``samples.main`` and ``samples.alt``."""
        raise NotImplementedError

    def gates(self, ctx: Any) -> list[str]:
        """Correctness failures found in the outputs kept by the rounds."""
        raise NotImplementedError

    def trace(self, ctx: Any, tracer: Tracer, samples: Samples) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from a traced pass, and the span names that
        must have fired."""
        raise NotImplementedError

    def peak_rss_mb(self, ctx: Any) -> float:
        return max_rss_mb()

    def pids(self, ctx: Any) -> tuple[int, ...]:
        """Live helper processes whose CPU time counts as the program's."""
        return ()

    def teardown(self, ctx: Any) -> dict[str, int]:
        """Release everything; return resource problems as counts."""
        return {}


def max_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the resource-tracker helper that spawn-context
    multiprocessing starts, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def record_digest(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def env_stamp(seed: int) -> dict[str, Any]:
    import networkx
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# set-up probes: the set-up path, each time in a fresh process
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int, scale: str) -> tuple[float, float]:
    """CPU and wall seconds from spawning a fresh benchmark process to its
    workload being ready for the first timed operation.  The CPU time is
    the probe process's since it started (interpreter start-up and
    imports included) plus its helper processes' (the serve daemon)."""
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", "0",
        "--scale", scale,
        "--setup-probe",
    ]
    t0 = time.time()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    ready = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith(PROBE_MARK):
                ready = tuple(map(float, line.split()[1:]))
                break
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
    cpu, ready_at = ready
    return cpu, ready_at - t0


def run_setup_probe(workload: Workload, seed: int, scale: str) -> int:
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-probe-", dir=WORK_DIR))
    try:
        ctx = workload.setup(seed, workload.PARAMS[scale], work)
        cpu = cpu_seconds(workload.pids(ctx))
        print(PROBE_MARK, repr(cpu), repr(time.time()), flush=True)
        workload.teardown(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    report: dict[str, Any]

    def final_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def end_to_end(samples: Samples, setup_cpu: list[float], peak_rss_mb: float) -> dict[str, float]:
    """The generic end-to-end metrics every workload emits: CPU seconds
    (see :func:`cpu_seconds`), memory, and the share of operations that
    succeeded."""
    return {
        "setup_s": statistics.median(setup_cpu),
        "ok_frac": (samples.attempted - samples.failed) / samples.attempted,
        "peak_rss_mb": peak_rss_mb,
        "main_cpu_s": samples.main.cpu_s(),
        "alt_cpu_s": samples.alt.cpu_s(),
        "main_items_per_cpu_s": samples.main.items_per_cpu_s(),
        "alt_items_per_cpu_s": samples.alt.items_per_cpu_s(),
    }


def wall_clock(samples: Samples, setup_wall: list[float]) -> dict[str, float]:
    """The same passes in wall-clock time, reported but not gated: on a
    shared host they move with other tenants' load.  Latency percentiles
    are taken per round and their median across rounds is reported."""
    figures = {
        "setup_wall_s": statistics.median(setup_wall),
        "main_wall_s": samples.main.wall_s(),
        "alt_wall_s": samples.alt.wall_s(),
    }
    if samples.op_ms:
        figures["op_p50_ms"] = statistics.median(percentile(r, 50) for r in samples.op_ms)
        figures["op_p99_ms"] = statistics.median(percentile(r, 99) for r in samples.op_ms)
    return figures


def check_metrics(
    values: dict[str, float], declared: list[dict[str, Any]], fill_zero: bool
) -> dict[str, dict[str, Any]]:
    """Attach declared units; every declared name must be measured (per-
    layer metrics of layers a workload never enters read 0)."""
    names = [m["name"] for m in declared]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out: dict[str, dict[str, Any]] = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            if not fill_zero:
                raise KeyError(f"end-to-end metric {name!r} was not measured")
            value = 0.0
        else:
            value = float(values[name])
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
) -> RunResult:
    spec = load_spec()
    WORK_DIR.mkdir(exist_ok=True)
    # multiprocessing keeps its first shared-memory heap arena (used by
    # barriers and locks) open for the life of the process; create it
    # before the fd baseline so it is not mistaken for a leak
    from multiprocessing import heap

    heap.BufferWrapper(1)
    fds_before = open_fds()

    setup_samples: list[tuple[float, float]] = []
    if not trace:
        setup_samples = [probe_setup(workload.name, seed, scale) for _ in range(SETUP_PROBES)]
    setup_cpu = [cpu for cpu, _ in setup_samples]

    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    samples = Samples()
    layers: dict[str, float] = {}
    wall: dict[str, float] = {}
    span_table: dict[str, dict[str, float]] = {}
    failures: list[str] = []
    resources: dict[str, int] = {}
    rounds = 0
    ctx = None
    try:
        t_setup = time.perf_counter()
        ctx = workload.setup(seed, workload.PARAMS[scale], work)
        own_setup_s = time.perf_counter() - t_setup
        gc.collect()
        if trace:
            tracer = Tracer()
            try:
                layers, required = workload.trace(ctx, tracer, samples)
            finally:
                tracer.restore()
            span_table = tracer.layers()
            for name in required:
                if span_table.get(name, {}).get("count", 0) < 1:
                    failures.append(f"trace: span {name!r} never fired")
            tracer.write(WORK_DIR / "traces" / f"{workload.name}-{scale}-seed{seed}.jsonl")
        else:
            t_start = time.perf_counter()
            while True:
                t_round = time.perf_counter()
                workload.round(ctx, samples)
                rounds += 1
                last = time.perf_counter() - t_round
                if (
                    rounds >= workload.MIN_ROUNDS
                    and time.perf_counter() - t_start + last > seconds
                ):
                    break
        failures.extend(workload.gates(ctx))
        peak = workload.peak_rss_mb(ctx)
    finally:
        if ctx is not None:
            resources.update(workload.teardown(ctx))
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()
    gc.collect()
    resources["leaked_fds"] = max(0, open_fds() - fds_before)
    failures.extend(
        f"resource: {name} = {count}" for name, count in resources.items() if count
    )

    if samples.attempted < 1:
        raise RuntimeError(f"{workload.name}: no operation was attempted")
    if trace:
        metrics = check_metrics(layers, spec["per_layer"], fill_zero=True)
        sample_counts = {name: int(v["count"]) for name, v in span_table.items()}
    else:
        values = end_to_end(samples, setup_cpu, peak)
        metrics = check_metrics(values, spec["end_to_end"], fill_zero=False)
        wall = wall_clock(samples, [w for _, w in setup_samples])
        sample_counts = {
            "setup_s": len(setup_samples),
            "main_cpu_s": samples.main.rounds,
            "alt_cpu_s": samples.alt.rounds,
            "main_items_per_cpu_s": samples.main.rounds,
            "alt_items_per_cpu_s": samples.alt.rounds,
        }
        if samples.op_ms:
            sample_counts["op_p50_ms"] = sample_counts["op_p99_ms"] = sum(map(len, samples.op_ms))
    report = {
        "workload": workload.name,
        "scale": scale,
        "seconds": seconds,
        "trace": trace,
        "rounds": rounds,
        "env": env_stamp(seed),
        "samples": sample_counts,
        "own_setup_s": own_setup_s,
        "setup_samples_cpu_s": setup_cpu,
        "metrics": metrics,
        "wall_clock": wall,
        "aliases": workload.ALIASES,
        "resources": resources,
        "failures": failures,
        "spans": span_table,
    }
    out = WORK_DIR / "results" / f"{workload.name}-{scale}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    return RunResult(
        correct=not failures,
        attempted=samples.attempted,
        failed=samples.failed,
        metrics=metrics,
        report=report,
    )
