"""``serve-closed-loop``: ``repro-cli serve`` driven over ``nproc`` connections.

The only workload that crosses the socket, the JSON protocol, per-request
graph building, the continuous-batching scheduler and
``LinialBatchStepper``.  Closed loop, because a connection answers its
requests in order; an open loop would need more connections than there
are cores.

The daemon runs in its own process with the default config.  Main path:
one client process (this one) sends the pinned ``synth_requests`` set
round-robin over ``nproc`` connections, each waiting for its reply before
sending the next.  Alt path: the same requests colored in-process by
``linial_vectorized_batch`` in groups of the daemon's ``max_batch``,
which is also the reference every served coloring must equal.

A daemon pass's CPU time is the client's plus the daemon's, read from
the daemon's per-thread ``schedstat`` before and after the pass.

The daemon and the client share one CPU while requests are in flight.
Left to the kernel, the two processes sometimes land on one CPU and
sometimes on two; on a two-core virtual machine a wakeup across CPUs
cost milliseconds, and the same code measured 1.4 s or 2.3 s per 1000
requests (p99 7 ms or 20 ms) depending on that placement.  On one CPU every round
trip is a local wakeup.  The in-process alt path runs unpinned.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import re
import socket
import subprocess
import sys
from pathlib import Path
from typing import Any

from ..harness import ROOT, Samples, Stopwatch, Workload, percentile
from ..tracing import Tracer

HOST = "127.0.0.1"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def coloring_digest(colors: dict, palette: Any) -> str:
    """Digest of a coloring and its palette, equal for the daemon's
    ``{"3": 1}`` and an engine's ``{3: 1}``.  The runs keep digests, not
    colorings, so that outputs kept across rounds give the garbage
    collector nothing more to scan in later rounds."""
    canon = sorted((int(v), int(c)) for v, c in colors.items())
    return hashlib.blake2b(repr((canon, palette)).encode(), digest_size=16).hexdigest()


class ServeWorkload(Workload):
    name = "serve-closed-loop"
    PARAMS = {
        "full": {"requests": 1000, "connections": None},
        "tiny": {"requests": 40, "connections": None},
    }
    ALIASES = {
        "serve_ok_rps": "main_items_per_cpu_s",
        "serve_p50_ms": "op_p50_ms (wall clock, not gated; serve.client_ms_p50 when traced)",
        "serve_p99_ms": "op_p99_ms (wall clock, not gated; serve.client_ms_p99 when traced)",
        "fail_frac": "1 - ok_frac",
    }

    def setup(self, seed: int, params: dict[str, Any], work: Path) -> dict[str, Any]:
        import repro.sim.batch  # noqa: F401
        from repro.serve import ServeClient, synth_requests

        requests = synth_requests(seed, params["requests"])
        affinity = os.sched_getaffinity(0)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        os.sched_setaffinity(0, {min(affinity)})  # the daemon inherits it
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", HOST, "--port", "0"],
                cwd=work,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
        finally:
            os.sched_setaffinity(0, affinity)
        ctx = {
            "proc": proc,
            "affinity": affinity,
            "port": None,
            "requests": requests,
            "connections": params["connections"] or os.cpu_count() or 1,
            "passes": [],
            "offline": [],
            "replays": [],
        }
        try:
            assert proc.stdout is not None
            banner = proc.stdout.readline()
            match = re.search(r"listening on [\d.]+:(\d+)", banner)
            if not match:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            ctx["port"] = int(match.group(1))
            if not asyncio.run(ServeClient(HOST, ctx["port"], timeout=30).ping()):
                raise RuntimeError("daemon does not answer ping")
        except BaseException:
            self.teardown(ctx)
            raise
        return ctx

    # ------------------------------------------------------------------
    def _daemon_pass(self, ctx: dict[str, Any], samples: Samples):
        from repro.serve import fire_traffic

        os.sched_setaffinity(0, {min(ctx["affinity"])})
        try:
            with Stopwatch(self.pids(ctx)) as watch:
                report = asyncio.run(
                    fire_traffic(
                        HOST, ctx["port"], ctx["requests"], clients=ctx["connections"], timeout=60
                    )
                )
        finally:
            os.sched_setaffinity(0, ctx["affinity"])
        ctx["passes"].append([self._entry(r) for r in report.responses])
        samples.outcome(len(ctx["requests"]), len(ctx["requests"]) - report.completed_ok)
        return watch, report

    def _entry(self, response: Any) -> tuple:
        """What a pass keeps of one response for the gates."""
        return (
            response.request_id,
            response.status,
            response.valid,
            coloring_digest(response.colors or {}, response.palette),
        )

    def _offline(self, ctx: dict[str, Any]) -> list[tuple[Stopwatch, int]]:
        """The requests colored in-process by ``linial_vectorized_batch`` in
        groups of the daemon's ``max_batch``; a time per group.  One batch
        of all the requests would cost what its mix of schedules happens
        to cost: 0.28-0.34 s per 1000 requests from seed to seed, against
        0.33-0.35 s in groups."""
        from repro.serve.scheduler import ServeConfig
        from repro.sim.batch import linial_vectorized_batch

        requests = ctx["requests"]
        size = ServeConfig().max_batch
        timings = []
        digests = {}
        for start in range(0, len(requests), size):
            group = requests[start : start + size]
            with Stopwatch() as watch:
                outs = linial_vectorized_batch(
                    [r.build_graph() for r in group],
                    initial_colors=[r.initial_colors for r in group],
                    defect=[r.defect for r in group],
                )
            timings.append((watch, len(group)))
            for r, (result, _, palette) in zip(group, outs):
                digests[r.request_id] = coloring_digest(result.assignment, int(palette))
        ctx["offline"].append(digests)
        return timings

    def round(self, ctx: dict[str, Any], samples: Samples) -> None:
        watch, report = self._daemon_pass(ctx, samples)
        samples.main.add("requests", watch, report.completed_ok)
        samples.op_ms.append([lat * 1000.0 for lat in report.latencies])
        for group, (watch, count) in enumerate(self._offline(ctx)):
            samples.alt.add(f"group{group}", watch, count)

    def gates(self, ctx: dict[str, Any]) -> list[str]:
        return serve_gates(ctx["passes"], ctx["offline"], ctx["replays"])

    # ------------------------------------------------------------------
    def _replay(self, requests: list, tracer: Tracer | None) -> dict:
        """The daemon's per-request work, in-process and in its order:
        decode, build, continuous-batched rounds, validate, encode."""
        from contextlib import nullcontext

        from repro.core.validate import validate_defective_coloring, validate_proper_coloring
        from repro.serve import ServeRequest, ServeResponse, decode_line, encode_line
        from repro.serve.scheduler import ServeConfig
        from repro.sim.batch import LinialBatchStepper, make_batch_instance

        def span(name: str):
            return nullcontext() if tracer is None else tracer.span(name)

        lines = [encode_line({"op": "color", "request": r.to_dict()}) for r in requests]
        max_batch = ServeConfig().max_batch
        colorings: dict[str, Any] = {}
        queue = []
        for line in lines:
            with span("serve.decode"):
                request = ServeRequest.from_dict(decode_line(line)["request"])
            with span("serve.build"):
                graph = request.build_graph()
                instance = make_batch_instance(
                    graph,
                    initial_colors=request.initial_colors,
                    defect=request.defect,
                    faults=request.fault_plan(),
                )
            queue.append((request, graph, instance))
        queue.reverse()
        owners = {inst.uid: (req, graph) for req, graph, inst in queue}
        stepper = LinialBatchStepper()
        while queue or not stepper.drained:
            while queue and stepper.occupancy < max_batch:
                stepper.admit(queue.pop()[2])
            with span("batch.step"):
                report = stepper.step()
            for instance in report.finished:
                request, graph = owners[instance.uid]
                result, metrics, palette = instance.outcome()
                with span("serve.validate"):
                    check = (
                        validate_proper_coloring(graph, result)
                        if request.defect == 0
                        else validate_defective_coloring(graph, result, request.defect)
                    )
                with span("serve.encode"):
                    response = ServeResponse(
                        status="ok",
                        request_id=request.request_id,
                        colors={str(v): int(c) for v, c in result.assignment.items()},
                        palette=int(palette),
                        rounds=int(metrics.rounds),
                        total_bits=int(metrics.total_bits),
                        valid=bool(check.ok),
                    )
                    decode_line(encode_line(response.to_dict()))
                colorings[request.request_id] = (
                    coloring_digest(result.assignment, int(palette)),
                    check.ok,
                )
        return colorings

    def trace(self, ctx: dict[str, Any], tracer: Tracer, samples: Samples):
        from repro.serve import ServeClient, encode_line

        _, report = self._daemon_pass(ctx, samples)
        stats = asyncio.run(ServeClient(HOST, ctx["port"], timeout=30).stats())
        self._offline(ctx)
        with Stopwatch() as untraced:
            self._replay(ctx["requests"], None)
        with Stopwatch() as traced, tracer.span("serve.replay"):
            colorings = self._replay(ctx["requests"], tracer)
        ctx["replays"].append(colorings)

        ok = [
            (lat * 1000.0, r)
            for lat, r in zip(report.latencies, report.responses)
            if r.status == "ok"
        ]
        latency = [lat for lat, _ in ok]
        queue_ms = [r.timing["queue_ms"] for _, r in ok]
        service_ms = [r.timing["service_ms"] for _, r in ok]
        outside = [lat - r.timing["total_ms"] for lat, r in ok]
        count = len(ctx["requests"])
        per_request_ms = {
            part: tracer.self_s(f"serve.{part}") * 1000.0 / count
            for part in ("decode", "build", "validate", "encode")
        }
        explained = _mean(queue_ms) + _mean(service_ms) + sum(per_request_ms.values())
        metrics = {
            "serve.client_ms_p50": percentile(latency, 50),
            "serve.client_ms_p99": percentile(latency, 99),
            "serve.queue_ms_p50": percentile(queue_ms, 50),
            "serve.service_ms_p50": percentile(service_ms, 50),
            "serve.outside_ms_p50": percentile(outside, 50),
            "serve.decode_ms": per_request_ms["decode"],
            "serve.build_ms": per_request_ms["build"],
            "serve.validate_ms": per_request_ms["validate"],
            "serve.encode_ms": per_request_ms["encode"],
            "serve.occupancy_mean": stats["occupancy_stats"].get("mean_occupancy", 0.0),
            "serve.response_bytes": _mean(
                [float(len(encode_line(r.to_dict()))) for _, r in ok]
            ),
            "batch.step_s": tracer.self_s("batch.step"),
            "unattributed_frac": 1.0 - explained / _mean(latency),
            "trace_overhead_frac": traced.cpu / untraced.cpu - 1.0,
        }
        required = ["serve.decode", "serve.build", "batch.step", "serve.validate", "serve.encode"]
        return metrics, required

    # ------------------------------------------------------------------
    def pids(self, ctx: dict[str, Any]) -> tuple[int, ...]:
        return (ctx["proc"].pid,)

    def peak_rss_mb(self, ctx: dict[str, Any]) -> float:
        """The daemon's high-water RSS, read while it is still running."""
        status = Path(f"/proc/{ctx['proc'].pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        if not match:
            raise RuntimeError("daemon VmHWM not readable")
        return int(match.group(1)) / 1024.0

    def teardown(self, ctx: dict[str, Any]) -> dict[str, int]:
        from repro.serve import ServeClient

        proc: subprocess.Popen = ctx["proc"]
        if ctx["port"] is not None and proc.poll() is None:
            try:
                asyncio.run(ServeClient(HOST, ctx["port"], timeout=30).shutdown())
            except (OSError, asyncio.TimeoutError):
                pass
        try:
            proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        port_busy = 0
        if ctx["port"] is not None:
            # free = a new listener can take the port; SO_REUSEADDR lets the
            # bind through the closed connections' TIME_WAIT entries, never
            # past a socket that still listens
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                try:
                    probe.bind((HOST, ctx["port"]))
                    probe.listen(1)
                except OSError:
                    port_busy = 1
        return {"daemon_bad_exit": int(proc.returncode != 0), "daemon_port_busy": port_busy}


def serve_gates(
    passes: list[list[tuple]], offline: list[dict], replays: list[dict]
) -> list[str]:
    """Every ``ok`` response valid and bit-identical (colors and palette) to
    ``linial_vectorized_batch`` on the same request; every offline
    replay agrees with the first."""
    if not passes or not offline:
        return ["serve: no daemon pass or offline replay ran"]
    failures: list[str] = []
    reference = offline[0]
    replayed = [{rid: digest for rid, (digest, _) in r.items()} for r in replays]
    for other in offline[1:] + replayed:
        for request_id, digest in other.items():
            if reference.get(request_id) != digest:
                failures.append(f"serve: offline replays differ on {request_id}")
                break
    for replay in replays:
        bad = [rid for rid, (_, valid) in replay.items() if not valid]
        if bad:
            failures.append(f"serve: replayed colorings invalid: {bad[:5]}")
    for number, responses in enumerate(passes):
        for request_id, status, valid, digest in responses:
            if status != "ok":
                continue
            expected = reference.get(request_id)
            if expected is None:
                failures.append(f"serve pass {number}: unknown request id {request_id!r}")
            elif valid is not True:
                failures.append(f"serve pass {number}: {request_id} not validated")
            elif digest != expected:
                failures.append(
                    f"serve pass {number}: {request_id} differs from linial_vectorized_batch"
                )
    return failures
