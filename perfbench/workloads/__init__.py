"""The benchmark's workloads, by the name ``BENCHMARK.json`` gives them."""

from __future__ import annotations

from ..harness import Workload


def get(name: str) -> Workload:
    from .fuzz import FuzzWorkload
    from .partition import PartitionWorkload
    from .serve import ServeWorkload
    from .sweep import SweepWorkload

    table = {
        w.name: w
        for w in (SweepWorkload, FuzzWorkload, ServeWorkload, PartitionWorkload)
    }
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; options: {sorted(table)}")
    return table[name]()
