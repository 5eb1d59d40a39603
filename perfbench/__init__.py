"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload sweep-4x25k --seed 0 --seconds 20 --trace 0

``BENCHMARK.json`` at the repository root names the workloads and every
metric; ``perfbench/README.md`` says what each metric measures on each
workload and which end-to-end metric each per-layer metric should move.
"""
