"""Run one benchmark workload and print its metrics as the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-4x25k --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced pass and prints every per-layer metric.
The exit code is 0 only when every correctness gate and resource check
passed.  Reports and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny runs the same code on small inputs (the benchmark's tests)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, workloads

    workload = workloads.get(args.workload)
    if args.setup_probe:
        return harness.run_setup_probe(workload, args.seed, args.scale)
    result = harness.run_workload(
        workload, args.seed, args.seconds, bool(args.trace), scale=args.scale
    )
    report = result.report
    print(
        f"perfbench: {workload.name} seed={args.seed} trace={args.trace} "
        f"rounds={report['rounds']} attempted={result.attempted} failed={result.failed}"
    )
    print(f"perfbench: env {report['env']}")
    for name, metric in result.metrics.items():
        count = report["samples"].get(name, "-")
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']:8s} samples={count}")
    for name, value in report["wall_clock"].items():
        count = report["samples"].get(name, "-")
        print(f"  {name:40s} {value:14.6g} (wall clock, not gated) samples={count}")
    for alias, name in workload.ALIASES.items():
        print(f"  {alias} = {name}")
    for name, count in report["resources"].items():
        print(f"  resource {name} = {count}")
    for failure in report["failures"]:
        print(f"  FAIL {failure}")
    print(result.final_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
