"""The fuzz loop: generate → run → shrink → serialize.

:func:`fuzz_run` drives ``iterations`` rounds; each round generates one
case *per engine pair* from a seed derived deterministically from
``(seed, iteration, pair)``, so any failure names the exact generator
stream that produced it and a re-run with the same arguments retries
the identical trials.  Failures are shrunk (unless disabled) and, when a
corpus directory is given, serialized as pinned regression entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .case import FuzzCase
from .corpus import save_case
from .differential import (
    ENGINE_PAIRS,
    CaseOutcome,
    EnginePair,
    pairs_for_backend,
    run_case,
    run_cases_batched,
)
from .generator import generate_case
from .shrink import default_predicate, shrink_case


def derive_seed(seed: int, iteration: int, pair: str) -> str:
    """The per-trial generator seed (stable, human-readable provenance)."""
    return f"{seed}:{iteration}:{pair}"


@dataclass
class FuzzFailure:
    """One divergence: the raw case, its shrunk form, and the verdicts."""

    case: FuzzCase
    outcome: CaseOutcome
    shrunk: FuzzCase | None = None
    shrunk_outcome: CaseOutcome | None = None
    saved_to: Path | None = None

    def describe(self) -> str:
        out = self.outcome.describe()
        if self.shrunk is not None:
            out += f"\n  shrunk to: {self.shrunk.describe()}"
        if self.saved_to is not None:
            out += f"\n  pinned at: {self.saved_to}"
        return out


@dataclass
class FuzzReport:
    """Aggregate result of one :func:`fuzz_run`."""

    seed: int
    iterations: int
    backend: str = "vectorized"
    cases_run: int = 0
    skipped: int = 0
    per_pair: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        pairs = ", ".join(f"{p}={k}" for p, k in sorted(self.per_pair.items()))
        head = (
            f"fuzz seed={self.seed} iterations={self.iterations} "
            f"backend={self.backend}: "
            f"{self.cases_run} differential trials ({pairs}) — "
            f"{len(self.failures)} failure(s)"
        )
        if self.skipped:
            head += (
                f" [{self.skipped} fault case(s) skipped: backend "
                "does not support fault injection]"
            )
        return "\n".join([head] + [f.describe() for f in self.failures])


def fuzz_run(
    seed: int = 0,
    iterations: int = 50,
    pair_names: list[str] | None = None,
    corpus_dir: Path | str | None = None,
    shrink: bool = True,
    max_failures: int = 5,
    pairs: dict[str, EnginePair] | None = None,
    max_shrink_attempts: int = 500,
    batch_size: int = 0,
    backend: str = "vectorized",
) -> FuzzReport:
    """Run the differential fuzz loop (see module docstring).

    Parameters
    ----------
    pair_names:
        Subset of engine pairs to exercise (default: all registered).
    corpus_dir:
        When set, every shrunk failure is serialized there.
    max_failures:
        Stop early after this many distinct failures — fuzzing past a
        systemic breakage only buries the signal.
    pairs:
        Registry override for mutation tests (injected broken engines).
        Takes precedence over ``backend``.
    batch_size:
        When > 1, trials run in chunks of this size through
        :func:`~repro.fuzz.run_cases_batched` (the fast side of each
        chunk is one batched engine invocation).  Trial generation order,
        seeds, outcomes, shrinking, and pinning are unchanged — only the
        execution strategy differs.  0/1 keep the per-case loop.
    backend:
        Which :mod:`repro.sim.backends` backend supplies the fast side
        of each pair (default ``"vectorized"``).  Resolved through
        :func:`~repro.fuzz.differential.pairs_for_backend`.  When the
        backend declares ``supports_faults=False``, generated fault
        cases are counted in :attr:`FuzzReport.skipped` and not run —
        the generation stream itself is untouched, so seeds stay
        comparable across backends.
    """
    spec = None
    if pairs is not None:
        registry = pairs
    else:
        from ..sim.backends import get_backend

        spec = get_backend(backend)
        registry = pairs_for_backend(backend)
    names = list(pair_names) if pair_names is not None else list(registry)
    unknown = [p for p in names if p not in registry]
    if unknown:
        raise KeyError(
            f"unknown engine pair(s) {', '.join(unknown)}; "
            f"options: {', '.join(registry)}"
        )
    report = FuzzReport(seed=seed, iterations=iterations, backend=backend)
    skip_faults = spec is not None and not spec.supports_faults

    def runnable(case: FuzzCase) -> bool:
        """Account backend-capability skips; False drops the case."""
        if skip_faults and case.fault is not None:
            report.skipped += 1
            return False
        return True

    def handle(case: FuzzCase, outcome: CaseOutcome) -> bool:
        """Account one trial; True when the failure budget is exhausted."""
        report.cases_run += 1
        report.per_pair[case.pair] = report.per_pair.get(case.pair, 0) + 1
        if outcome.ok:
            return False
        failure = FuzzFailure(case=case, outcome=outcome)
        if shrink:
            failure.shrunk = shrink_case(
                case,
                predicate=default_predicate(pairs=registry),
                max_attempts=max_shrink_attempts,
            )
            failure.shrunk_outcome = run_case(failure.shrunk, pairs=registry)
        if corpus_dir is not None:
            failure.saved_to = save_case(
                failure.shrunk if failure.shrunk is not None else case,
                corpus_dir,
            )
        report.failures.append(failure)
        return len(report.failures) >= max_failures

    if batch_size > 1:
        queue = [
            case
            for iteration in range(iterations)
            for pair in names
            if runnable(
                case := generate_case(derive_seed(seed, iteration, pair), pair=pair)
            )
        ]
        for start in range(0, len(queue), batch_size):
            chunk = queue[start : start + batch_size]
            for case, outcome in zip(
                chunk, run_cases_batched(chunk, pairs=registry)
            ):
                if handle(case, outcome):
                    return report
        return report

    for iteration in range(iterations):
        for pair in names:
            case = generate_case(derive_seed(seed, iteration, pair), pair=pair)
            if not runnable(case):
                continue
            if handle(case, run_case(case, pairs=registry)):
                return report
    return report
