"""Each experiment must run in fast mode with every shape check passing."""

import pytest

from repro.experiments import EXPERIMENTS, get_runner, run_all
from repro.experiments.harness import ExperimentResult


@pytest.fixture(scope="session")
def fast_results() -> list[ExperimentResult]:
    """Every experiment's fast-mode result, computed once for the session
    (``run_all`` is exactly one ``get_runner(eid)(fast=True)`` per id, in
    sorted id order)."""
    return run_all(fast=True)


@pytest.fixture
def fast_result(fast_results, eid) -> ExperimentResult:
    """The fast-mode result of the parametrized experiment ``eid``."""
    return dict(zip(sorted(EXPERIMENTS), fast_results))[eid]


@pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
def test_experiment_checks_pass(eid, fast_result):
    result = fast_result
    assert isinstance(result, ExperimentResult)
    failing = [k for k, v in result.checks.items() if not v]
    assert not failing, f"{eid} failing checks: {failing}"


@pytest.mark.parametrize("eid", sorted(EXPERIMENTS))
def test_experiment_renders(eid, fast_result):
    result = fast_result
    out = result.render()
    assert result.experiment in out
    assert "paper claim" in out
    assert "findings" in out


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        get_runner("E99")


def test_run_all_order(fast_results):
    results = fast_results
    assert len(results) == len(EXPERIMENTS)
    ids = [r.experiment.split()[0] for r in results]
    assert ids == sorted(ids)
