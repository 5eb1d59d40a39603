"""Crash-mid-write battery for every on-disk artifact store.

Three stores persist JSON artifacts — the fuzz corpus
(:mod:`repro.fuzz.corpus`), the observability JSONL emitters
(:mod:`repro.obs.record`), and the sweep cache
(:mod:`repro.experiments.sweep`) — and all three must survive a process
dying mid-write.  The contract under test, per store:

* **writes are atomic** — payloads land through
  :func:`repro.atomic.atomic_write_text`: a *uniquely named* sibling
  temp file (pid + random token, so concurrent writers of the same
  destination can never share a staging path) plus ``os.replace``, so a
  crash leaves either the previous content or no entry, never a
  truncated file (simulated here by failing the replace and by planting
  orphaned ``.tmp`` files); a failed publish cleans up its own staging
  file, and litter from writers that died *before* cleanup is swept —
  age-gated — by :func:`repro.atomic.sweep_stale_tmp` on store loads;
* **reads are crash-tolerant** — a truncated/corrupt entry is
  quarantined as ``*.corrupt`` (or, for an append-mode JSONL, a torn
  *trailing* line is skipped with a warning) while the rest of the
  store stays readable; corruption *not* attributable to a torn write
  (a malformed line mid-file) still fails loudly.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.sweep import (
    SweepCell,
    cell_key,
    corrupt_cache_files,
    load_cached_detailed,
    store_cached,
)
from repro.fuzz import (
    corrupt_corpus_files,
    load_case,
    load_corpus,
    save_case,
)
from repro.obs import (
    ENGINE_VECTORIZED,
    RunRecord,
    append_jsonl,
    read_jsonl,
    write_jsonl,
)
from repro.sim.metrics import RunMetrics

CORPUS_DIR = Path(__file__).parent / "corpus"


def make_record(rounds: int = 2) -> RunRecord:
    metrics = RunMetrics(bandwidth_limit=64)
    for _ in range(rounds):
        metrics.observe_uniform_round(4, 8)
    return RunRecord.from_metrics(
        metrics, engine=ENGINE_VECTORIZED, algorithm="demo", n=4, m=4
    )


def pinned_case():
    return load_case(sorted(CORPUS_DIR.glob("*.json"))[0])


class TestCorpusAtomicWrites:
    def test_save_leaves_no_tmp_sibling(self, tmp_path):
        path = save_case(pinned_case(), tmp_path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        load_case(path)  # parses back

    def test_failed_replace_preserves_previous_entry(self, tmp_path, monkeypatch):
        case = pinned_case()
        path = save_case(case, tmp_path)
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr("repro.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError):
            save_case(case, tmp_path)
        # the destination is untouched, and the failed publish cleaned
        # up its own staging file instead of leaving litter
        assert path.read_text() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_orphaned_tmp_is_invisible_to_replay(self, tmp_path):
        path = save_case(pinned_case(), tmp_path)
        (tmp_path / (path.name + ".tmp")).write_text('{"truncat')
        entries = load_corpus(tmp_path)
        assert [p for p, _ in entries] == [path]


class TestCorpusQuarantine:
    def test_truncated_entry_quarantined_with_warning(self, tmp_path):
        good = save_case(pinned_case(), tmp_path)
        bad = tmp_path / "vectorized-deadbeef0000.json"
        bad.write_text('{"pair": "linial", "graph"')  # torn mid-write
        with pytest.warns(UserWarning, match="quarantined"):
            entries = load_corpus(tmp_path)
        # the readable entry still replays; the torn one is set aside
        assert [p for p, _ in entries] == [good]
        assert not bad.exists()
        quarantined = corrupt_corpus_files(tmp_path)
        assert quarantined == [bad.with_name(bad.name + ".corrupt")]
        assert quarantined[0].read_text().startswith('{"pair"')

    def test_schema_invalid_entry_quarantined(self, tmp_path):
        bad = tmp_path / "linial-000000000000.json"
        bad.write_text(json.dumps({"pair": "no_such_pair"}))
        with pytest.warns(UserWarning, match="quarantined"):
            assert load_corpus(tmp_path) == []
        assert corrupt_corpus_files(tmp_path) != []

    def test_quarantine_is_idempotent_across_replays(self, tmp_path):
        (tmp_path / "linial-111111111111.json").write_text("{")
        with pytest.warns(UserWarning):
            load_corpus(tmp_path)
        # second replay: nothing left to quarantine, no warning
        assert load_corpus(tmp_path) == []
        assert len(corrupt_corpus_files(tmp_path)) == 1


class TestJsonlAtomicWrites:
    def test_write_jsonl_leaves_no_tmp_sibling(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        write_jsonl([make_record(), make_record(3)], path)
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(read_jsonl(path)) == 2

    def test_failed_replace_preserves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "runs.jsonl"
        write_jsonl([make_record()], path)
        before = path.read_text()

        def exploding_replace(src, dst):
            raise OSError("simulated crash at publish")

        monkeypatch.setattr("repro.atomic.os.replace", exploding_replace)
        with pytest.raises(OSError):
            write_jsonl([make_record(), make_record()], path)
        assert path.read_text() == before
        assert len(read_jsonl(path)) == 1
        assert list(tmp_path.glob("*.tmp")) == []


class TestJsonlTornTail:
    def test_trailing_partial_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_jsonl(make_record(), path)
        append_jsonl(make_record(3), path)
        with open(path, "a") as fh:
            fh.write('{"schema": 2, "engine": "vect')  # interrupted append
        with pytest.warns(UserWarning, match="partial trailing line"):
            records = read_jsonl(path)
        assert len(records) == 2
        assert [r.summary["rounds"] for r in records] == [2, 3]

    def test_midfile_corruption_still_raises(self, tmp_path):
        # only a *trailing* torn line is excusable as an interrupted
        # append; garbage mid-file means something else went wrong and
        # must not be silently dropped
        path = tmp_path / "runs.jsonl"
        append_jsonl(make_record(), path)
        with open(path, "a") as fh:
            fh.write('{"torn mid\n')
        append_jsonl(make_record(), path)
        with pytest.raises(ValueError, match="malformed JSONL at line 2"):
            read_jsonl(path)

    def test_blank_lines_do_not_count_as_torn(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        append_jsonl(make_record(), path)
        with open(path, "a") as fh:
            fh.write("\n\n")
        assert len(read_jsonl(path)) == 1


class TestAtomicHelper:
    """The shared publisher in :mod:`repro.atomic` directly."""

    def test_staging_paths_are_unique_per_call(self, tmp_path):
        from repro.atomic import _staging_path

        dest = tmp_path / "cell.json"
        staged = {_staging_path(dest).name for _ in range(32)}
        # the old scheme (`path.with_suffix(".tmp")`) collapsed every
        # writer of one destination onto a single staging file; unique
        # names are what make concurrent same-destination publishes safe
        assert len(staged) == 32
        assert all(name.startswith("cell.json.") for name in staged)
        assert all(name.endswith(".tmp") for name in staged)

    def test_atomic_write_creates_parents_and_publishes(self, tmp_path):
        from repro.atomic import atomic_write_text

        dest = tmp_path / "nested" / "deep" / "out.json"
        assert atomic_write_text(dest, '{"ok": true}') == dest
        assert json.loads(dest.read_text()) == {"ok": True}
        assert list(dest.parent.glob("*.tmp")) == []

    def test_sweep_stale_tmp_is_age_gated(self, tmp_path):
        import os

        from repro.atomic import STALE_TMP_AGE_S, sweep_stale_tmp

        fresh = tmp_path / "live.json.1234.abcd1234.tmp"
        fresh.write_text("in flight")
        stale = tmp_path / "dead.json.5678.deadbeef.tmp"
        stale.write_text("orphaned")
        old = stale.stat().st_mtime - (STALE_TMP_AGE_S + 60)
        os.utime(stale, (old, old))
        removed = sweep_stale_tmp(tmp_path)
        # only the hour-old orphan goes; a live writer's staging file
        # (fresh mtime) must survive the sweep
        assert removed == [stale]
        assert fresh.exists() and not stale.exists()

    def test_sweep_missing_directory_is_a_noop(self, tmp_path):
        from repro.atomic import sweep_stale_tmp

        assert sweep_stale_tmp(tmp_path / "never_created") == []

    def test_concurrent_same_destination_publishes_both_complete(self, tmp_path):
        # the torn-publish regression: N threads all writing the same
        # destination; under the shared-staging-path scheme these could
        # interleave write/replace and publish a torn file
        import threading

        from repro.atomic import atomic_write_text

        dest = tmp_path / "contended.json"
        payloads = [json.dumps({"writer": i, "pad": "x" * 4096}) for i in range(8)]
        threads = [
            threading.Thread(target=atomic_write_text, args=(dest, p))
            for p in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # whichever writer won, the published file is one *complete*
        # payload, and no staging litter remains
        assert dest.read_text() in payloads
        assert list(tmp_path.glob("*.tmp")) == []


class TestStaleTmpSweepOnLoad:
    def test_run_sweep_reclaims_stale_cache_staging(self, tmp_path):
        import os

        from repro.atomic import STALE_TMP_AGE_S
        from repro.experiments.sweep import run_sweep

        stale = tmp_path / "orphan.json.999.cafef00d.tmp"
        stale.write_text('{"torn')
        old = stale.stat().st_mtime - (STALE_TMP_AGE_S + 60)
        os.utime(stale, (old, old))
        cell = SweepCell.make("ring", {"n": 6}, "linial_vectorized", {})
        run_sweep([cell], cache_dir=tmp_path, workers=1)
        assert not stale.exists()
        assert load_cached_detailed(tmp_path, cell)[1] == "hit"

    def test_load_corpus_reclaims_stale_staging(self, tmp_path):
        import os

        from repro.atomic import STALE_TMP_AGE_S

        good = save_case(pinned_case(), tmp_path)
        stale = tmp_path / (good.name + ".999.cafef00d.tmp")
        stale.write_text('{"torn')
        old = stale.stat().st_mtime - (STALE_TMP_AGE_S + 60)
        os.utime(stale, (old, old))
        entries = load_corpus(tmp_path)
        assert [p for p, _ in entries] == [good]
        assert not stale.exists()


class TestSweepCacheCrashSafety:
    def make_cell(self):
        return SweepCell.make("ring", {"n": 6}, "linial_vectorized", {})

    def make_cell_record(self, cell):
        from repro.experiments.sweep import SWEEP_CACHE_SCHEMA

        return {
            "schema": SWEEP_CACHE_SCHEMA,
            "key": cell_key(cell),
            "status": "ok",
            "algorithm": cell.algorithm,
        }

    def test_store_leaves_no_tmp_sibling(self, tmp_path):
        cell = self.make_cell()
        store_cached(tmp_path, self.make_cell_record(cell))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_cell_quarantined_and_recomputable(self, tmp_path):
        cell = self.make_cell()
        path = store_cached(tmp_path, self.make_cell_record(cell))
        path.write_text('{"schema": ')  # torn write from a dead worker
        record, status = load_cached_detailed(tmp_path, cell)
        assert (record, status) == (None, "corrupt")
        assert not path.exists()
        assert corrupt_cache_files(tmp_path) == [
            path.with_name(path.name + ".corrupt")
        ]
        # the slot now reads as a miss, so the cell recomputes fresh
        assert load_cached_detailed(tmp_path, cell) == (None, "miss")
