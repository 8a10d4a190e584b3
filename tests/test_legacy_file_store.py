"""The retired ``file:`` store: refused as a live backend, imported by
``repro migrate --from file:DIR``.

Every legacy state directory here is written by hand — one
``jobs/<job_id>.json`` per record and one ``checkpoints/<blob_id>.json``
per blob, exactly the layout the directory backend left on disk — so
the importer is pinned to the on-disk format itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ServiceError
from repro.experiments.runner import run_experiment
from repro.obs.trace import TRACE_BLOB_VERSION, trace_blob_id
from repro.service import (
    JobRecord,
    JobResult,
    ProtectionJob,
    SqliteJobStore,
    checkpoint_to_dict,
    migrants_blob_id,
    store_from_spec,
)
from repro.service.store import LegacyFileStore

JOB = ProtectionJob(dataset="adult", generations=4, seed=7)


@pytest.fixture(scope="module")
def straight_run():
    """An uninterrupted run of ``JOB`` plus its generation-2 checkpoint."""
    midway = []
    straight = run_experiment(JOB.to_config(), checkpoint_every=2,
                              on_checkpoint=midway.append)
    assert midway[0].generation == 2
    return straight, midway[0]


def _result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id, dataset=job.dataset, seed=job.seed,
        generations=job.generations, best_score=1.5,
        best_information_loss=0.25, best_disclosure_risk=2.75,
        final_scores=(1.5, 2.0), mean_improvement_percent=3.0,
        fresh_evaluations=10, memo_hits=1, persistent_hits=0,
        wall_seconds=0.1,
    )


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def _legacy_state(root: Path, midway) -> dict[str, str]:
    """Write a legacy directory: a record in every status, a format-2
    engine checkpoint for the interrupted one, a trace blob and a
    migrant buffer.  Returns ``{role: job_id}``."""
    queued, completed, failed = (JOB.with_seed(seed) for seed in (8, 9, 10))
    records = [
        JobRecord(job=JOB, status="running", submitted_at=1.0, started_at=2.0,
                  extras={"checkpoint_every": 2}),
        JobRecord(job=queued, status="queued", submitted_at=3.0),
        JobRecord(job=completed, status="completed", submitted_at=4.0,
                  started_at=5.0, finished_at=6.0, result=_result(completed)),
        JobRecord(job=failed, status="failed", submitted_at=7.0,
                  started_at=8.0, finished_at=9.0, error="boom"),
    ]
    for record in records:
        _write(root / "jobs" / f"{record.job_id}.json", record.to_dict())
    checkpoint = checkpoint_to_dict(midway, JOB.fingerprint())
    assert checkpoint["version"] == 2
    _write(root / "checkpoints" / f"{JOB.job_id}.json", checkpoint)
    _write(root / "checkpoints" / f"{trace_blob_id(completed.job_id)}.json", {
        "version": TRACE_BLOB_VERSION, "trace_id": "0123abcd",
        "job_id": completed.job_id,
        "spans": [{"name": "repro.job", "span_id": "s1", "parent_id": "",
                   "start": 4.0, "duration": 2.0, "attrs": {}}],
    })
    _write(root / "checkpoints" / f"{migrants_blob_id(queued.job_id)}.json", {
        "version": 1, "group": "ig-legacy", "island": 0, "topology": "ring",
        "rounds": {"1": {"generation": 2, "migrants": []}},
    })
    return {"running": JOB.job_id, "queued": queued.job_id,
            "completed": completed.job_id, "failed": failed.job_id}


def _snapshot(root: Path) -> dict[str, str]:
    """Every JSON file under ``root``, canonicalized, by relative path."""
    return {str(p.relative_to(root)): _canonical(json.loads(p.read_text()))
            for p in sorted(root.rglob("*.json"))}


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True)


class TestMigrateFromFile:
    def test_every_record_and_blob_copies_byte_for_byte(
        self, tmp_path, straight_run, capsys
    ):
        legacy = tmp_path / "legacy"
        ids = _legacy_state(legacy, straight_run[1])
        before = _snapshot(legacy)
        db = legacy / "jobs.sqlite"

        assert main(["migrate", "--from", f"file:{legacy}",
                     "--to", f"sqlite:{db}"]) == 0
        assert ("migrated 4 job record(s), 1 checkpoint(s), 1 trace(s) and "
                "1 migrant blob(s)") in capsys.readouterr().out

        target = SqliteJobStore(db)
        for job_id in ids.values():
            assert (_canonical(target.get(job_id).to_dict())
                    == before[f"jobs/{job_id}.json"])
        for blob_id in (ids["running"], trace_blob_id(ids["completed"]),
                        migrants_blob_id(ids["queued"])):
            assert (_canonical(target.get_checkpoint(blob_id))
                    == before[f"checkpoints/{blob_id}.json"])
        assert target.claimed_job_ids() == []
        # The legacy directory still holds exactly what it held.
        assert _snapshot(legacy) == before

    def test_migrated_checkpoint_resumes_bit_identically(
        self, tmp_path, straight_run, capsys
    ):
        straight, midway = straight_run
        legacy = tmp_path / "legacy"
        ids = _legacy_state(legacy, midway)
        spec = f"sqlite:{legacy / 'jobs.sqlite'}"
        assert main(["migrate", "--from", f"file:{legacy}", "--to", spec]) == 0

        assert main(["resume", "--job", ids["running"], "--store", spec]) == 0
        resumed = SqliteJobStore(legacy / "jobs.sqlite").get(ids["running"])
        assert resumed.status == "completed"
        assert resumed.result.final_scores == tuple(
            float(ind.score) for ind in straight.result.population)
        assert resumed.result.best_score == float(straight.result.best.score)
        # Continued from generation 2, not restarted from scratch.
        assert resumed.result.fresh_evaluations < straight.evaluator.evaluations

    def test_migrated_state_dir_opens_as_the_database(self, tmp_path, capsys):
        legacy = tmp_path / "legacy"
        record = JobRecord(job=JOB, status="queued", submitted_at=1.0)
        _write(legacy / "jobs" / f"{record.job_id}.json", record.to_dict())
        assert main(["migrate", "--from", f"file:{legacy}",
                     "--to", f"sqlite:{legacy}/jobs.sqlite"]) == 0
        capsys.readouterr()
        assert main(["status", "--state-dir", str(legacy)]) == 0
        assert record.job_id in capsys.readouterr().out

    def test_source_without_a_jobs_directory_is_refused(self, tmp_path, capsys):
        # A typo'd source must not "succeed" at copying nothing.
        with pytest.raises(ServiceError, match="no jobs/"):
            LegacyFileStore(tmp_path / "absent")
        assert main(["migrate", "--from", f"file:{tmp_path / 'absent'}",
                     "--to", f"sqlite:{tmp_path / 'db.sqlite'}"]) == 2

    def test_unreadable_record_stops_the_import(self, tmp_path, capsys):
        (tmp_path / "legacy" / "jobs").mkdir(parents=True)
        (tmp_path / "legacy" / "jobs" / "adult-s1-x.json").write_text("{trunc")
        assert main(["migrate", "--from", f"file:{tmp_path / 'legacy'}",
                     "--to", f"sqlite:{tmp_path / 'db.sqlite'}"]) == 2
        assert "unreadable job record" in capsys.readouterr().err

    def test_importer_is_read_only(self):
        for name in ("save", "submit", "claim", "put_checkpoint"):
            assert not hasattr(LegacyFileStore, name)


class TestFileSpecsRefused:
    def test_file_spec_names_the_migrate_command(self, tmp_path):
        with pytest.raises(ServiceError) as excinfo:
            store_from_spec(f"file:{tmp_path / 'old'}")
        old = tmp_path / "old"
        assert (f"repro migrate --from file:{old} --to sqlite:{old}/jobs.sqlite"
                in str(excinfo.value))
        assert not old.exists()

    def test_file_child_of_a_shard_spec_is_refused(self, tmp_path):
        with pytest.raises(ServiceError, match="repro migrate --from file:"):
            store_from_spec(f"shard:sqlite:{tmp_path}/a.sqlite,file:{tmp_path}/b",
                            state_dir=tmp_path / "spool")

    def test_migrate_to_file_is_refused(self, tmp_path, capsys):
        source = f"sqlite:{tmp_path / 'db.sqlite'}"
        assert main(["migrate", "--from", source,
                     "--to", f"file:{tmp_path / 'back'}"]) == 2
        assert "repro migrate --from file:" in capsys.readouterr().err
        assert not (tmp_path / "back").exists()


class TestLegacyStateDirRefused:
    """An upgraded deployment must not silently get a fresh empty queue."""

    @pytest.fixture
    def legacy(self, tmp_path) -> Path:
        record = JobRecord(job=JOB, status="queued", submitted_at=1.0)
        _write(tmp_path / "legacy" / "jobs" / f"{record.job_id}.json",
               record.to_dict())
        return tmp_path / "legacy"

    def _assert_refused(self, open_store, legacy: Path) -> None:
        with pytest.raises(ServiceError) as excinfo:
            open_store()
        assert (f"repro migrate --from file:{legacy} "
                f"--to sqlite:{legacy}/jobs.sqlite") in str(excinfo.value)
        assert not (legacy / "jobs.sqlite").exists()

    def test_state_dir_is_refused(self, legacy):
        self._assert_refused(lambda: store_from_spec("", state_dir=legacy), legacy)

    def test_bare_dir_spec_is_refused(self, legacy):
        self._assert_refused(lambda: store_from_spec(str(legacy)), legacy)

    def test_default_state_dir_is_refused(self, legacy, monkeypatch):
        monkeypatch.setenv("REPRO_HOME", str(legacy))
        self._assert_refused(store_from_spec, legacy)

    def test_cli_exits_with_the_hint(self, legacy, capsys):
        assert main(["status", "--state-dir", str(legacy)]) == 2
        assert "repro migrate --from file:" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--state-dir", str(legacy)]) == 2
        assert "repro migrate --from file:" in capsys.readouterr().err
        assert not (legacy / "jobs.sqlite").exists()

    def test_explicit_sqlite_spec_still_opens(self, legacy):
        # The migrate target itself must stay openable.
        store = store_from_spec(f"sqlite:{legacy}/jobs.sqlite")
        assert store.records() == []
