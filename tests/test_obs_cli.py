"""CLI surfaces of the telemetry layer.

``status --json`` / ``cache --json`` machine output, the run history
``status --job`` renders from ``JobResult.extras``, the
``repro top`` fleet overview, and the ``--log-json`` event stream on
the service commands.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.service import ProtectionJob, SqliteJobStore


@pytest.fixture(autouse=True)
def reset_telemetry():
    """CLI commands enable the global registry; leave it clean after."""
    yield
    obs.disable()
    obs.get_registry().reset()
    obs.configure_events(None)


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("obs-cli-state"))
    assert main([
        "submit", "--dataset", "flare", "--generations", "4",
        "--seed", "11", "--state-dir", path,
    ]) == 0
    obs.disable()
    obs.get_registry().reset()
    return path


@pytest.fixture(scope="module")
def job_id():
    return ProtectionJob(dataset="flare", generations=4, seed=11).job_id


class TestStatusJson:
    def test_list_is_json_array_of_records(self, state_dir, job_id, capsys):
        assert main(["status", "--state-dir", state_dir, "--json"]) == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["job_id"] == job_id
        assert payload["status"] == "completed"
        assert payload["result"]["best_score"] > 0
        assert payload["result"]["evaluator_stats"]["evaluations"] > 0
        assert "timeline" not in payload  # retired on purpose

    def test_single_job_includes_history(self, state_dir, job_id, capsys):
        assert main(["status", "--state-dir", state_dir,
                     "--job", job_id, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "timeline_trace" not in payload
        stored = SqliteJobStore(f"{state_dir}/jobs.sqlite").get(job_id)
        assert payload["history"] == stored.result.extras["history"]
        assert [r["generation"] for r in payload["history"]] == [1, 2, 3, 4]
        assert {r["operator"] for r in payload["history"]} <= {"mutation", "crossover"}

    def test_text_single_job_renders_history_tables(self, state_dir, job_id,
                                                    capsys):
        from repro.core import EvolutionHistory, GenerationRecord
        from repro.experiments.reporting import render_evolution, render_timing

        assert main(["status", "--state-dir", state_dir, "--job", job_id]) == 0
        out = capsys.readouterr().out
        assert "run history: 4 generation(s)" in out
        # The tables ``repro experiment`` / ``repro evolve`` print, from
        # the stored records.
        stored = SqliteJobStore(f"{state_dir}/jobs.sqlite").get(job_id)
        history = EvolutionHistory(
            [GenerationRecord.from_dict(r) for r in stored.result.extras["history"]]
        )
        assert render_evolution(history, "score evolution") in out
        assert render_timing(history, "per-generation timing") in out

    def test_record_without_history_shows_job_table_only(self, tmp_path, capsys):
        # A record finished before results carried their history.
        state = str(tmp_path / "state")
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seed", "3", "--state-dir", state]) == 0
        store = SqliteJobStore(f"{state}/jobs.sqlite")
        (record,) = store.records()
        del record.result.extras["history"]
        store.save(record)
        capsys.readouterr()
        assert main(["status", "--state-dir", state, "--job", record.job_id]) == 0
        out = capsys.readouterr().out
        assert record.job_id in out
        assert "run history" not in out and "score evolution" not in out


class TestCacheJson:
    def test_inspect(self, state_dir, capsys):
        assert main(["cache", "--state-dir", state_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] > 0
        assert payload["cache"].endswith("evaluations.sqlite")

    def test_evict_reports_bound(self, state_dir, capsys):
        assert main(["cache", "--state-dir", state_dir,
                     "--max-entries", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound"] == 5
        assert payload["entries"] <= 5
        assert "evicted" in payload


class TestTop:
    def test_text_snapshot(self, state_dir, capsys):
        assert main(["top", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "jobs: completed=1" in out
        assert "last 1m" in out

    def test_json_snapshot(self, state_dir, capsys):
        assert main(["top", "--state-dir", state_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == {"completed": 1}
        assert payload["throughput"]["1h"]["completed"] == 1
        assert payload["throughput"]["1h"]["evaluations"] > 0
        assert payload["running"] == []

    def test_running_job_listed_with_owner(self, tmp_path, capsys):
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        record = store.submit(ProtectionJob(dataset="flare", generations=2))
        store.claim(record.job_id, owner="w-live")
        store.mark_running(record)
        assert main(["top", "--state-dir", str(tmp_path / "state"),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (running,) = payload["running"]
        assert running["owner"] == "w-live"
        assert running["heartbeat_age_seconds"] is not None
        assert payload["workers"] == ["w-live"]


class TestLogJson:
    def test_worker_streams_events_to_stderr(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["submit", "--dataset", "flare", "--generations", "3",
                     "--seed", "7", "--state-dir", state, "--detach"]) == 0
        capsys.readouterr()
        assert main(["worker", "--once", "--state-dir", state,
                     "--log-json"]) == 0
        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines()]
        names = [e["event"] for e in events]
        assert names.count("generation") == 3
        assert "job_completed" in names
        for event in events:
            assert event["command"] == "worker"
            assert "worker" in event  # bound worker id on every line

    def test_submit_streams_generation_events(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["submit", "--dataset", "flare", "--generations", "2",
                     "--seed", "3", "--state-dir", state, "--log-json"]) == 0
        err = capsys.readouterr().err
        events = [json.loads(line) for line in err.splitlines()]
        assert [e["event"] for e in events].count("generation") == 2
        assert all(e["command"] == "submit" for e in events)

    def test_stdout_stays_clean_for_pipes(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["submit", "--dataset", "flare", "--generations", "2",
                     "--seed", "4", "--state-dir", state, "--detach"]) == 0
        capsys.readouterr()
        assert main(["worker", "--once", "--state-dir", state,
                     "--log-json"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            assert not line.startswith("{")  # tables only, no JSON leakage
