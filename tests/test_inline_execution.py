"""Inline ``repro submit`` and ``repro resume`` run through the worker.

Both commands are an in-process :class:`~repro.service.worker.Worker`,
so an inline job gets exactly what a ``repro worker`` drain gives it:
resume-if-resumable from the store's checkpoint, job events and
counters, claim/release trace spans, and failures reported as a
``failed:`` line with exit code 1 rather than a traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.service.runner as runner_mod
from repro import obs
from repro.cli import main
from repro.obs import trace
from repro.service import ProtectionJob, SqliteJobStore


@pytest.fixture(autouse=True)
def quiet_telemetry():
    """Registry, tracer and event log are process-global; reset them."""
    def reset():
        trace.disable_tracing()
        obs.disable()
        obs.get_registry().reset()
        obs.configure_events(None)

    reset()
    yield
    reset()


SUBMIT = ["submit", "--dataset", "adult", "--generations", "6", "--seed", "5",
          "--checkpoint-every", "3", "--no-cache"]


def _store(state: Path) -> SqliteJobStore:
    return SqliteJobStore(state / "jobs.sqlite")


def test_inline_resubmit_resumes_from_checkpoint(tmp_path, monkeypatch, capsys):
    job_id = ProtectionJob(dataset="adult", generations=6, seed=5).job_id
    reference = tmp_path / "reference"
    assert main(SUBMIT + ["--state-dir", str(reference)]) == 0
    expected = _store(reference).get(job_id).result.final_scores

    # First attempt: the GA and all its checkpoints finish, then the run dies.
    real = runner_mod.run_experiment

    def dying_run(*args, **kwargs):
        real(*args, **kwargs)
        raise RuntimeError("worker killed after its last checkpoint")

    state = tmp_path / "state"
    with monkeypatch.context() as patch:
        patch.setattr(runner_mod, "run_experiment", dying_run)
        assert main(SUBMIT + ["--state-dir", str(state)]) == 1
    store = _store(state)
    store.requeue(store.get(job_id))
    assert store.get_checkpoint(job_id)["generation"] == 6

    capsys.readouterr()
    assert main(SUBMIT + ["--state-dir", str(state)]) == 0
    result = store.get(job_id).result
    assert result.fresh_evaluations == 0
    assert result.final_scores == expected


def test_inline_submit_records_job_events_counters_and_spans(tmp_path, capsys):
    state = tmp_path / "state"
    assert main(["submit", "--dataset", "flare", "--generations", "2",
                 "--seed", "3", "--checkpoint-every", "0",
                 "--state-dir", str(state),
                 "--log-json", "--trace-sample", "1"]) == 0
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert "job_completed" in [e["event"] for e in events]
    completed = [
        c["value"] for c in obs.get_registry().snapshot()["counters"]
        if c["name"] == "repro_worker_jobs_total"
        and c["labels"].get("outcome") == "completed"
    ]
    assert completed == [1.0]
    job_id = ProtectionJob(dataset="flare", generations=2, seed=3).job_id
    names = {s["name"] for s in trace.load_trace(_store(state), job_id)["spans"]}
    assert {"repro.claim", "repro.release"} <= names


def test_failed_resume_exits_one_and_leaves_no_claim(tmp_path, monkeypatch, capsys):
    state = tmp_path / "state"
    assert main(["submit", "--dataset", "adult", "--generations", "2",
                 "--seed", "7", "--checkpoint-every", "1",
                 "--state-dir", str(state)]) == 0
    store = _store(state)
    job_id = ProtectionJob(dataset="adult", generations=2, seed=7).job_id
    # A crash after the last checkpoint: running, no result, no claim.
    record = store.get(job_id)
    record.status = "running"
    record.result = None
    store.save(record)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "run_experiment", boom)
    capsys.readouterr()
    assert main(["resume", "--job", job_id, "--state-dir", str(state)]) == 1
    assert f"{job_id} failed:" in capsys.readouterr().err
    assert store.get(job_id).status == "failed"
    assert store.claimed_job_ids() == []
