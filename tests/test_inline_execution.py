"""Inline ``repro submit`` and ``repro resume`` run through the worker.

Both commands are an in-process :class:`~repro.service.worker.Worker`,
so an inline job gets exactly what a ``repro worker`` drain gives it:
resume-if-resumable from the store's checkpoint, job events and
counters, claim/release trace spans, and failures reported as a
``failed:`` line with exit code 1 rather than a traceback.
"""

from __future__ import annotations

import hashlib
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
    real = runner_mod.run_lockstep

    def dying_run(*args, **kwargs):
        real(*args, **kwargs)
        raise RuntimeError("worker killed after its last checkpoint")

    state = tmp_path / "state"
    with monkeypatch.context() as patch:
        patch.setattr(runner_mod, "run_lockstep", dying_run)
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

    monkeypatch.setattr(runner_mod, "run_lockstep", boom)
    capsys.readouterr()
    assert main(["resume", "--job", job_id, "--state-dir", str(state)]) == 1
    assert f"{job_id} failed:" in capsys.readouterr().err
    assert store.get(job_id).status == "failed"
    assert store.claimed_job_ids() == []


class CountingStore:
    """A job store proxy that counts ``get_checkpoint`` calls."""

    def __init__(self, inner: SqliteJobStore) -> None:
        self._inner = inner
        self.checkpoint_reads = 0

    def get_checkpoint(self, job_id: str):
        self.checkpoint_reads += 1
        return self._inner.get_checkpoint(job_id)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _counting_cli_store(monkeypatch) -> list[CountingStore]:
    """Route every CLI store through a :class:`CountingStore`; returns them."""
    import repro.cli as cli

    opened: list[CountingStore] = []
    real = cli._job_store

    def counting(args):
        opened.append(CountingStore(real(args)))
        return opened[-1]

    monkeypatch.setattr(cli, "_job_store", counting)
    return opened


def _strand(store: SqliteJobStore, job_id: str) -> None:
    """A crash after the last checkpoint: running, no result, no claim."""
    record = store.get(job_id)
    record.status = "running"
    record.result = None
    store.save(record)


def test_resume_reads_the_checkpoint_once(tmp_path, monkeypatch, capsys):
    state = tmp_path / "state"
    assert main(["submit", "--dataset", "adult", "--generations", "2",
                 "--seed", "7", "--checkpoint-every", "1",
                 "--state-dir", str(state)]) == 0
    store = _store(state)
    job_id = ProtectionJob(dataset="adult", generations=2, seed=7).job_id
    expected = store.get(job_id).result.final_scores
    _strand(store, job_id)

    opened = _counting_cli_store(monkeypatch)
    assert main(["resume", "--job", job_id, "--state-dir", str(state)]) == 0
    assert [s.checkpoint_reads for s in opened] == [1]
    assert store.get(job_id).result.final_scores == expected


def test_resume_without_checkpoint_reads_once_and_leaves_the_job(
        tmp_path, monkeypatch, capsys):
    state = tmp_path / "state"
    assert main(["submit", "--dataset", "adult", "--generations", "2",
                 "--seed", "8", "--checkpoint-every", "0",
                 "--state-dir", str(state)]) == 0
    store = _store(state)
    job_id = ProtectionJob(dataset="adult", generations=2, seed=8).job_id
    _strand(store, job_id)

    opened = _counting_cli_store(monkeypatch)
    capsys.readouterr()
    assert main(["resume", "--job", job_id, "--state-dir", str(state)]) == 2
    assert f"no checkpoint for {job_id}" in capsys.readouterr().err
    assert [s.checkpoint_reads for s in opened] == [1]
    assert store.get(job_id).status == "running"
    assert store.claimed_job_ids() == []


def _assert_stale_kernel_refused(state: Path, capsys, stale_stamp) -> None:
    """A checkpoint stamped by ``stale_stamp(job)`` is refused by ``resume``
    and restarted from generation 0 by a worker."""
    job = ProtectionJob(dataset="adult", generations=4, seed=9)
    assert main(["submit", "--dataset", "adult", "--generations", "4",
                 "--seed", "9", "--checkpoint-every", "2", "--no-cache",
                 "--state-dir", str(state)]) == 0
    store = _store(state)
    expected = store.get(job.job_id).result
    blob = store.get_checkpoint(job.job_id)
    assert blob["generation"] == 4
    assert blob["fingerprint"] == job.checkpoint_fingerprint() != stale_stamp(job)
    blob["fingerprint"] = stale_stamp(job)
    store.put_checkpoint(job.job_id, blob)
    _strand(store, job.job_id)

    capsys.readouterr()
    assert main(["resume", "--job", job.job_id, "--state-dir", str(state)]) == 2
    error = capsys.readouterr().err
    assert f"the checkpoint for {job.job_id}" in error
    assert "cannot be resumed" in error and "metric kernel" in error
    assert store.get(job.job_id).status == "running"
    assert store.claimed_job_ids() == []

    # A worker restarts the job from generation 0: every evaluation is
    # fresh again, the result is the uninterrupted run's, and the new
    # checkpoint carries this kernel's fingerprint.
    store.requeue(store.get(job.job_id))
    assert main(["worker", "--once", "--no-cache", "--state-dir", str(state)]) == 0
    result = store.get(job.job_id).result
    assert result.final_scores == expected.final_scores
    assert result.fresh_evaluations == expected.fresh_evaluations > 0
    assert store.get_checkpoint(job.job_id)["fingerprint"] == job.checkpoint_fingerprint()


def test_kernel_2_checkpoint_is_not_resumable(tmp_path, capsys):
    # Kernel 2 stamped checkpoints with the job's bare content hash.
    _assert_stale_kernel_refused(tmp_path / "state", capsys,
                                 lambda job: job.fingerprint())


def test_kernel_3_checkpoint_is_not_resumable(tmp_path, capsys):
    # Kernel 3 salted the hash with its version, as kernel 4 does.
    def kernel_3(job: ProtectionJob) -> str:
        salted = f"{job.fingerprint()}:kernel3"
        return hashlib.sha256(salted.encode("utf-8")).hexdigest()

    _assert_stale_kernel_refused(tmp_path / "state", capsys, kernel_3)
