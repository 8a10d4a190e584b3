"""CLI over the network store: serve / --store-url flows end to end.

Everything here drives ``repro`` exactly as an operator would — one
``repro serve`` process (an in-process ``JobStoreServer`` standing in
for it), then ``submit`` / ``worker`` / ``status`` / ``resume`` pointed
at its URL from "other machines" (fresh spool directories).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.service import JobStoreServer, ProtectionJob, SqliteJobStore

TOKEN = "cli-t0k3n"


@pytest.fixture
def backing(tmp_path):
    return SqliteJobStore(tmp_path / "server-state" / "jobs.sqlite")


@pytest.fixture
def server(backing):
    with JobStoreServer(backing, token=TOKEN) as live:
        yield live


def _remote(server, *args, spool):
    return ["--store-url", server.url, "--token", TOKEN, "--state-dir", str(spool),
            *args]


class TestServeCommand:
    def test_serve_prints_url_and_exits_on_interrupt(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(
            "repro.service.netstore.JobStoreServer.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        code = main(["serve", "--port", "0", "--token", "t",
                     "--state-dir", str(tmp_path / "state")])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving job store" in out
        assert "--store-url http://127.0.0.1:" in out

    def test_serve_without_token_warns(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TOKEN", raising=False)
        monkeypatch.setattr(
            "repro.service.netstore.JobStoreServer.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        assert main(["serve", "--port", "0",
                     "--state-dir", str(tmp_path / "state")]) == 0
        assert "without a token" in capsys.readouterr().err


class TestRemoteSubmitAndWorker:
    def test_detached_submit_queues_on_server(self, server, backing, tmp_path):
        code = main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seeds", "31,32", "--detach",
                     *_remote(server, spool=tmp_path / "client")])
        assert code == 0
        job_ids = [ProtectionJob(dataset="adult", generations=1, seed=s).job_id
                   for s in (31, 32)]
        for job_id in job_ids:
            assert backing.get(job_id).status == "queued"

    def test_remote_worker_drains_server_queue(self, server, backing, tmp_path,
                                               capsys):
        main(["submit", "--dataset", "adult", "--generations", "1",
              "--seeds", "31,32", "--detach",
              *_remote(server, spool=tmp_path / "client")])
        capsys.readouterr()
        code = main(["worker", "--once", "--capacity", "2", "--no-cache",
                     *_remote(server, spool=tmp_path / "worker")])
        assert code == 0
        assert "ran 2 job(s)" in capsys.readouterr().out
        for seed in (31, 32):
            job_id = ProtectionJob(dataset="adult", generations=1, seed=seed).job_id
            assert backing.get(job_id).status == "completed"
        assert backing.claimed_job_ids() == []

    def test_status_shows_claim_owner_and_heartbeat_age(self, server, backing,
                                                        tmp_path, capsys):
        record = backing.submit(ProtectionJob(dataset="adult", generations=1,
                                              seed=41))
        backing.claim(record.job_id, owner="worker-on-host-9")
        backing.mark_running(record)
        code = main(["status", *_remote(server, spool=tmp_path / "client")])
        assert code == 0
        out = capsys.readouterr().out
        assert "owner" in out and "heartbeat" in out
        assert "worker-on-host-9" in out
        assert "s ago" in out

    def test_status_single_job_over_store_url(self, server, backing, tmp_path,
                                              capsys):
        record = backing.submit(ProtectionJob(dataset="adult", generations=1,
                                              seed=42))
        code = main(["status", "--job", record.job_id,
                     *_remote(server, spool=tmp_path / "client")])
        assert code == 0
        assert record.job_id in capsys.readouterr().out


class TestRemoteResume:
    def test_resume_over_store_url_continues_bit_identically(
        self, server, backing, tmp_path, capsys
    ):
        # A checkpointed job runs to completion through the remote store
        # (its checkpoint is uploaded server-side when the claim is
        # released); then the record "crashes" back to running and a
        # *different machine* — a fresh spool that has never seen the
        # checkpoint — resumes it through `repro resume --store-url`.
        assert main(["submit", "--dataset", "adult", "--generations", "3",
                     "--seed", "63", "--checkpoint-every", "2",
                     *_remote(server, spool=tmp_path / "machine-a")]) == 0
        job_id = ProtectionJob(dataset="adult", generations=3, seed=63).job_id
        straight = backing.get(job_id).result
        assert straight is not None
        assert (backing.checkpoints_dir / f"{job_id}.json").exists()

        crashed = backing.get(job_id)
        crashed.status = "running"
        crashed.result = None
        backing.save(crashed)
        capsys.readouterr()

        assert main(["resume", "--job", job_id,
                     *_remote(server, spool=tmp_path / "machine-b")]) == 0
        resumed = backing.get(job_id)
        assert resumed.status == "completed"
        # Bit-identical continuation: the same scores the uninterrupted
        # run produced, for the whole final population and the best.
        assert resumed.result.final_scores == straight.final_scores
        assert resumed.result.best_score == straight.best_score
        assert resumed.result.best_information_loss == straight.best_information_loss
        assert resumed.result.best_disclosure_risk == straight.best_disclosure_risk
        # And it really continued from the wire-transferred checkpoint
        # rather than recomputing the run from scratch.
        assert resumed.result.fresh_evaluations < straight.fresh_evaluations
        assert (tmp_path / "machine-b" / "checkpoints" / f"{job_id}.json").exists()
        assert backing.claimed_job_ids() == []

    def test_resume_without_server_checkpoint_fails_cleanly(
        self, server, backing, tmp_path, capsys
    ):
        record = backing.submit(ProtectionJob(dataset="adult", generations=1,
                                              seed=77))
        backing.mark_running(record)
        code = main(["resume", "--job", record.job_id,
                     *_remote(server, spool=tmp_path / "machine-b")])
        assert code == 2
        assert "no checkpoint" in capsys.readouterr().err
        # The failed attempt must not leave its claim behind.
        assert backing.claimed_job_ids() == []
