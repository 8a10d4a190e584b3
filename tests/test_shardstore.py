"""The sharded control plane beyond the store contract.

``tests/test_store_contract.py`` already proves a ``ShardedJobStore``
is indistinguishable from a single store (the ``shard-sqlite`` and
``shard-mixed`` harness params).  This file covers what the contract
cannot see: placement determinism, the health circuit, work-stealing
order, the kill-one-shard exactly-once guarantee, the 1-shard
pass-through pin, and the ``shard:`` spec grammar.
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro import obs
from repro.exceptions import ServiceError, StoreUnavailableError
from repro.service import (
    ProtectionJob,
    ShardedJobStore,
    SqliteJobStore,
    migrate_store,
    parse_shard_spec,
    store_from_spec,
)
from repro.service.job import JobResult


def make_result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id, dataset=job.dataset, seed=job.seed,
        generations=job.generations, best_score=0.5,
        best_information_loss=0.2, best_disclosure_risk=0.3,
        final_scores=(0.5, 0.6), mean_improvement_percent=1.0,
        fresh_evaluations=3, memo_hits=0, persistent_hits=0,
        wall_seconds=0.1,
    )


class FlakyStore:
    """Delegates to a real store until killed; then every call raises
    :class:`StoreUnavailableError` — a shard's process going dark, as
    seen from a client."""

    def __init__(self, store):
        self._store = store
        self.down = False
        self.calls = 0

    def kill(self) -> None:
        self.down = True

    def revive(self) -> None:
        self.down = False

    def __getattr__(self, name):
        value = getattr(self._store, name)
        if not callable(value):
            return value

        def guarded(*args, **kwargs):
            if self.down:
                raise StoreUnavailableError(f"shard down ({name})")
            self.calls += 1
            return value(*args, **kwargs)

        return guarded


def two_shards(tmp_path, cooldown=30.0, flaky=False):
    children = [SqliteJobStore(tmp_path / "a.sqlite"),
                SqliteJobStore(tmp_path / "b.sqlite")]
    if flaky:
        children = [FlakyStore(child) for child in children]
    store = ShardedJobStore(children, names=["a", "b"],
                            root=tmp_path / "spool", cooldown=cooldown)
    return store, children


def jobs(n, **overrides):
    return [ProtectionJob(dataset="flare", generations=2, seed=seed,
                          **overrides)
            for seed in range(n)]


class TestPlacement:
    # Computed once from sha256 rendezvous over names ("a", "b") and
    # ("a", "b", "c"): the pinned mapping is what deployed fleets
    # already used to place their records — changing the hash strands
    # every one of them on a now-wrong home shard, so a diff here is a
    # breaking change, not a refactor.
    PINNED_2 = {"j0": "a", "j1": "b", "j2": "b", "j3": "a", "j4": "a",
                "j5": "b", "j6": "b", "j7": "a", "j8": "b", "j9": "b"}
    PINNED_3 = {"j0": "a", "j1": "b", "j2": "b", "j3": "c", "j4": "a",
                "j5": "c", "j6": "c", "j7": "a", "j8": "b", "j9": "c"}

    def test_rendezvous_mapping_is_pinned(self, tmp_path):
        store, _ = two_shards(tmp_path)
        assert {job_id: store.shard_name_for(job_id)
                for job_id in self.PINNED_2} == self.PINNED_2
        three = ShardedJobStore(
            [SqliteJobStore(tmp_path / f"{n}3.sqlite") for n in "abc"],
            names=["a", "b", "c"], root=tmp_path / "spool3")
        assert {job_id: three.shard_name_for(job_id)
                for job_id in self.PINNED_3} == self.PINNED_3

    def test_placement_survives_shard_list_reordering(self, tmp_path):
        forward, _ = two_shards(tmp_path / "fwd")
        reversed_store = ShardedJobStore(
            [SqliteJobStore(tmp_path / "rev" / "b.sqlite"),
             SqliteJobStore(tmp_path / "rev" / "a.sqlite")],
            names=["b", "a"], root=tmp_path / "rev" / "spool")
        for job_id in (f"job-{i}" for i in range(50)):
            assert (forward.shard_name_for(job_id)
                    == reversed_store.shard_name_for(job_id))

    def test_adding_a_shard_only_moves_keys_to_the_new_shard(self, tmp_path):
        # The rendezvous property modulo hashing lacks: growing the
        # fleet re-homes only the keys the new shard now wins.
        assert all(
            self.PINNED_3[job_id] in (home, "c")
            for job_id, home in self.PINNED_2.items()
        )

    def test_record_claim_and_checkpoint_live_on_one_shard(self, tmp_path):
        store, children = two_shards(tmp_path)
        job = jobs(1)[0]
        store.submit(job)
        assert store.claim(job.job_id, owner="w1")
        store.put_checkpoint(job.job_id, {"gen": 3}, owner="w1")
        populated = [
            child for child in children
            if child.get(job.job_id, missing_ok=True) is not None
        ]
        assert len(populated) == 1
        (child,) = populated
        assert child.claim_info(job.job_id)["owner"] == "w1"
        assert child.get_checkpoint(job.job_id) == {"gen": 3}
        assert store.shard_for(job.job_id) is child

    def test_contending_clients_agree_on_the_claim_shard(self, tmp_path):
        # Two independent clients of the same fleet: exactly one wins a
        # claim on an id with no record, because both route it to the
        # same rendezvous home.
        first, _ = two_shards(tmp_path)
        second = ShardedJobStore(
            [SqliteJobStore(tmp_path / "a.sqlite"),
             SqliteJobStore(tmp_path / "b.sqlite")],
            names=["a", "b"], root=tmp_path / "spool2")
        assert first.claim("bare-id", owner="w1")
        assert not second.claim("bare-id", owner="w2")


class TestFanOut:
    def test_reads_merge_all_shards_oldest_first(self, tmp_path):
        store, children = two_shards(tmp_path)
        submitted = jobs(8)
        for job in submitted:
            store.submit(job)
        per_child = [len(child.records()) for child in children]
        assert all(count > 0 for count in per_child)
        assert sum(per_child) == 8
        listed = store.records()
        assert {r.job_id for r in listed} == {j.job_id for j in submitted}
        stamps = [(r.submitted_at, r.job_id) for r in listed]
        assert stamps == sorted(stamps)
        assert {r.job_id for r in store.queued()} == {j.job_id for j in submitted}

    def test_claims_carry_their_shard_name(self, tmp_path):
        store, _ = two_shards(tmp_path)
        for job in jobs(6):
            store.submit(job)
            store.claim(job.job_id, owner="w1")
        claims = store.claims()
        assert len(claims) == 6
        names = {info["shard"] for info in claims.values()}
        assert names == {"a", "b"}
        for job_id, info in claims.items():
            assert info["shard"] == store.shard_name_for(job_id)

    def test_status_is_one_bulk_read_per_shard(self, tmp_path):
        store, children = two_shards(tmp_path, flaky=True)
        for job in jobs(10):
            store.submit(job)
        for child in children:
            child.calls = 0
        store.claims()
        # One claims() call per shard — not one per job.
        assert all(child.calls == 1 for child in children)


class TestHealthCircuit:
    def test_unavailable_shard_is_skipped_and_counted(self, tmp_path):
        registry = obs.enable()
        registry.reset()
        try:
            store, children = two_shards(tmp_path, flaky=True)
            for job in jobs(8):
                store.submit(job)
            on_a = [r.job_id for r in children[0].records()]
            children[1].kill()
            listed = store.records()  # first call eats the error
            listed = store.records()  # circuit now open: no child call
            assert {r.job_id for r in listed} == set(on_a)
            unavailable = [
                c for c in registry.snapshot()["counters"]
                if c["name"] == "repro_shard_unavailable_total"
            ]
            assert unavailable and unavailable[0]["labels"]["shard"] == "b"
        finally:
            obs.disable()
            registry.reset()

    def test_circuit_closes_after_cooldown(self, tmp_path):
        store, children = two_shards(tmp_path, cooldown=0.05, flaky=True)
        for job in jobs(8):
            store.submit(job)
        children[1].kill()
        store.records()
        children[1].revive()
        time.sleep(0.06)
        assert len(store.records()) == 8

    def test_submit_routes_around_a_dead_home_shard(self, tmp_path):
        store, children = two_shards(tmp_path, flaky=True)
        job = next(j for j in jobs(20)
                   if store.shard_name_for(j.job_id) == "b")
        children[1].kill()
        store.records()  # open the circuit
        store.submit(job)
        assert children[0]._store.get(job.job_id, missing_ok=True) is not None

    def test_job_on_dead_shard_fails_fast_not_silently_absent(self, tmp_path):
        # A job whose shard is unreachable must raise, not report the
        # job missing — "absent" would let a caller requeue or resubmit
        # a job that is alive on the dark shard.
        store, children = two_shards(tmp_path, flaky=True)
        job = jobs(1)[0]
        store.submit(job)
        fresh = ShardedJobStore(children, names=["a", "b"],
                                root=tmp_path / "spool2")
        holder = store.shard_name_for(job.job_id)
        children[0 if holder == "a" else 1].kill()
        with pytest.raises(StoreUnavailableError):
            fresh.get(job.job_id)

    def test_all_shards_down_raises_on_submit(self, tmp_path):
        store, children = two_shards(tmp_path, flaky=True)
        for child in children:
            child.kill()
        with pytest.raises(StoreUnavailableError):
            store.submit(jobs(1)[0])


class TestStealing:
    def test_home_shard_drains_before_stealing(self, tmp_path):
        registry = obs.enable()
        registry.reset()
        try:
            store, children = two_shards(tmp_path)
            for job in jobs(10):
                store.submit(job)
            owner = "worker-1"
            home = store._rendezvous_order(owner)[0].name
            home_child = children[0 if home == "a" else 1]
            home_ids = {r.job_id for r in home_child.records()}
            batch = store.steal_batch(owner=owner, limit=len(home_ids))
            assert {r.job_id for r in batch} == home_ids
            # Draining your own home is not stealing.
            assert not any(
                c["name"] == "repro_shard_steals_total"
                for c in registry.snapshot()["counters"]
            )
            rest = store.steal_batch(owner=owner, limit=0)
            assert {r.job_id for r in rest} == {
                r.job_id for r in children[0 if home == "b" else 1].records()
            }
            steals = [c for c in registry.snapshot()["counters"]
                      if c["name"] == "repro_shard_steals_total"]
            assert steals and steals[0]["value"] == len(rest)
            assert steals[0]["labels"]["shard"] != home
        finally:
            obs.disable()
            registry.reset()

    def test_steals_most_backlogged_shard_first(self, tmp_path):
        children = [SqliteJobStore(tmp_path / f"{n}.sqlite") for n in "abc"]
        store = ShardedJobStore(children, names=["a", "b", "c"],
                                root=tmp_path / "spool")
        owner = "worker-1"
        order = [s.name for s in store._rendezvous_order(owner)]
        home, light, heavy = order[0], order[1], order[2]
        by_name = dict(zip("abc", children))
        for i, job in enumerate(jobs(9)):
            target = heavy if i < 8 else light
            by_name[target].submit(job)
        batch = store.steal_batch(owner=owner, limit=1)
        assert len(batch) == 1
        assert by_name[heavy].claim_info(batch[0].job_id) is not None

    def test_stealing_skips_a_dead_shard(self, tmp_path):
        store, children = two_shards(tmp_path, flaky=True)
        for job in jobs(10):
            store.submit(job)
        children[1].kill()
        batch = store.steal_batch(owner="worker-1", limit=0)
        alive = {r.job_id for r in children[0]._store.records()}
        assert {r.job_id for r in batch} == alive

    def test_worker_uses_steal_batch_when_the_store_offers_it(self, tmp_path):
        from repro.service.worker import Worker

        store, _ = two_shards(tmp_path)
        calls = []
        original = store.steal_batch
        store.steal_batch = lambda owner="", limit=0: (
            calls.append(limit), original(owner=owner, limit=limit))[1]
        for job in jobs(2):
            store.submit(job)
        worker = Worker(store, use_cache=False, capacity=2)
        claimed = worker._claim_batch(2)
        assert calls == [2]
        assert len(claimed) == 2


def _drain(store, executed, done, lock, stop_when_empty=3):
    """One worker loop: steal, run, complete — dead shards tolerated."""
    empty = 0
    owner_name = threading.current_thread().name
    while empty < stop_when_empty:
        try:
            batch = store.steal_batch(owner=owner_name, limit=2)
        except StoreUnavailableError:
            batch = []
        if not batch:
            empty += 1
            time.sleep(0.005)
            continue
        empty = 0
        for record in batch:
            with lock:
                executed[record.job_id] = executed.get(record.job_id, 0) + 1
            try:
                store.mark_running(record)
                store.mark_completed(record, make_result(record.job))
                with lock:
                    done[record.job_id] = done.get(record.job_id, 0) + 1
                store.release(record.job_id, owner=owner_name)
            except StoreUnavailableError:
                continue  # the job's shard died under us; recovery reruns it


def _kill_one_shard_race(tmp_path, n_jobs, n_workers, n_shards):
    """The acceptance scenario: a shard dies mid-race; surviving shards
    keep claiming; the dead shard's recovered jobs complete exactly
    once (completion-exactly-once: an execution cut down by the outage
    before its completion landed may rerun — that is the crashed-worker
    contract — but no job ever *completes* twice and none is lost)."""
    names = [f"s{i}" for i in range(n_shards)]
    children = [FlakyStore(SqliteJobStore(tmp_path / f"{name}.sqlite"))
                for name in names]
    store = ShardedJobStore(children, names=names, root=tmp_path / "spool",
                            cooldown=30.0)
    submitted = jobs(n_jobs)
    for job in submitted:
        store.submit(job)
    victim = children[-1]
    survivors = [c for c in children if c is not victim]
    executed: dict[str, int] = {}
    done: dict[str, int] = {}
    lock = threading.Lock()
    workers = [
        threading.Thread(target=_drain, name=f"racer-{i}",
                         args=(store, executed, done, lock))
        for i in range(n_workers)
    ]
    for worker in workers:
        worker.start()
    time.sleep(0.05)
    victim.kill()  # mid-race: some of its jobs are claimed, some queued
    for worker in workers:
        worker.join()
    # Surviving shards drained completely while the victim was dark.
    for child in survivors:
        assert all(r.status == "completed" for r in child.records())
    # The victim returns; the existing stale-claim repair requeues its
    # strays (claims cut off mid-run and records stranded running).
    victim.revive()
    for shard in store._shards:
        shard.open_until = 0.0
        shard.failures = 0
    store.recover_stale_claims(0.0)
    finishers = [
        threading.Thread(target=_drain, name=f"finisher-{i}",
                         args=(store, executed, done, lock))
        for i in range(2)
    ]
    for worker in finishers:
        worker.start()
    for worker in finishers:
        worker.join()
    records = store.records()
    assert len(records) == n_jobs  # none lost
    assert all(r.status == "completed" for r in records)
    assert set(done) == {j.job_id for j in submitted}
    assert all(count == 1 for count in done.values())  # none completed twice


class TestKillOneShard:
    def test_surviving_shards_keep_claiming_and_strays_complete_once(
        self, tmp_path
    ):
        _kill_one_shard_race(tmp_path, n_jobs=24, n_workers=4, n_shards=2)

    @pytest.mark.stress
    def test_fleet_scale_kill_one_shard_exactly_once(self, tmp_path):
        _kill_one_shard_race(tmp_path, n_jobs=120, n_workers=8, n_shards=3)


class TestSingleShardPassThrough:
    """A 1-shard ``ShardedJobStore`` is the bare child store.

    The determinism pin: every record, claim, checkpoint and ordering
    visible through the wrapper is byte-identical to what the bare
    ``SqliteJobStore`` on the same database reports.  If composing one
    shard perturbs any byte, placement is leaking into state.
    """

    def test_byte_identical_to_the_bare_child_store(self, tmp_path):
        db = tmp_path / "solo.sqlite"
        store = ShardedJobStore([SqliteJobStore(db)], names=["solo"],
                                root=tmp_path / "spool")
        submitted = jobs(5)
        for job in submitted:
            store.submit(job, extras={"checkpoint_every": 10})
        assert store.claim(submitted[0].job_id, owner="w1")
        store.put_checkpoint(submitted[0].job_id, {"generation": 7},
                             owner="w1")
        record = store.get(submitted[1].job_id)
        store.mark_running(record)
        store.mark_completed(record, make_result(record.job))
        bare = SqliteJobStore(db)
        wrapped = [json.dumps(r.to_dict(), sort_keys=True)
                   for r in store.records()]
        direct = [json.dumps(r.to_dict(), sort_keys=True)
                  for r in bare.records()]
        assert wrapped == direct
        assert ([r.job_id for r in store.queued()]
                == [r.job_id for r in bare.queued()])
        bare_claims = bare.claims()
        sharded_claims = store.claims()
        assert set(sharded_claims) == set(bare_claims)
        for job_id, info in bare_claims.items():
            seen = dict(sharded_claims[job_id])
            assert seen.pop("shard") == "solo"
            assert set(seen) == set(info)  # same payload keys, + shard only
            assert seen["owner"] == info["owner"]
        assert (store.get_checkpoint(submitted[0].job_id)
                == bare.get_checkpoint(submitted[0].job_id)
                == {"generation": 7})

    def test_single_shard_claim_batch_matches_bare_store(self, tmp_path):
        db = tmp_path / "solo.sqlite"
        store = ShardedJobStore([SqliteJobStore(db)], names=["solo"],
                                root=tmp_path / "spool")
        for job in jobs(6):
            store.submit(job)
        batch = store.claim_batch(owner="w1", limit=4)
        bare = SqliteJobStore(db)
        expected = sorted(
            (r.submitted_at, r.job_id) for r in bare.records()
        )[:4]
        assert [(r.submitted_at, r.job_id) for r in batch] == expected


class TestShardSpec:
    def test_comma_list_spec(self, tmp_path):
        store = store_from_spec(
            f"shard:sqlite:{tmp_path}/a.sqlite,{tmp_path}/b",
            state_dir=tmp_path / "spool")
        assert isinstance(store, ShardedJobStore)
        assert store.spec.startswith("shard:sqlite:")
        assert len(store.shard_names) == 2
        job = jobs(1)[0]
        store.submit(job)
        assert store.get(job.job_id).job.job_id == job.job_id

    def test_manifest_spec_with_names(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({
            "shards": [
                {"name": "east", "spec": f"sqlite:{tmp_path}/east.sqlite"},
                {"name": "west", "spec": f"sqlite:{tmp_path}/west.sqlite"},
            ]
        }), encoding="utf-8")
        store = store_from_spec(f"shard:@{manifest}",
                                state_dir=tmp_path / "spool")
        assert store.shard_names == ["east", "west"]

    def test_manifest_bare_list(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps(
            [f"sqlite:{tmp_path}/a.sqlite", f"{tmp_path}/b"]
        ), encoding="utf-8")
        pairs = parse_shard_spec(f"@{manifest}")
        assert [spec for _, spec in pairs] == [
            f"sqlite:{tmp_path}/a.sqlite", f"{tmp_path}/b"]

    @pytest.mark.parametrize("body, message", [
        ("", "at least one child"),
        ("shard:sqlite:a.db", "cannot nest"),
        ("sqlite:a.db,sqlite:a.db", "duplicate"),
    ])
    def test_bad_bodies_rejected(self, body, message):
        with pytest.raises(ServiceError, match=message):
            parse_shard_spec(body)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="not found"):
            parse_shard_spec(f"@{tmp_path}/absent.json")

    def test_bad_manifest_entry_rejected(self, tmp_path):
        manifest = tmp_path / "fleet.json"
        manifest.write_text(json.dumps({"shards": [42]}), encoding="utf-8")
        with pytest.raises(ServiceError, match="bad shard manifest entry"):
            parse_shard_spec(f"@{manifest}")

    def test_unknown_scheme_rejected_with_grammar(self, tmp_path):
        with pytest.raises(ServiceError) as excinfo:
            store_from_spec("sqllite:jobs.db")
        message = str(excinfo.value)
        assert "sqllite:" in message
        for grammar in ("directory path", "sqlite:PATH", "shard:"):
            assert grammar in message

    def test_existing_directory_with_colon_still_opens(self, tmp_path):
        # A user who really has a directory named like a scheme typo can
        # still open it: existence wins over the typo heuristic.
        weird = tmp_path / "odd:dir"
        weird.mkdir()
        store = store_from_spec(str(weird))
        assert isinstance(store, SqliteJobStore)
        assert store.path == weird / "jobs.sqlite"

    def test_bare_paths_still_work(self, tmp_path):
        store = store_from_spec(str(tmp_path / "plain"))
        assert isinstance(store, SqliteJobStore)
        assert store.path == tmp_path / "plain" / "jobs.sqlite"


class TestStreamingMigrate:
    def test_migrate_emits_progress_chunks(self, tmp_path):
        registry = obs.enable()
        stream = io.StringIO()
        obs.configure_events(stream)
        try:
            source = SqliteJobStore(tmp_path / "src.sqlite")
            for job in jobs(7):
                source.submit(job)
            target = SqliteJobStore(tmp_path / "dst" / "jobs.sqlite")
            counts = migrate_store(source, target, chunk_size=3)
            assert counts == {"records": 7, "checkpoints": 0, "traces": 0,
                              "migrants": 0}
            progress = [json.loads(line) for line in
                        stream.getvalue().splitlines()
                        if json.loads(line)["event"] == "migrate_progress"]
            assert [p["records"] for p in progress] == [3, 6, 7]
            assert progress[-1].get("done") is True
        finally:
            obs.disable()
            obs.configure_events(None)
            registry.reset()

    def test_iter_records_streams_everything(self, tmp_path):
        store = SqliteJobStore(tmp_path / "db.sqlite")
        for job in jobs(5):
            store.submit(job)
        streamed = sorted(r.job_id for r in store.iter_records())
        assert streamed == sorted(r.job_id for r in store.records())

    def test_migrate_into_a_shard_rebalances_onto_homes(self, tmp_path):
        source = SqliteJobStore(tmp_path / "src" / "jobs.sqlite")
        submitted = jobs(10)
        for job in submitted:
            source.submit(job)
            source.put_checkpoint(job.job_id, {"seed": job.seed})
        target, children = two_shards(tmp_path / "fleet")
        counts = migrate_store(source, target)
        assert counts == {"records": 10, "checkpoints": 10, "traces": 0,
                          "migrants": 0}
        for job in submitted:
            home = target.shard_name_for(job.job_id)
            child = children[0 if home == "a" else 1]
            assert child.get(job.job_id, missing_ok=True) is not None
            assert child.get_checkpoint(job.job_id) == {"seed": job.seed}
        assert len(target.records()) == 10

    def test_migrate_shard_to_shard(self, tmp_path):
        source, _ = two_shards(tmp_path / "old")
        for job in jobs(6):
            source.submit(job)
        dest = ShardedJobStore(
            [SqliteJobStore(tmp_path / "new" / f"{n}.sqlite") for n in "xyz"],
            names=["x", "y", "z"], root=tmp_path / "new" / "spool")
        counts = migrate_store(source, dest)
        assert counts["records"] == 6
        assert ({r.job_id for r in dest.records()}
                == {r.job_id for r in source.records()})
