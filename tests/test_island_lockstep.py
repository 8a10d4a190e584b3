"""Golden bit-identity of island groups, plain jobs and the engine's generation step.

The goldens in ``tests/data/island_goldens.json`` were computed by the
code that predates lockstep island groups (every member then ran alone,
parking at exchange rounds), so they pin lockstep == the per-member
protocol, byte for byte:

* per member: its final scores, its history minus the timing fields,
  its ``.migrants`` blob, and its last exchange checkpoint as decoded
  (each individual's int64 codes, name, origin, birth generation and
  score, the RNG state, the untimed records and the island state), so
  the pin holds across checkpoint formats;
* per group: the merge job's Pareto front;
* per solo engine run: every generation's record (minus timing) and the
  RNG state right after it.

Each group shape runs three ways: ``repro worker --once`` (one worker
holds the whole group, so it steps in lockstep), inline ``repro submit
--islands`` (likewise), and a split group, where another owner holds one
sibling's claim for a while, so each member runs alone (a lockstep group
of one) and exchanges through the migrant buffers, parking as it must.

Plain jobs (two flare seeds, 7 generations, a checkpoint every 3) pin
the same surface per job plus the evaluator stats (every key but the
timed ``fresh_seconds``), computed by the code that ran a plain job
through ``run_experiment``.  They run through ``repro worker --once``
(serial, ``--backend process`` and ``--eval-workers 2``), inline ``repro
submit``, and ``repro resume`` from the generation-3 checkpoint, whose
stats have their own golden.

Regenerate the goldens (``python tests/test_island_lockstep.py``) only
for a change that is meant to move results, such as a metric-kernel
bump.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import EvolutionaryProtector
from repro.datasets import load_dataset, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.metrics import ProtectionEvaluator
from repro.service import (
    ProtectionJob,
    SqliteJobStore,
    Worker,
    checkpoint_from_dict,
    plan_island_jobs,
)
from repro.obs import trace
from repro.service.cache import score_to_dict
from repro.service.islands import migrants_blob_id

GOLDENS = Path(__file__).parent / "data" / "island_goldens.json"

_TIMING_FIELDS = ("fitness_seconds", "other_seconds")

#: The two group shapes: perfbench's islands-adult workload and the
#: fleet tests' flare ``BASE`` plan.
SHAPES = {
    "islands-adult": dict(dataset="adult", generations=12, seed=7, islands=4,
                          migrate_every=4, migrants=2),
    "flare-base": dict(dataset="flare", generations=2, seed=11, islands=2,
                       migrate_every=1, migrants=1),
}

#: Solo runs whose every generation the engine-split golden pins.
SOLO_RUNS = {
    "flare-s5": dict(dataset="flare", generations=40, seed=5),
    "adult-s3": dict(dataset="adult", generations=8, seed=3),
}


#: The plain jobs: saves land at generations 3, 6 and the partial 7.
PLAIN = dict(dataset="flare", generations=7, seeds=(1, 2), checkpoint_every=3)


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _untimed(records: list[dict]) -> list[dict]:
    return [{key: value for key, value in record.items() if key not in _TIMING_FIELDS}
            for record in records]


def _group_jobs(shape: dict) -> list[ProtectionJob]:
    base = ProtectionJob(dataset=shape["dataset"], generations=shape["generations"],
                         seed=shape["seed"])
    return plan_island_jobs(base, shape["islands"], migrate_every=shape["migrate_every"],
                            migrants=shape["migrants"], topology="ring")


def checkpoint_digest(store, job: ProtectionJob) -> str:
    """Digest of a member's checkpoint as decoded, whatever its format."""
    blob = store.get_checkpoint(job.job_id)
    checkpoint = checkpoint_from_dict(blob, load_dataset(job.dataset))

    def individuals(items) -> list:
        return [[hashlib.sha256(np.ascontiguousarray(item.dataset.codes, dtype=np.int64)
                                .tobytes()).hexdigest(),
                 item.dataset.name, item.origin, item.birth_generation,
                 score_to_dict(item.evaluation)] for item in items]

    return _digest({
        "generation": checkpoint.generation,
        "initial": individuals(checkpoint.initial),
        "individuals": individuals(checkpoint.individuals),
        "rng_state": checkpoint.rng_state,
        "records": _untimed([record.to_dict() for record in checkpoint.records]),
        "island_state": blob.get("island_state"),
    })


def group_digests(store, jobs: list[ProtectionJob]) -> dict:
    """The golden surface of a finished island group, as SHA-256 digests."""
    digests: dict[str, object] = {}
    for job in jobs[:-1]:
        record = store.get(job.job_id)
        assert record.status == "completed", f"{job.job_id}: {record.status} {record.error}"
        digests[f"member-{job.island_index}"] = {
            "final_scores": _digest(list(record.result.final_scores)),
            "history": _digest(_untimed(record.result.extras["history"])),
            "migrants": _digest(store.get_checkpoint(migrants_blob_id(job.job_id))),
            "checkpoint": checkpoint_digest(store, job),
        }
    merge = store.get(jobs[-1].job_id)
    assert merge.status == "completed", f"merge: {merge.status} {merge.error}"
    digests["front"] = _digest(merge.result.extras["island"]["front"])
    return digests


def solo_digests(run: dict) -> list[str]:
    """One digest per generation: its untimed record and the RNG state after it."""
    original = load_dataset(run["dataset"])
    engine = EvolutionaryProtector(
        ProtectionEvaluator(original, protected_attributes(run["dataset"])),
        seed=run["seed"])
    digests: list[str] = []

    def on_generation(record) -> None:
        digests.append(_digest([_untimed([record.to_dict()])[0],
                                engine._rng.bit_generator.state]))

    protections = build_initial_population(original, dataset_name=run["dataset"], seed=0)
    engine.run(protections, stopping=run["generations"], on_generation=on_generation)
    return digests


def _submit_args(shape: dict, state: str) -> list[str]:
    return ["submit", "--dataset", shape["dataset"], "--generations",
            str(shape["generations"]), "--seed", str(shape["seed"]),
            "--islands", str(shape["islands"]), "--migrate-every",
            str(shape["migrate_every"]), "--migrants", str(shape["migrants"]),
            "--topology", "ring", "--state-dir", state]


def drive_worker_once(shape: dict, state: Path) -> SqliteJobStore:
    assert main(_submit_args(shape, str(state)) + ["--detach"]) == 0
    assert main(["worker", "--once", "--state-dir", str(state)]) == 0
    return SqliteJobStore(state / "jobs.sqlite")


def drive_inline(shape: dict, state: Path) -> SqliteJobStore:
    assert main(_submit_args(shape, str(state))) == 0
    return SqliteJobStore(state / "jobs.sqlite")


def drive_split(shape: dict, state: Path) -> SqliteJobStore:
    """Another owner holds the last member's claim while a worker drains."""
    assert main(_submit_args(shape, str(state)) + ["--detach"]) == 0
    store = SqliteJobStore(state / "jobs.sqlite")
    held = _group_jobs(shape)[shape["islands"] - 1].job_id
    assert store.claim(held, owner="other-owner")
    Worker(store, worker_id="split-worker").run_once()
    assert store.get(held).status == "queued"
    store.release(held, owner="other-owner")
    Worker(store, worker_id="split-worker-2").run_once()
    return store


DRIVES = {"worker-once": drive_worker_once, "inline-submit": drive_inline,
          "split-group": drive_split}


def _plain_jobs() -> list[ProtectionJob]:
    return [ProtectionJob(dataset=PLAIN["dataset"], generations=PLAIN["generations"],
                          seed=seed) for seed in PLAIN["seeds"]]


def plain_digests(store) -> dict:
    """The golden surface of the finished plain jobs, as SHA-256 digests."""
    digests = {}
    for job in _plain_jobs():
        record = store.get(job.job_id)
        assert record.status == "completed", f"{job.job_id}: {record.status} {record.error}"
        stats = dict(record.result.extras["evaluator_stats"])
        stats.pop("fresh_seconds")
        digests[f"seed-{job.seed}"] = {
            "final_scores": _digest(list(record.result.final_scores)),
            "history": _digest(_untimed(record.result.extras["history"])),
            "checkpoint": checkpoint_digest(store, job),
            "evaluator_stats": _digest(stats),
        }
    return digests


def _plain_submit_args(state: Path, cache: bool = False) -> list[str]:
    return ["submit", "--dataset", PLAIN["dataset"], "--generations",
            str(PLAIN["generations"]), "--seeds", ",".join(map(str, PLAIN["seeds"])),
            "--checkpoint-every", str(PLAIN["checkpoint_every"]), "--state-dir", str(state),
            *([] if cache else ["--no-cache"])]


def drive_plain_worker(state: Path, *worker_args: str) -> SqliteJobStore:
    """``repro worker --once`` with ``worker_args``; no evaluation cache, so
    parallel jobs cannot race for each other's cache entries."""
    assert main(_plain_submit_args(state) + ["--detach"]) == 0
    assert main(["worker", "--once", "--no-cache", "--state-dir", str(state),
                 *worker_args]) == 0
    return SqliteJobStore(state / "jobs.sqlite")


def drive_plain_inline(state: Path) -> SqliteJobStore:
    assert main(_plain_submit_args(state)) == 0
    return SqliteJobStore(state / "jobs.sqlite")


def drive_plain_resume(state: Path) -> SqliteJobStore:
    """Run inline with the evaluation cache, then ``repro resume`` each job
    from the checkpoint its first run saved at generation 3."""
    saved: dict[str, dict] = {}
    put = SqliteJobStore.put_checkpoint

    def keeping(self, job_id, payload, *args, **kwargs):
        if isinstance(payload, dict) and payload.get("generation") == 3:
            saved[job_id] = json.loads(json.dumps(payload))
        return put(self, job_id, payload, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SqliteJobStore, "put_checkpoint", keeping)
        assert main(_plain_submit_args(state, cache=True)) == 0
    store = SqliteJobStore(state / "jobs.sqlite")
    for job in _plain_jobs():
        store.put_checkpoint(job.job_id, saved[job.job_id])
        assert main(["resume", "--job", job.job_id, "--force",
                     "--state-dir", str(state)]) == 0
    return store


#: Each plain drive and the golden it must match.
PLAIN_DRIVES = {
    "worker-once": (drive_plain_worker, "straight"),
    "inline-submit": (drive_plain_inline, "straight"),
    "process-backend": (lambda state: drive_plain_worker(
        state, "--backend", "process", "--workers", "2", "--capacity", "2"), "straight"),
    "eval-workers": (lambda state: drive_plain_worker(state, "--eval-workers", "2"),
                     "straight"),
    "resume": (drive_plain_resume, "resumed"),
}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


@pytest.fixture
def no_grace(monkeypatch):
    # The in-claim grace poll only waits; it never changes a result.
    monkeypatch.setenv("REPRO_ISLAND_GRACE", "0")


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_group_matches_the_per_member_golden(tmp_path, goldens, no_grace, capsys,
                                            shape, drive):
    store = DRIVES[drive](SHAPES[shape], tmp_path / "state")
    assert group_digests(store, _group_jobs(SHAPES[shape])) == goldens["groups"][shape]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_split_group_runs_on_the_one_executor(tmp_path, goldens, no_grace, monkeypatch,
                                                shape):
    """Lone members step on the lockstep executor, never the solo run loop."""
    def solo_loop(*args, **kwargs):
        raise AssertionError("an island member ran EvolutionaryProtector.run/resume")

    monkeypatch.setattr(EvolutionaryProtector, "run", solo_loop)
    monkeypatch.setattr(EvolutionaryProtector, "resume", solo_loop)
    store = drive_split(SHAPES[shape], tmp_path / "state")
    assert group_digests(store, _group_jobs(SHAPES[shape])) == goldens["groups"][shape]


def test_a_group_held_whole_reads_no_migrant_buffer(tmp_path, capsys, monkeypatch):
    """``worker --once`` holds the group: migrants move in memory only."""
    from repro.service import islands

    reads: list[str] = []
    read = islands.read_round_migrants

    def counted(store, sender_job_id, *args, **kwargs):
        reads.append(sender_job_id)
        return read(store, sender_job_id, *args, **kwargs)

    monkeypatch.setattr(islands, "read_round_migrants", counted)
    shape = SHAPES["flare-base"]
    store = drive_worker_once(shape, tmp_path / "state")
    jobs = _group_jobs(shape)
    members = [store.get(job.job_id) for job in jobs[:-1]]
    assert all(record.status == "completed" for record in members)
    assert all(record.result.extras["island"]["rounds"] == 1 for record in members)
    assert reads == []


@pytest.mark.parametrize("drive", sorted(PLAIN_DRIVES))
def test_plain_jobs_match_the_golden(tmp_path, goldens, capsys, drive):
    run, golden = PLAIN_DRIVES[drive]
    store = run(tmp_path / "state")
    assert plain_digests(store) == goldens["plain"][golden]


def test_plain_jobs_run_on_the_one_executor(tmp_path, goldens, capsys, monkeypatch):
    """A plain job steps on the job executor, never the library run loop."""
    def solo_loop(*args, **kwargs):
        raise AssertionError("a plain job ran EvolutionaryProtector.run/resume")

    monkeypatch.setattr(EvolutionaryProtector, "run", solo_loop)
    monkeypatch.setattr(EvolutionaryProtector, "resume", solo_loop)
    store = drive_plain_resume(tmp_path / "state")
    assert plain_digests(store) == goldens["plain"]["resumed"]


@pytest.mark.parametrize("run", sorted(SOLO_RUNS))
def test_engine_step_matches_the_golden_every_generation(goldens, run):
    assert solo_digests(SOLO_RUNS[run]) == goldens["solo"][run]


# -- lockstep mechanics -------------------------------------------------------

#: Four flare islands exchanging twice: small, but every lockstep path.
FLEET = dict(dataset="flare", generations=6, seed=3, islands=4, migrate_every=2,
             migrants=2)


def _submit(store, shape: dict, **extras) -> list[ProtectionJob]:
    jobs = _group_jobs(shape)
    for job in jobs:
        store.submit(job, extras=dict(extras))
    return jobs


@pytest.fixture
def evaluators(monkeypatch) -> list[ProtectionEvaluator]:
    """Every evaluator built while the test runs."""
    built: list[ProtectionEvaluator] = []
    original_init = ProtectionEvaluator.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(ProtectionEvaluator, "__init__", init)
    return built


def test_one_worker_steps_the_group_on_one_evaluator(tmp_path, evaluators):
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    jobs = _submit(store, FLEET)
    Worker(store, worker_id="lockstep-worker").run_once()

    records = [store.get(job.job_id) for job in jobs]
    assert all(record.status == "completed" for record in records)
    assert not any("island_parked" in record.extras for record in records)
    (shared,) = evaluators
    members = [record.result for record in records[:-1]]
    merge = records[-1].result
    assert merge.fresh_evaluations == shared.evaluations
    assert merge.memo_hits == shared.cache_hits
    assert merge.persistent_hits == shared.persistent_hits
    assert sum(r.extras["evaluator_stats"]["batch_dedup"] for r in members) \
        == shared.batch_dedup
    # Each distinct candidate is charged once, to the lowest-index
    # member that submitted it: the initial population to island 0.
    assert members[0].fresh_evaluations > max(r.fresh_evaluations for r in members[1:])

    # A record's fitness time is its share, by candidate count, of the
    # pooled batch: the same time per candidate for every member.
    histories = [r.extras["history"] for r in members]
    for generation in zip(*histories):
        per_candidate = [item["fitness_seconds"] / item["evaluations"] for item in generation]
        assert per_candidate == pytest.approx([per_candidate[0]] * len(per_candidate))


def test_traced_members_each_keep_one_connected_tree(tmp_path):
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    trace.enable_tracing(sample_rate=1.0)
    try:
        jobs = _group_jobs(FLEET)
        for job in jobs:
            info = trace.new_trace_info()
            store.submit(job, extras={"trace": info})
        Worker(store, worker_id="traced-worker").run_once()
    finally:
        trace.disable_tracing()
    for job in jobs[:-1]:
        spans = trace.load_trace(store, job.job_id)["spans"]
        ids = {span["span_id"] for span in spans}
        roots = [span for span in spans if not span["parent_id"]]
        assert [root["name"] for root in roots] == ["repro.job"]
        assert all(span["parent_id"] in ids for span in spans if span["parent_id"])
        names = [span["name"] for span in spans]
        assert {"repro.claim", "repro.run", "repro.release", "repro.population.build",
                "repro.checkpoint.save"} <= set(names)
        assert names.count("repro.engine.generation") == FLEET["generations"]
        assert names.count("repro.island.exchange") == 2
        (run,) = [span for span in spans if span["name"] == "repro.run"]
        assert run["attrs"]["island"] == job.island_index
        generations = {span["span_id"] for span in spans
                       if span["name"] == "repro.engine.generation"}
        batches = [span for span in spans if span["name"] == "repro.eval.batch"
                   and span["parent_id"] in generations]
        assert len(batches) == FLEET["generations"]


@pytest.fixture
def lockstep_runs(monkeypatch) -> list[int]:
    """The size of every island group :func:`runner.execute_group` runs."""
    from repro.service import runner

    runs: list[int] = []
    group = runner.execute_group

    def counted(payloads, spans):
        if payloads[0]["job"].islands >= 2:
            runs.append(len(payloads))
        return group(payloads, spans)

    monkeypatch.setattr(runner, "execute_group", counted)
    return runs


class _Killed(BaseException):
    """A worker's death mid-run: nothing in the service catches it."""


def test_a_group_killed_mid_run_resumes_in_lockstep(tmp_path, monkeypatch, goldens,
                                                    lockstep_runs):
    """All members resume at their last exchange and match the golden."""
    from repro.service import runner

    shape = SHAPES["flare-base"]
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    jobs = _submit(store, shape)
    pooled = runner._evaluate_pooled

    def dying(runs, evaluator, proposals):
        if proposals[0].generation == 2:
            raise _Killed()
        return pooled(runs, evaluator, proposals)

    monkeypatch.setattr(runner, "_evaluate_pooled", dying)
    with pytest.raises(_Killed):
        Worker(store, worker_id="doomed-worker").run_once()
    assert all(store.get_checkpoint(job.job_id)["generation"] == 1 for job in jobs[:-1])

    monkeypatch.setattr(runner, "_evaluate_pooled", pooled)
    for job in jobs:
        record = store.get(job.job_id)
        if record.status != "queued":
            store.requeue(record)
    Worker(store, worker_id="rescue-worker").run_once()
    assert lockstep_runs == [shape["islands"]] * 2
    assert group_digests(store, jobs) == goldens["groups"]["flare-base"]


def _failing_saves(monkeypatch, island: int, times: int) -> list[int]:
    """Make island ``island``'s next ``times`` checkpoint saves raise."""
    from repro.service import islands

    raised: list[int] = []
    persist = islands._persist_island_checkpoint

    def failing(store, job, *args, **kwargs):
        if job.island_index == island and len(raised) < times:
            raised.append(job.island_index)
            raise OSError("disk full")
        return persist(store, job, *args, **kwargs)

    monkeypatch.setattr(islands, "_persist_island_checkpoint", failing)
    return raised


def test_a_transient_member_error_reruns_the_group_member_by_member(
        tmp_path, monkeypatch, goldens, no_grace, lockstep_runs):
    """The rerun resumes each member at its last durable exchange: same bits."""
    shape = SHAPES["flare-base"]
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    jobs = _submit(store, shape)
    raised = _failing_saves(monkeypatch, island=1, times=1)
    Worker(store, worker_id="flaky-worker").run_once()
    assert raised == [1]
    # The whole group, then each member alone through the same executor.
    assert lockstep_runs == [shape["islands"]] + [1] * shape["islands"]
    assert group_digests(store, jobs) == goldens["groups"]["flare-base"]


def test_a_failing_member_fails_alone_and_its_peers_degrade(
        tmp_path, monkeypatch, no_grace):
    """As in a split group: one member's error is not its peers' error."""
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    jobs = _submit(store, FLEET)
    _failing_saves(monkeypatch, island=2, times=1_000)
    Worker(store, worker_id="failing-worker").run_once()

    records = [store.get(job.job_id) for job in jobs]
    assert records[2].status == "failed"
    assert "disk full" in records[2].error
    assert [records[i].status for i in (0, 1, 3)] == ["completed"] * 3
    # Island 3 receives from island 2 (ring): it finished solo.
    assert records[3].result.extras["island"]["degraded"] is True
    assert records[-1].status == "failed"
    assert jobs[2].job_id in records[-1].error


def test_a_plain_job_runs_alongside_a_lockstep_group(tmp_path):
    """One backend map: the job and the whole group are its two tasks."""
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    plain = ProtectionJob(dataset="flare", generations=2, seed=1)
    store.submit(plain)
    jobs = _submit(store, FLEET)
    worker = Worker(store, worker_id="pair-worker", capacity=2)
    backend_map = worker.runner.backend.map
    shapes: list[list[int]] = []

    def recording_map(fn, tasks):
        shapes.append([len(task) for task in tasks])
        return backend_map(fn, tasks)

    worker.runner.backend.map = recording_map
    worker.run_once()
    assert shapes[0] == [1, FLEET["islands"]]
    assert store.get(plain.job_id).status == "completed"
    assert all(store.get(job.job_id).status == "completed" for job in jobs)


def test_the_poll_loop_leaves_groups_to_the_fleet(tmp_path, goldens, no_grace,
                                                  lockstep_runs):
    """``Worker.run`` claims members one slot each: a lone one runs them split."""
    shape = SHAPES["flare-base"]
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    jobs = _submit(store, shape)
    Worker(store, worker_id="poll-worker").run(poll_seconds=0.05, idle_exit=2)
    assert lockstep_runs and set(lockstep_runs) == {1}
    assert group_digests(store, jobs) == goldens["groups"]["flare-base"]


def compute_goldens(work: Path) -> dict:
    """Every golden, driven through ``repro worker --once``."""
    groups = {}
    for name, shape in SHAPES.items():
        store = drive_worker_once(shape, work / name)
        groups[name] = group_digests(store, _group_jobs(shape))
    solo = {name: solo_digests(run) for name, run in SOLO_RUNS.items()}
    plain = {"straight": plain_digests(drive_plain_worker(work / "plain")),
             "resumed": plain_digests(drive_plain_resume(work / "plain-resumed"))}
    return {"groups": groups, "solo": solo, "plain": plain}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        payload = compute_goldens(Path(work))
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDENS
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
