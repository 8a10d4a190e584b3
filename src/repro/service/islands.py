"""Island-model GA: the whole fleet accelerating a *single* search.

One serial GA loop per job means ten workers finish ten searches in the
time of one — but never make *one* search faster.  This module splits a
search into ``P`` cooperating :class:`~repro.service.job.ProtectionJob`
members (plus one final Pareto-merge job), each evolving its own
population on its own RNG stream and exchanging its top-``k`` elites
every ``M`` generations through the job store.

**Determinism is the design center.**  Three rules make a seeded island
run bit-identical regardless of worker count, claim interleaving, or
which island happens to run ahead:

1. *Disjoint streams*: island ``i`` draws from
   ``np.random.SeedSequence(seed).spawn(P)[i]`` — the spawn tree
   guarantees independence and reproducibility.
2. *Generation-stamped buffers*: migrants are published under their
   exchange round (``generation // M``), and an island entering round
   ``r`` consumes exactly the round-``r`` payloads of its topology
   neighbours — never "whatever is newest".
3. *Pure exchange*: publishing and injecting draw nothing from the run
   RNG; injection is a deterministic replacement plan (worst slots
   first, improvements only, senders in index order).

**Members run on the one job executor.**  An island member is a job
like any other: :func:`~repro.service.runner.execute_group` steps it
through the engine's one generation loop
(:func:`~repro.core.engine.run_lockstep`), with :func:`exchange_hook`
as its per-generation hook.  At every boundary each island publishes,
injects and saves, in one exchange step.  In a one-shot drain
(:meth:`~repro.service.worker.Worker.run_once`, ``repro worker
--once``, an inline ``repro submit --islands``) winning one member also
claims the group's still-queued siblings, and the executor steps the
whole group together: one shared evaluator, each engine on its own
stream, one pooled evaluation batch per generation.  The group takes
one capacity slot and each island takes its senders' migrants from
memory, so nothing reads a buffer, waits or parks.  A group runs whole
when every member starts fresh, or every member resumes at the same
generation from a settled exchange (:func:`lockstep_groups`).  If a
whole-group run raises, each member reruns alone from its last durable
exchange checkpoint, so an error fails only the member it belongs to.

Every other member runs alone, as a group of one: a *split* group (a
fleet's poll loop claims members one slot each, or another worker holds
a sibling), a parked or degraded member, or a single record handed to
:meth:`~repro.service.worker.Worker.process`.  A lone member reads its
senders' migrants from their buffers.  One whose inbound migrants have
not been published yet does not spin inside its claim: it *parks* —
persists a full engine checkpoint (plus island state) on the store's
checkpoint-blob path, requeues its own record behind the rest of the
queue, and releases the claim, so workers round-robin the members with
no deadlock.  Whether an injection happened in a whole group, alone,
or through a park/resume cycle is unobservable in the results: a park's
checkpoint is captured *before* injection, and the resumed member
settles that round through the same exchange step, replaying the
identical plan.

If a peer dies (its record ``failed``) or stays silent past the wait
timeout, the island **degrades to solo continuation** — sticky, counted
in ``repro_island_degraded_total``, announced by an ``island_degraded``
event — rather than blocking the fleet forever.  It keeps *publishing*
so downstream islands are unaffected.

Migrant payloads ride the checkpoint-blob path as
``<job_id>.migrants`` (:data:`MIGRANTS_BLOB_SUFFIX`), stored beside
the member's record and carried by ``repro migrate``.  **The payload
format and exchange cadence are a stability contract** (see ROADMAP):
``{"version", "group", "island", "topology",
"rounds": {"<r>": {"generation", "migrants": [...]}}}`` with
individuals encoded like format-v1 engine checkpoints (inline int64
codes, no shared table), so a worker of any version can join a live
group.

A member's engine draws from its spawned stream (:func:`member_rng`),
and its result is a plain job's plus ``extras["island"]``
(:func:`_member_extras`).  Islands are pure clients of
:data:`~repro.service.store.STORE_PROTOCOL` — no store grew a new
method for them.
"""

from __future__ import annotations

import math
import os
import time
import weakref
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import replace

import numpy as np

from repro.core.engine import EngineCheckpoint
from repro.core.individual import Individual
from repro.core.pareto import non_dominated_sort
from repro.exceptions import ServiceError
from repro.obs import emit_event, get_registry, trace
from repro.service.checkpoint import (
    CheckpointManager,
    _individual_from_dict,
    _individual_to_dict,
    is_resumable,
)
from repro.service.island_plan import (  # planning is numpy-free; re-exported here
    MIGRANTS_BLOB_SUFFIX as MIGRANTS_BLOB_SUFFIX,
    MIGRANTS_BLOB_VERSION,
    TOPOLOGIES as TOPOLOGIES,
    island_group_id,
    island_topology,
    member_job_ids,
    migrants_blob_id,
    plan_island_jobs as plan_island_jobs,
)
from repro.service.job import JobResult, ProtectionJob
from repro.service.store import (
    COMPLETED,
    FAILED,
    QUEUED,
    JobRecord,
    store_from_spec,
)

#: Seconds an island waits (across park/resume cycles) for a silent
#: peer's migrants before degrading to solo continuation.
DEFAULT_WAIT_TIMEOUT = 600.0

#: Seconds an island polls in-claim for inbound migrants before
#: parking.  Small: with one worker the peers *cannot* publish while we
#: hold the only execution slot, so long grace is pure waste.
DEFAULT_GRACE = 0.25


def _env_seconds(name: str, default: float) -> float:
    """Seconds from the environment variable ``name``, or ``default``.

    An unset, unparsable, NaN, infinite or negative value reads as
    ``default``: a NaN or infinite grace would never end the in-claim
    poll, and a NaN timeout would never degrade.
    """
    try:
        value = float(os.environ.get(name, "") or default)
    except ValueError:
        return default
    return value if math.isfinite(value) and value >= 0 else default


class IslandParked(ServiceError):
    """An island job yielded its claim at an unfulfilled exchange round.

    Not a failure: the job's full engine state is durably checkpointed
    and its record is requeued (behind the rest of the queue, so
    sibling islands get the worker first).  The next claim resumes the
    segment — :meth:`to_dict` is what rides back through the settled
    runner outcome so the worker can requeue instead of marking failed.
    """

    def __init__(self, job_id: str, round_index: int, generation: int,
                 waiting_on: tuple[str, ...] = ()) -> None:
        self.job_id = job_id
        self.round_index = int(round_index)
        self.generation = int(generation)
        self.waiting_on = tuple(waiting_on)
        peers = ", ".join(self.waiting_on) or "peers"
        super().__init__(
            f"island job {job_id!r} parked at exchange round "
            f"{self.round_index} (generation {self.generation}) "
            f"waiting on {peers}"
        )

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "round": self.round_index,
            "generation": self.generation,
            "waiting_on": list(self.waiting_on),
        }


# -- live-store registry ------------------------------------------------------

# Every job's payload names the *job store* (records, checkpoint and
# migrant blobs).  In-process backends resolve the exact live store
# object through this weak registry — critical for programmatically-built
# stores whose spec may not be independently reopenable.  Process
# backends and any registry miss fall back to reopening from the spec.
# A token names the process that registered it: a forked pool worker
# must not use the parent's store, whose lock a parent thread (the claim
# heartbeat) may hold at the fork and the child then waits on forever.
_LIVE_STORES: "weakref.WeakValueDictionary[str, object]" = (
    weakref.WeakValueDictionary()
)
_STORE_SEQ = iter(range(1, 1 << 62))


def register_store(store: object) -> str:
    """Register a live store; returns the token for ``resolve_store``."""
    token = f"st-{os.getpid()}-{next(_STORE_SEQ)}-{id(store):x}"
    _LIVE_STORES[token] = store
    return token


def store_spec_of(store: object) -> tuple[str, str]:
    """Best-effort ``(spec, token)`` that reopens ``store`` elsewhere."""
    spec = getattr(store, "spec", "")
    if spec:
        return str(spec), ""
    base = getattr(store, "base_url", "")
    if base:
        return str(base), str(getattr(store, "token", "") or "")
    return "", ""


def resolve_store(payload: dict):
    """The job store a runner payload points at.

    Prefers the live object (``store_ref``) when this process registered
    it, falls back to reopening from ``store_spec``.  Raising here rather
    than returning ``None`` turns a mis-wired submission into a clear
    failed job.
    """
    ref = str(payload.get("store_ref") or "")
    if ref.startswith(f"st-{os.getpid()}-"):
        store = _LIVE_STORES.get(ref)
        if store is not None:
            return store
    spec = str(payload.get("store_spec") or "")
    if spec:
        return store_from_spec(spec, token=str(payload.get("store_token") or ""))
    raise ServiceError(
        "island job payload carries no usable job-store reference "
        "(store_ref dead and store_spec empty) — island jobs must run "
        "through a store-connected worker or runner"
    )


# -- migrant buffers ----------------------------------------------------------


def select_migrants(individuals: list[Individual], k: int) -> list[Individual]:
    """The ``k`` elites (lowest score first, stable on ties)."""
    if k <= 0 or not individuals:
        return []
    scores = np.array([float(ind.score) for ind in individuals])
    order = np.argsort(scores, kind="stable")
    return [individuals[int(i)] for i in order[: min(k, len(individuals))]]


def migrant_entries(individuals: list[Individual], k: int) -> list[dict]:
    """The wire form of the ``k`` elites: what a published round carries."""
    return [_individual_to_dict(ind) for ind in select_migrants(individuals, k)]


def publish_migrants(
    store,
    job: ProtectionJob,
    round_index: int,
    generation: int,
    individuals: list[Individual],
) -> bool:
    """Merge this island's round-``round_index`` elites into its buffer.

    Read-modify-write like trace blobs — but an already-published round
    is kept, not overwritten: a re-claimed island recomputes the exact
    same elites (determinism), so first-write-wins is both safe and
    idempotent.  Returns whether this call added the round.
    """
    return _publish_round(store, job, round_index, generation,
                          migrant_entries(individuals, job.migrants))


def _publish_round(store, job: ProtectionJob, round_index: int, generation: int,
                   entries: list[dict]) -> bool:
    """:func:`publish_migrants` of already encoded elites."""
    blob_id = migrants_blob_id(job.job_id)
    group = island_group_id(job)
    payload = store.get_checkpoint(blob_id)
    if (
        not isinstance(payload, dict)
        or payload.get("version") != MIGRANTS_BLOB_VERSION
        or payload.get("group") != group
    ):
        payload = {
            "version": MIGRANTS_BLOB_VERSION,
            "group": group,
            "island": job.island_index,
            "topology": job.topology,
            "rounds": {},
        }
    rounds = payload.setdefault("rounds", {})
    key = str(int(round_index))
    if key in rounds:
        return False
    rounds[key] = {"generation": int(generation), "migrants": entries}
    store.put_checkpoint(blob_id, payload)
    return True


def read_round_migrants(
    store,
    sender_job_id: str,
    group: str,
    round_index: int,
    reference,
) -> list[Individual] | None:
    """The sender's round-``round_index`` migrants, or ``None`` if unpublished."""
    payload = store.get_checkpoint(migrants_blob_id(sender_job_id))
    if (
        not isinstance(payload, dict)
        or payload.get("version") != MIGRANTS_BLOB_VERSION
        or payload.get("group") != group
    ):
        return None
    entry = (payload.get("rounds") or {}).get(str(int(round_index)))
    if not isinstance(entry, dict):
        return None
    return [
        _individual_from_dict(item, reference)
        for item in entry.get("migrants", [])
    ]


def plan_injection(
    individuals: list[Individual], migrants: list[Individual]
) -> list[tuple[int, Individual]]:
    """Deterministic elite injection: ``(slot, replacement)`` pairs.

    Migrants (in their given order: senders ascending, elite rank
    ascending) each target the worst not-yet-replaced slot and land
    only when strictly better than it — slots are ordered worst-first,
    so a migrant the worst remaining slot beats would lose everywhere.
    Pure function of its inputs; never touches an RNG.
    """
    if not migrants:
        return []
    scores = np.array([float(ind.score) for ind in individuals])
    worst_first = [int(i) for i in np.argsort(scores, kind="stable")[::-1]]
    taken: set[int] = set()
    plan: list[tuple[int, Individual]] = []
    for migrant in migrants:
        slot = next((s for s in worst_first if s not in taken), None)
        if slot is None:
            break
        if float(migrant.score) < float(scores[slot]):
            plan.append((slot, replace(migrant, origin="migrant")))
            taken.add(slot)
    return plan


# -- the exchange step: publish, await, inject, persist, park ----------------


def _state_payload(state: dict) -> dict:
    return {
        "pending_round": int(state.get("pending_round") or 0),
        "wait_since": float(state.get("wait_since") or 0.0),
        "degraded": bool(state.get("degraded")),
        "rounds": int(state.get("rounds") or 0),
        "injected": int(state.get("injected") or 0),
    }


def _failed_senders(store, sender_ids: list[str]) -> list[str]:
    failed = []
    for sender_id in sender_ids:
        record = store.get(sender_id, missing_ok=True)
        if record is not None and record.status == FAILED:
            failed.append(sender_id)
    return failed


def _persist_island_checkpoint(
    store, job: ProtectionJob, checkpoint: EngineCheckpoint, state: dict,
    owner: str | None = None,
) -> None:
    """Durably save a segment checkpoint (plus island state) to the store.

    ``owner`` is the claim owner the save is gated on.
    """
    manager = CheckpointManager(store, job.job_id, job.checkpoint_fingerprint(), owner=owner)
    manager.save(checkpoint, island_state=_state_payload(state))


def _degrade(job: ProtectionJob, state: dict, reason: str,
             waiting_on: list[str], round_index: int) -> None:
    """Sticky solo continuation: stop consuming, keep publishing."""
    state["degraded"] = True
    state["wait_since"] = 0.0
    state["pending_round"] = 0
    registry = get_registry()
    if registry.enabled:
        registry.inc("repro_island_degraded_total",
                     island=str(job.island_index))
        emit_event("island_degraded", job_id=job.job_id,
                   island=job.island_index, round=round_index,
                   reason=reason, waiting_on=list(waiting_on))


def _await_round(
    store,
    job: ProtectionJob,
    state: dict,
    round_index: int,
    senders: list[str],
    reference,
    individuals: list[Individual],
    apply_replacement: Callable[[int, Individual], None],
    held: dict[str, list[Individual]],
) -> tuple[str, ...]:
    """Await exchange round ``round_index``; the sender ids still owed.

    ``held`` maps each sender that runs in this process to its round
    migrants, taken from memory; every other sender's are read from its
    buffer through the one gather → grace → degrade → park sequence.
    Once every sender has published, injects the migrants into
    ``individuals`` via ``apply_replacement(slot, individual)``.  A
    failed sender, or silence past the wait timeout, degrades to solo
    continuation.  Both return ``()``; otherwise the round stays pending
    (the wait clock starts if idle) and the caller parks.
    """
    group = island_group_id(job)
    grace = _env_seconds("REPRO_ISLAND_GRACE", DEFAULT_GRACE)
    wait_started = time.monotonic()
    while True:
        received: list[Individual] = []
        missing: list[str] = []
        for sender_id in senders:
            migrants = held[sender_id] if sender_id in held else read_round_migrants(
                store, sender_id, group, round_index, reference)
            if migrants is None:
                missing.append(sender_id)
            else:
                received.extend(migrants)
        if not missing or time.monotonic() - wait_started >= grace:
            break
        time.sleep(min(0.05, grace))
    wait_since = float(state.get("wait_since") or 0.0)
    if missing:
        failed = _failed_senders(store, missing)
        if failed:
            _degrade(job, state, "sender-failed", failed, round_index)
            return ()
        timeout = _env_seconds("REPRO_ISLAND_WAIT_TIMEOUT", DEFAULT_WAIT_TIMEOUT)
        if wait_since and time.time() - wait_since > timeout:
            _degrade(job, state, "timeout", missing, round_index)
            return ()
        if not wait_since:
            state["wait_since"] = time.time()
        state["pending_round"] = round_index
        return tuple(missing)
    waited = max(0.0, (time.time() - wait_since) if wait_since else (
        time.monotonic() - wait_started))
    _inject(job, state, round_index, received, individuals, apply_replacement, waited)
    return ()


def _inject(
    job: ProtectionJob,
    state: dict,
    round_index: int,
    received: list[Individual],
    individuals: list[Individual],
    apply_replacement: Callable[[int, Individual], None],
    waited: float,
) -> None:
    """Settle round ``round_index``: inject ``received`` and count the exchange."""
    plan = plan_injection(individuals, received)
    for slot, individual in plan:
        apply_replacement(slot, individual)
    state["rounds"] += 1
    state["injected"] += len(plan)
    state["pending_round"] = 0
    state["wait_since"] = 0.0
    registry = get_registry()
    if registry.enabled:
        registry.inc("repro_island_migrations_total", len(plan),
                     island=str(job.island_index))
        registry.observe("repro_island_migrant_wait_seconds", waited)
        emit_event("island_exchange", job_id=job.job_id,
                   island=job.island_index, round=round_index,
                   received=len(received), injected=len(plan),
                   wait_seconds=round(waited, 3))


def _exchange_due(job: ProtectionJob, generation: int) -> bool:
    """Whether island ``job`` exchanges right after ``generation``.

    Every ``migrate_every``-th generation but the final one, which has
    nothing downstream to inject into.
    """
    return generation % job.migrate_every == 0 and generation < job.generations


def _member_extras(job: ProtectionJob, state: dict, population) -> dict:
    """A finished member's ``extras["island"]``."""
    return {
        "group": island_group_id(job),
        "role": "member",
        "index": job.island_index,
        "islands": job.islands,
        "topology": job.topology,
        "migrate_every": job.migrate_every,
        "migrants": job.migrants,
        "rounds": state["rounds"],
        "injected": state["injected"],
        "degraded": state["degraded"],
        # The final (IL, DR, score) cloud: what the merge job's
        # Pareto consolidation runs over.
        "population": [
            [float(ind.information_loss), float(ind.disclosure_risk),
             float(ind.score)]
            for ind in population
        ],
    }


# -- the exchange hook: island members on the runner's one executor ----------


def lockstep_groups(jobs: list[ProtectionJob], blobs: list[dict | None], store) -> list[list[int]]:
    """The island groups in ``jobs`` that can run in lockstep, as index lists.

    A group qualifies when ``jobs`` holds each of its ``P`` members
    exactly once, and either every member starts fresh (no resumable
    checkpoint) or every member resumes at the same generation from a
    settled exchange: no pending round, none degraded.  Each index list
    is in island order.  The checkpoint blob of a complete group's
    member whose ``blobs`` entry is ``None`` is read and stored there,
    for the member's run, whole or alone; a qualifying group that starts
    fresh gets ``None`` entries, as the executor takes them.
    """
    positions: dict[str, list[int]] = {}
    for position, job in enumerate(jobs):
        if job.islands >= 2 and job.island_index < job.islands:
            positions.setdefault(island_group_id(job), []).append(position)
    groups = []
    for members in positions.values():
        members.sort(key=lambda position: jobs[position].island_index)
        if [jobs[i].island_index for i in members] != list(range(jobs[members[0]].islands)):
            continue
        for i in members:
            if blobs[i] is None:
                blobs[i] = store.get_checkpoint(jobs[i].job_id)
        resumable = [is_resumable(blobs[i], jobs[i].checkpoint_fingerprint()) for i in members]
        if all(resumable):
            states = [_state_payload(blobs[i].get("island_state") or {}) for i in members]
            if (len({blobs[i]["generation"] for i in members}) > 1
                    or any(st["pending_round"] or st["degraded"] for st in states)):
                continue
        elif any(resumable):
            continue
        else:
            for i in members:
                blobs[i] = None
        groups.append(members)
    return groups


def member_rng(job: ProtectionJob) -> np.random.Generator:
    """Island ``job``'s run stream: rule 1's disjoint, reproducible spawn."""
    stream = np.random.SeedSequence(job.seed).spawn(job.islands)[job.island_index]
    return np.random.default_rng(stream)


def exchange_hook(runs: list, payload: dict, store, reference) -> Callable[[int], None]:
    """The per-generation hook of island members run by the runner's executor.

    ``runs`` are one group's members, whole or one alone, started or
    restored.  Each gets back the island state of the checkpoint it
    resumed from, and a member a previous claim parked settles that
    round first, as if it never parked.  The hook then runs the exchange
    step at every due boundary, saves gated on the payload's ``owner``.
    """
    owner = payload.get("owner")
    for run in runs:
        run.island = _state_payload((run.blob or {}).get("island_state") or {})
    for run in runs:
        if run.island["pending_round"]:
            _exchange_members([run], store, owner, reference, run.state.generation,
                              settling=True)
    head = runs[0].job

    def exchange(generation: int) -> None:
        if _exchange_due(head, generation):
            _exchange_members(runs, store, owner, reference, generation)

    return exchange


def _exchange_members(members: list, store, owner: str | None, reference,
                      generation: int, settling: bool = False) -> None:
    """The exchange step of every member in ``members`` (the executor's runs) at ``generation``.

    Each island publishes its pre-injection elites, takes a held
    sender's migrants from memory (decoded from the same wire form peers
    read) and any other sender's through :func:`_await_round`, and saves
    its post-injection checkpoint.  A member still owed migrants (only
    a lone one can be) saves its pre-injection checkpoint and parks.
    ``settling`` is the resumed member's re-run of that round: nothing
    is published, and a re-park saves only to start the wait clock.
    """
    head = members[0].job
    round_index = generation // head.migrate_every
    inbound = island_topology(head.topology, head.islands)
    entries = {member.job.job_id: migrant_entries(list(member.state.population),
                                                  member.job.migrants)
               for member in members}
    with ExitStack() as open_spans:
        # As a generation's, every member's span covers the group's exchange.
        for member in members:
            open_spans.enter_context(member.span(
                "repro.island.exchange", island=member.job.island_index,
                round=round_index, generation=generation))
        for member in members:
            job, state, population = member.job, member.island, member.state.population
            senders = [replace(job, island_index=s).job_id
                       for s in sorted(inbound[job.island_index])]
            held = {sender: [_individual_from_dict(item, reference) for item in entries[sender]]
                    for sender in senders if sender in entries}
            with trace.entered(member.scope):
                if not settling:
                    _publish_round(store, job, round_index, generation, entries[job.job_id])
                clock_idle = not state["wait_since"]
                waiting_on = () if state["degraded"] else _await_round(
                    store, job, state, round_index, senders, reference,
                    list(population), population.replace, held)
                if not settling or not waiting_on or clock_idle:
                    _persist_island_checkpoint(store, job, member.engine.capture(member.state),
                                               state, owner)
            if waiting_on:
                raise IslandParked(job.job_id, round_index, generation, waiting_on)


# -- the merge executor -------------------------------------------------------


def front_dominates_or_matches(
    candidate: list[tuple[float, float]],
    baseline: list[tuple[float, float]],
) -> bool:
    """Every baseline (IL, DR) point is matched or dominated by ``candidate``."""
    for il, dr in baseline:
        if not any(c_il <= il and c_dr <= dr for c_il, c_dr in candidate):
            return False
    return True


def _execute_merge_job(job: ProtectionJob, payload: dict) -> JobResult:
    store = resolve_store(payload)
    start = time.perf_counter()
    member_ids = member_job_ids(job)
    records: list[JobRecord] = []
    missing: list[str] = []
    failed: list[str] = []
    unfinished: list[str] = []
    for member_id in member_ids:
        record = store.get(member_id, missing_ok=True)
        if record is None:
            missing.append(member_id)
        elif record.status == FAILED:
            failed.append(record.job_id)
        elif record.status != COMPLETED or record.result is None:
            unfinished.append(record.job_id)
        else:
            records.append(record)
    if missing:
        raise ServiceError(
            f"island merge {job.job_id!r}: member jobs never submitted: "
            f"{missing} — submit the whole group (repro submit --islands)"
        )
    if failed:
        raise ServiceError(
            f"island merge {job.job_id!r}: member islands failed: {failed}"
        )
    if unfinished:
        # Not claimable work yet: park behind the members and try again
        # once more of them have finished ("generation" counts them, so
        # the worker's park signature still detects progress).
        raise IslandParked(job.job_id, 0, len(records), tuple(unfinished))

    results = [record.result for record in records]
    points: list[tuple[float, float]] = []
    degraded_members: list[int] = []
    for result in results:
        island = result.extras.get("island") or {}
        population = island.get("population") or []
        if population:
            points.extend(
                (float(entry[0]), float(entry[1])) for entry in population
            )
        else:
            points.append((float(result.best_information_loss),
                           float(result.best_disclosure_risk)))
        if island.get("degraded"):
            degraded_members.append(int(island.get("index", -1)))
    fronts = non_dominated_sort(np.array(points, dtype=np.float64))
    front = sorted({points[int(i)] for i in fronts[0]})

    best = min(results, key=lambda r: float(r.best_score))
    merged = JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=max(int(r.generations) for r in results),
        best_score=float(best.best_score),
        best_information_loss=float(best.best_information_loss),
        best_disclosure_risk=float(best.best_disclosure_risk),
        final_scores=tuple(float(r.best_score) for r in results),
        mean_improvement_percent=float(
            np.mean([float(r.mean_improvement_percent) for r in results])
        ),
        fresh_evaluations=sum(int(r.fresh_evaluations) for r in results),
        memo_hits=sum(int(r.memo_hits) for r in results),
        persistent_hits=sum(int(r.persistent_hits) for r in results),
        wall_seconds=time.perf_counter() - start,
        extras={
            "island": {
                "group": island_group_id(job),
                "role": "merge",
                "islands": job.islands,
                "topology": job.topology,
                "migrate_every": job.migrate_every,
                "migrants": job.migrants,
                "members": member_ids,
                "member_best": [float(r.best_score) for r in results],
                "degraded_members": degraded_members,
                "front": [[il, dr] for il, dr in front],
            },
        },
    )
    registry = get_registry()
    if registry.enabled:
        emit_event("island_merge", job_id=job.job_id,
                   group=island_group_id(job), members=len(results),
                   front_size=len(front),
                   best_score=float(best.best_score))
    return merged


# -- dispatch + park plumbing -------------------------------------------------


def execute_island_job(payload: dict) -> JobResult:
    """Run one island-group job (member or merge) on its own, from a runner payload.

    Checks the island fields, then runs the job as the runner runs any
    job on its own (:func:`~repro.service.runner._execute_job`): a
    member as a group of one, the merge over its members' results.  It
    raises :class:`IslandParked` for the yield path.
    """
    job = ProtectionJob.from_dict(payload["job"])
    if job.islands < 2:
        raise ServiceError(
            f"execute_island_job needs islands >= 2, got {job.islands}"
        )
    if not 0 <= job.island_index <= job.islands:
        raise ServiceError(
            f"island_index must be in [0, {job.islands}], "
            f"got {job.island_index}"
        )
    from repro.service.runner import _execute_job

    return _execute_job(payload)


def _execute_member_job(job: ProtectionJob, payload: dict) -> JobResult:
    """Run island member ``job`` (``payload``'s job) on its own."""
    return execute_island_job(payload)


def park_record(store, record: JobRecord, parked: dict) -> None:
    """Requeue a parked island record behind the rest of the queue.

    ``store.requeue`` re-reads disk and would discard the bookkeeping
    below, so the held record is mutated and saved directly — legal
    because the caller still owns the claim (released right after, in
    the worker's ``finally``).  Bumping ``submitted_at`` sends the
    record to the back of the oldest-first queue, so a lone worker
    round-robins the group's islands instead of re-claiming this one.
    """
    record.status = QUEUED
    record.started_at = None
    record.finished_at = None
    record.result = None
    record.error = ""
    record.submitted_at = time.time()
    record.extras["island_parked"] = {
        "round": int(parked.get("round") or 0),
        "generation": int(parked.get("generation") or 0),
        "waiting_on": list(parked.get("waiting_on") or ()),
        "at": record.submitted_at,
    }
    store.save(record)


def parked_signature(parked: dict) -> tuple[int, int]:
    """Progress key of a park: unchanged signature == no forward motion."""
    return (int(parked.get("round") or 0), int(parked.get("generation") or 0))


def drive_group(store, worker, job_ids: list[str],
                poll_seconds: float = 0.2) -> list[JobRecord]:
    """Run an island group to completion with an in-process worker.

    The inline (non-detached) ``repro submit --islands`` path.  Each pass
    hands every queued member to one ``worker.process`` call, so a worker
    that wins them all steps the group in lockstep; the merge runs once
    no member is left queued.  A member that parks (a split group) goes
    back in the queue for the next pass.  Cooperates with external
    workers: records claimed or running elsewhere are simply awaited.
    Sleeps only on full passes with no progress (every queued island
    parked at an unchanged exchange boundary and nothing finished),
    where the peers' publishes must arrive from outside this process.
    """
    signatures: dict[str, tuple[int, int]] = {}
    pending = set(job_ids)
    while pending:
        progress = False
        queued: list[JobRecord] = []
        for job_id in job_ids:
            if job_id not in pending:
                continue
            record = store.get(job_id, missing_ok=True)
            if record is None:
                raise ServiceError(f"island group job {job_id!r} disappeared")
            if record.status in (COMPLETED, FAILED):
                pending.discard(job_id)
                progress = True
            elif record.status == QUEUED:
                queued.append(record)
            # otherwise running under another worker; await it
        batch = [r for r in queued if r.job.island_index < r.job.islands] or queued
        # A claim lost to an external worker simply yields no outcome.
        for outcome in worker.process(batch) if batch else ():
            if outcome.parked is None:
                pending.discard(outcome.job_id)
                progress = True
            else:
                signature = parked_signature(outcome.parked)
                if signatures.get(outcome.job_id) != signature:
                    progress = True
                signatures[outcome.job_id] = signature
        if pending and not progress:
            store.recover_stale_claims(worker.stale_after)
            time.sleep(poll_seconds)
    return [store.get(job_id) for job_id in job_ids]
