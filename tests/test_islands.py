"""Island-model unit tests: topology, planning, migrants, engine hook.

The fleet-level determinism and recovery battery lives in
``test_islands_fleet.py``; this file pins the pure pieces — topology
maps, job planning and fingerprints, seed-stream disjointness, migrant
selection/injection, the migrant-blob wire format, and the engine's
migration hook contract.
"""

from __future__ import annotations

import base64
import pickle
import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import EvolutionaryProtector
from repro.data import CategoricalDataset
from repro.datasets import load_adult
from repro.exceptions import EvolutionError, ServiceError
from repro.metrics import ProtectionEvaluator
from repro.obs.instrument import instrument_store
from repro.methods import Microaggregation, Pram, RankSwapping
from repro.service import (
    TOPOLOGIES,
    IslandParked,
    ProtectionJob,
    SqliteJobStore,
    front_dominates_or_matches,
    island_group_id,
    island_topology,
    member_job_ids,
    migrants_blob_id,
    plan_island_jobs,
)
from repro.service.islands import (
    _env_seconds,
    parked_signature,
    plan_injection,
    publish_migrants,
    read_round_migrants,
    select_migrants,
)

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


# -- topology ---------------------------------------------------------------


class TestTopology:
    def test_ring_is_pinned(self):
        assert island_topology("ring", 4) == {
            0: (3,), 1: (0,), 2: (1,), 3: (2,),
        }

    def test_star_is_pinned(self):
        assert island_topology("star", 4) == {
            0: (1, 2, 3), 1: (0,), 2: (0,), 3: (0,),
        }

    def test_full_is_pinned(self):
        assert island_topology("full", 3) == {
            0: (1, 2), 1: (0, 2), 2: (0, 1),
        }

    @pytest.mark.parametrize("name", TOPOLOGIES)
    @pytest.mark.parametrize("islands", [2, 3, 5])
    def test_no_island_starves_and_every_island_feeds(self, name, islands):
        inbound = island_topology(name, islands)
        assert set(inbound) == set(range(islands))
        senders = set()
        for island, peers in inbound.items():
            assert peers, f"island {island} receives from nobody"
            assert island not in peers, "an island never feeds itself"
            senders.update(peers)
        assert senders == set(range(islands))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ServiceError, match="topology"):
            island_topology("mesh", 4)

    def test_too_few_islands_rejected(self):
        with pytest.raises(ServiceError):
            island_topology("ring", 1)


# -- planning and fingerprints ----------------------------------------------


class TestPlanning:
    BASE = ProtectionJob(dataset="flare", generations=10, seed=7)

    def test_single_island_is_the_base_job(self):
        assert plan_island_jobs(self.BASE, 1) == [self.BASE]

    def test_group_shape(self):
        group = plan_island_jobs(self.BASE, 3, migrate_every=5, migrants=2)
        assert len(group) == 4  # 3 members + the merge job
        assert [job.island_index for job in group] == [0, 1, 2, 3]
        assert all(job.islands == 3 for job in group)
        assert all(job.migrate_every == 5 for job in group)
        assert all(job.topology == "ring" for job in group)
        merge = group[-1]
        assert merge.island_index == merge.islands

    def test_one_group_id_many_job_ids(self):
        group = plan_island_jobs(self.BASE, 3)
        ids = {job.job_id for job in group}
        assert len(ids) == 4
        assert len({island_group_id(job) for job in group}) == 1

    def test_member_job_ids_match_the_plan(self):
        group = plan_island_jobs(self.BASE, 3)
        assert member_job_ids(group[-1]) == [job.job_id for job in group[:-1]]

    @pytest.mark.parametrize("kwargs", [
        {"migrate_every": 0},
        {"migrants": 0},
        {"topology": "mesh"},
    ])
    def test_bad_plan_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            plan_island_jobs(self.BASE, 2, **kwargs)

    def test_island_fields_outside_island_runs_do_not_move_fingerprints(self):
        # Pre-island stores hold fingerprints hashed without these
        # fields; a job that is not an island run must keep hashing
        # (and naming) exactly as before.
        decoy = replace(self.BASE, island_index=3, topology="star",
                        migrate_every=9, migrants=5)
        assert decoy.fingerprint() == self.BASE.fingerprint()
        assert decoy.job_id == self.BASE.job_id

    def test_island_fields_in_island_runs_do_move_fingerprints(self):
        group = plan_island_jobs(self.BASE, 2)
        prints = {job.fingerprint() for job in group}
        assert len(prints) == 3
        assert self.BASE.fingerprint() not in prints

    def test_island_job_round_trips_through_dict(self):
        job = plan_island_jobs(self.BASE, 2)[1]
        assert ProtectionJob.from_dict(job.to_dict()) == job

    def test_to_config_drops_island_fields(self):
        config = plan_island_jobs(self.BASE, 2)[0].to_config()
        assert config.dataset == "flare"
        assert not hasattr(config, "islands")


# -- seed streams -----------------------------------------------------------


class TestSeedStreams:
    def test_streams_are_disjoint(self):
        streams = np.random.SeedSequence(42).spawn(4)
        draws = [np.random.default_rng(s).integers(0, 2**63, size=8).tolist()
                 for s in streams]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert draws[i] != draws[j]

    def test_streams_are_reproducible(self):
        one = np.random.default_rng(np.random.SeedSequence(42).spawn(4)[2])
        two = np.random.default_rng(np.random.SeedSequence(42).spawn(4)[2])
        assert one.integers(0, 2**63, size=8).tolist() == \
            two.integers(0, 2**63, size=8).tolist()


# -- migrants: selection, injection, wire format ----------------------------


@pytest.fixture(scope="module")
def scored_individuals():
    """Seven evaluated individuals over a 120-row Adult slice."""
    from repro.core.individual import Individual

    full = load_adult()
    adult = CategoricalDataset(full.codes[:120], full.schema, name="adult-small")
    protections = [Pram(theta=t).protect(adult, ATTRS, seed=i)
                   for i, t in enumerate((0.1, 0.3, 0.5))]
    protections += [RankSwapping(p=p).protect(adult, ATTRS, seed=10 + p)
                    for p in (2, 6)]
    protections += [Microaggregation(k=k).protect(adult, ATTRS) for k in (3, 6)]
    evaluator = ProtectionEvaluator(adult, ATTRS)
    evaluations = evaluator.evaluate_many(protections)
    return adult, [
        Individual(dataset=data, evaluation=evaluation)
        for data, evaluation in zip(protections, evaluations)
    ]


class TestMigrantSelection:
    def test_top_k_by_score(self, scored_individuals):
        __, individuals = scored_individuals
        elites = select_migrants(individuals, 3)
        scores = sorted(ind.score for ind in individuals)
        assert [ind.score for ind in elites] == scores[:3]

    def test_k_larger_than_population(self, scored_individuals):
        __, individuals = scored_individuals
        assert len(select_migrants(individuals, 99)) == len(individuals)

    def test_selection_is_pure(self, scored_individuals):
        __, individuals = scored_individuals
        before = list(individuals)
        select_migrants(individuals, 2)
        assert individuals == before


class TestInjectionPlan:
    def test_only_strictly_better_migrants_land(self, scored_individuals):
        __, individuals = scored_individuals
        ranked = sorted(individuals, key=lambda ind: ind.score)
        best, worst = ranked[0], ranked[-1]
        plan = plan_injection(individuals, [best, worst])
        # The incoming copy of the best strictly improves the worst
        # slot; the incoming copy of the worst improves nothing.
        assert len(plan) == 1
        slot, migrant = plan[0]
        assert individuals[slot].score == worst.score
        assert migrant.score == best.score

    def test_migrants_are_retagged(self, scored_individuals):
        __, individuals = scored_individuals
        best = min(individuals, key=lambda ind: ind.score)
        ((__, migrant),) = plan_injection(individuals, [best])
        assert migrant.origin == "migrant"

    def test_no_slot_is_taken_twice(self, scored_individuals):
        __, individuals = scored_individuals
        best = min(individuals, key=lambda ind: ind.score)
        plan = plan_injection(individuals, [best, best, best])
        slots = [slot for slot, __ in plan]
        assert len(slots) == len(set(slots))

    def test_plan_is_deterministic(self, scored_individuals):
        __, individuals = scored_individuals
        migrants = select_migrants(individuals, 3)
        one = plan_injection(individuals, migrants)
        two = plan_injection(individuals, migrants)
        assert [(slot, ind.score) for slot, ind in one] == \
            [(slot, ind.score) for slot, ind in two]


class TestMigrantBlobs:
    BASE = ProtectionJob(dataset="flare", generations=10, seed=7)

    def _job(self):
        return plan_island_jobs(self.BASE, 2, migrate_every=5, migrants=2)[0]

    def test_round_trip(self, tmp_path, scored_individuals):
        adult, individuals = scored_individuals
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        job = self._job()
        assert publish_migrants(store, job, 1, 5, individuals)
        back = read_round_migrants(store, job.job_id, island_group_id(job),
                                   1, adult)
        elites = select_migrants(individuals, 2)
        assert [ind.score for ind in back] == [ind.score for ind in elites]
        assert all(
            np.array_equal(a.dataset.codes, b.dataset.codes)
            for a, b in zip(back, elites)
        )

    def test_unpublished_round_reads_none(self, tmp_path, scored_individuals):
        adult, individuals = scored_individuals
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        job = self._job()
        publish_migrants(store, job, 1, 5, individuals)
        assert read_round_migrants(store, job.job_id, island_group_id(job),
                                   2, adult) is None

    def test_absent_blob_reads_none(self, tmp_path, scored_individuals):
        adult, __ = scored_individuals
        job = self._job()
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        assert read_round_migrants(store, job.job_id, island_group_id(job),
                                   1, adult) is None

    def test_first_write_wins(self, tmp_path, scored_individuals):
        adult, individuals = scored_individuals
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        job = self._job()
        assert publish_migrants(store, job, 1, 5, individuals[:3])
        # A re-published round (a worker re-running a recovered segment)
        # must not move what peers may have already consumed.
        assert not publish_migrants(store, job, 1, 5, individuals[3:])
        back = read_round_migrants(store, job.job_id, island_group_id(job),
                                   1, adult)
        first = select_migrants(individuals[:3], 2)
        assert [ind.score for ind in back] == [ind.score for ind in first]

    def test_foreign_group_reads_none(self, tmp_path, scored_individuals):
        adult, individuals = scored_individuals
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        job = self._job()
        publish_migrants(store, job, 1, 5, individuals)
        assert read_round_migrants(store, job.job_id, "ig-somebody-else",
                                   1, adult) is None

    def test_published_round_keeps_the_v1_wire_format(self, tmp_path, scored_individuals):
        # Checkpoints moved to format 2; migrant blobs must not follow,
        # or a worker of an older version could not join a live group.
        __, individuals = scored_individuals
        store = SqliteJobStore(tmp_path / "store" / "jobs.sqlite")
        job = self._job()
        publish_migrants(store, job, 1, 5, individuals)
        blob = store.get_checkpoint(migrants_blob_id(job.job_id))
        assert set(blob) == {"version", "group", "island", "topology", "rounds"}
        assert blob["version"] == 1
        entry = blob["rounds"]["1"]
        assert set(entry) == {"generation", "migrants"}
        elites = select_migrants(individuals, 2)
        assert len(entry["migrants"]) == len(elites)
        for item, elite in zip(entry["migrants"], elites):
            assert set(item) == {"name", "origin", "birth_generation", "codes", "evaluation"}
            assert set(item["codes"]) == {"shape", "data"}
            assert item["codes"]["shape"] == list(elite.dataset.codes.shape)
            # The v1 decoder, spelled out: zlib over a raw int64 buffer.
            raw = zlib.decompress(base64.b64decode(item["codes"]["data"]))
            codes = np.frombuffer(raw, dtype=np.int64).reshape(item["codes"]["shape"])
            assert np.array_equal(codes, elite.dataset.codes)

    def test_blob_id_rides_the_checkpoint_channel(self):
        assert migrants_blob_id("flare-s7-abc") == "flare-s7-abc.migrants"


# -- parked signal ----------------------------------------------------------


class TestParkedSignal:
    def test_to_dict_and_signature(self):
        parked = IslandParked("job-1", 3, 75, waiting_on=("job-2",))
        payload = parked.to_dict()
        assert payload == {
            "job_id": "job-1", "round": 3, "generation": 75,
            "waiting_on": ["job-2"],
        }
        assert parked_signature(payload) == (3, 75)


class TestStorePickling:
    """A pool worker gets the job store by pickle and opens its own connection."""

    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "instrumented"])
    def test_a_store_pickles_as_its_path(self, tmp_path, wrap):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(ProtectionJob(dataset="flare", generations=2))
        shipped = instrument_store(store) if wrap else store
        reopened = pickle.loads(pickle.dumps(shipped))
        assert type(reopened) is SqliteJobStore
        assert reopened is not store and reopened._conn is not store._conn
        assert reopened.path == store.path
        assert reopened.get(record.job_id).job == record.job


class TestTimingEnv:
    """The island wait settings read seconds, and only usable ones."""

    @pytest.mark.parametrize("raw, seconds", [
        ("", 0.25), ("0", 0.0), ("1.5", 1.5), ("soon", 0.25),
        # A NaN or infinite grace never ends the in-claim poll, and a
        # NaN timeout never degrades: both read as unset.
        ("nan", 0.25), ("inf", 0.25), ("-inf", 0.25), ("-1", 0.25),
    ])
    def test_unusable_values_fall_back_to_the_default(self, monkeypatch, raw, seconds):
        monkeypatch.setenv("REPRO_ISLAND_GRACE", raw)
        assert _env_seconds("REPRO_ISLAND_GRACE", 0.25) == seconds


# -- the engine's migration hook --------------------------------------------


@pytest.fixture(scope="module")
def small_population():
    full = load_adult()
    adult = CategoricalDataset(full.codes[:120], full.schema, name="adult-small")
    protections = [Pram(theta=t).protect(adult, ATTRS, seed=i)
                   for i, t in enumerate((0.1, 0.3, 0.5))]
    protections += [RankSwapping(p=p).protect(adult, ATTRS, seed=10 + p)
                    for p in (2, 6)]
    protections += [Microaggregation(k=k).protect(adult, ATTRS) for k in (3, 6)]
    return adult, protections


def make_engine(adult, **kwargs) -> EvolutionaryProtector:
    return EvolutionaryProtector(ProtectionEvaluator(adult, ATTRS), **kwargs)


class TestEngineMigrationHook:
    def test_fires_every_m_generations(self, small_population):
        adult, protections = small_population
        seen = []
        make_engine(adult, seed=3).run(
            protections, stopping=6, migration_every=2,
            on_migration=lambda pop, gen, capture: seen.append(gen),
        )
        assert seen == [2, 4, 6]

    def test_noop_hook_leaves_the_run_bit_identical(self, small_population):
        adult, protections = small_population
        plain = make_engine(adult, seed=3).run(protections, stopping=4)
        hooked = make_engine(adult, seed=3).run(
            protections, stopping=4, migration_every=1,
            on_migration=lambda pop, gen, capture: None,
        )
        assert [ind.score for ind in plain.population] == \
            [ind.score for ind in hooked.population]
        assert [(rec.min_score, rec.mean_score) for rec in plain.history.records] == \
            [(rec.min_score, rec.mean_score) for rec in hooked.history.records]

    def test_capture_resumes_bit_identically(self, small_population):
        # The park/resume determinism keystone: a checkpoint captured
        # at an exchange boundary, resumed in a fresh engine, must land
        # exactly where the uninterrupted run lands.
        adult, protections = small_population
        grabbed = {}

        def hook(population, generation, capture):
            if generation == 2:
                grabbed["checkpoint"] = capture()

        full = make_engine(adult, seed=3).run(
            protections, stopping=5, migration_every=2, on_migration=hook,
        )
        resumed = make_engine(adult, seed=99).resume(
            grabbed["checkpoint"], stopping=5,
        )
        assert [ind.score for ind in full.population] == \
            [ind.score for ind in resumed.population]

    def test_negative_cadence_rejected(self, small_population):
        adult, protections = small_population
        with pytest.raises(EvolutionError):
            make_engine(adult, seed=3).run(
                protections, stopping=3, migration_every=-1,
                on_migration=lambda pop, gen, capture: None,
            )


# -- front comparison -------------------------------------------------------


class TestFrontDominance:
    def test_dominating_front(self):
        assert front_dominates_or_matches(
            [(0.5, 1.0), (2.0, 0.2)], [(1.0, 1.0), (2.0, 0.5)]
        )

    def test_matching_point_counts(self):
        assert front_dominates_or_matches([(1.0, 1.0)], [(1.0, 1.0)])

    def test_uncovered_baseline_fails(self):
        assert not front_dominates_or_matches(
            [(2.0, 2.0)], [(1.0, 1.0)]
        )
