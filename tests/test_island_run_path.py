"""One run path: an island member is ``run_experiment`` on its own stream.

A member whose only exchange boundary is its last generation never
exchanges anything, so its result must be exactly the plain-job result
of ``run_experiment(job.to_config(), seed=<its spawned stream>)``.  And
every generation publishes its telemetry from the one record the
history keeps, so the ``generation`` events repeat that history.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.experiments import ExperimentConfig, run_experiment
from repro.service import ProtectionJob, SqliteJobStore
from repro.service.islands import execute_island_job
from repro.service.runner import _job_result

# Timing fields differ between any two runs; everything else must not.
_TIMING_FIELDS = ("fitness_seconds", "other_seconds")


def _comparable(result) -> dict:
    payload = result.to_dict()
    payload.pop("wall_seconds")
    extras = payload["extras"]
    extras.pop("island", None)
    extras["evaluator_stats"].pop("fresh_seconds", None)
    for record in extras["history"]:
        for key in _TIMING_FIELDS:
            record.pop(key)
    return payload


@pytest.mark.parametrize("island_index", [0, 2])
def test_member_without_exchange_equals_plain_run_on_its_stream(
    tmp_path, island_index
):
    # migrate_every == generations: the one boundary is the final
    # generation, which the exchange skips, so nothing is ever injected.
    base = ProtectionJob(dataset="adult", generations=4, seed=11)
    job = replace(base, islands=3, island_index=island_index,
                  migrate_every=4, migrants=2, topology="ring")
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    member = execute_island_job({"job": job, "store": store})

    stream = np.random.SeedSequence(job.seed).spawn(job.islands)[island_index]
    plain = run_experiment(job.to_config(), seed=np.random.default_rng(stream))
    expected = _job_result(job, plain.result, plain.evaluator.stats(), 0.0)

    assert _comparable(member) == _comparable(expected)
    island = member.extras["island"]
    assert (island["rounds"], island["injected"]) == (0, 0)
    assert island["population"] == [
        [float(ind.information_loss), float(ind.disclosure_risk),
         float(ind.score)]
        for ind in plain.result.population
    ]


def test_seed_override_leaves_config_seed_unused():
    config = ExperimentConfig(dataset="adult", generations=3, seed=1)
    overridden = run_experiment(config, seed=2)
    plain = run_experiment(replace(config, seed=2))
    assert ([ind.score for ind in overridden.result.population]
            == [ind.score for ind in plain.result.population])


@pytest.fixture
def telemetry():
    registry = obs.enable()
    registry.reset()
    stream = io.StringIO()
    obs.configure_events(stream)
    yield stream
    obs.disable()
    registry.reset()
    obs.configure_events(None)


def test_generation_events_repeat_the_history(telemetry):
    outcome = run_experiment(ExperimentConfig(dataset="adult", generations=6,
                                              seed=5))
    events = [json.loads(line) for line in telemetry.getvalue().splitlines()]
    generations = [e for e in events if e["event"] == "generation"]
    records = outcome.history.records
    assert len(generations) == len(records) == 6
    for event, record in zip(generations, records):
        assert event["generation"] == record.generation
        assert event["operator"] == record.operator
        assert event["best"] == record.min_score
        assert event["mean"] == record.mean_score
        assert event["evaluations"] == record.evaluations
        assert event["accepted"] == record.accepted
        assert event["fitness_seconds"] == round(record.fitness_seconds, 6)
        assert event["total_seconds"] == round(
            record.fitness_seconds + record.other_seconds, 6)

    snapshot = obs.get_registry().snapshot()
    for operator in {r.operator for r in records}:
        mine = [r for r in records if r.operator == operator]
        (counter,) = [c for c in snapshot["counters"]
                      if c["name"] == "repro_engine_evaluations_total"
                      and c["labels"] == {"operator": operator}]
        assert counter["value"] == sum(r.evaluations for r in mine)
        (histogram,) = [h for h in snapshot["histograms"]
                        if h["name"] == "repro_engine_generation_seconds"
                        and h["labels"] == {"operator": operator}]
        assert histogram["count"] == len(mine)
        assert histogram["sum"] == pytest.approx(
            sum(r.fitness_seconds + r.other_seconds for r in mine))
