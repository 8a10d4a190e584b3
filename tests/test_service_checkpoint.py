"""Checkpoint/resume: bit-identical continuation of an interrupted run."""

from __future__ import annotations

import json
import zlib

import numpy as np
import pytest

from repro.cli import main
from repro.core import EngineCheckpoint, EvolutionaryProtector
from repro.core.individual import Individual
from repro.core.operators import mutate
from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.exceptions import EvolutionError, ServiceError
from repro.experiments.runner import run_experiment
from repro.metrics import ProtectionEvaluator, ProtectionScore
from repro.service import (
    CheckpointManager,
    ProtectionJob,
    SqliteJobStore,
    checkpoint_from_dict,
    checkpoint_to_dict,
)
from repro.service import checkpoint as checkpoint_module
from repro.service.checkpoint import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    _individual_to_dict,
    _record_to_dict,
    is_resumable,
)

TOTAL_GENERATIONS = 24
INTERRUPT_AT = 10
CHECKPOINT_EVERY = 5


@pytest.fixture()
def evaluator(tiny_dataset):
    return ProtectionEvaluator(tiny_dataset, tiny_dataset.attribute_names)


@pytest.fixture()
def protections(tiny_dataset):
    rng = np.random.default_rng(9)
    return [
        mutate(tiny_dataset, tiny_dataset.attribute_names, seed=rng, name=f"p{i}")
        for i in range(8)
    ]


def _history_signature(history):
    # Timing fields are wall-clock noise; everything else must match.
    return [
        (r.generation, r.operator, r.max_score, r.mean_score, r.min_score,
         r.evaluations, r.accepted)
        for r in history.records
    ]


def _population_signature(result):
    return [(ind.dataset.fingerprint(), ind.score) for ind in result.population]


def _v1_payload(checkpoint: EngineCheckpoint, fingerprint: str = "") -> dict:
    """What a format-1 writer produced: inline int64 codes, no table."""
    return {
        "version": 1,
        "fingerprint": fingerprint,
        "generation": checkpoint.generation,
        "rng_state": checkpoint.rng_state,
        "initial": [_individual_to_dict(ind) for ind in checkpoint.initial],
        "individuals": [_individual_to_dict(ind) for ind in checkpoint.individuals],
        "records": [_record_to_dict(r) for r in checkpoint.records],
    }


def _capture(evaluator, protections, stopping=INTERRUPT_AT, every=CHECKPOINT_EVERY):
    checkpoints: list[EngineCheckpoint] = []
    EvolutionaryProtector(evaluator, seed=5).run(
        protections, stopping=stopping, checkpoint_every=every,
        on_checkpoint=checkpoints.append,
    )
    return checkpoints


def _resume_matches_straight(evaluator, protections, restored):
    straight = EvolutionaryProtector(evaluator, seed=5).run(
        protections, stopping=TOTAL_GENERATIONS
    )
    resumed = EvolutionaryProtector(evaluator, seed=5).resume(
        restored, stopping=TOTAL_GENERATIONS
    )
    assert _history_signature(resumed.history) == _history_signature(straight.history)
    assert _population_signature(resumed) == _population_signature(straight)


class TestCheckpointResumeEquivalence:
    def test_resume_matches_uninterrupted_run(self, evaluator, protections, tiny_dataset, tmp_path):
        straight = EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=TOTAL_GENERATIONS
        )

        checkpoints: list[EngineCheckpoint] = []
        interrupted = EvolutionaryProtector(evaluator, seed=5).run(
            protections,
            stopping=INTERRUPT_AT,
            checkpoint_every=CHECKPOINT_EVERY,
            on_checkpoint=checkpoints.append,
        )
        assert len(interrupted.history) == INTERRUPT_AT
        assert checkpoints[-1].generation == INTERRUPT_AT

        # Round-trip the final checkpoint through disk, like a real crash.
        manager = CheckpointManager(
            tmp_path / "run.json", fingerprint=evaluator.config_fingerprint()
        )
        manager.save(checkpoints[-1])
        restored = manager.load(tiny_dataset)

        resumed = EvolutionaryProtector(evaluator, seed=5).resume(
            restored, stopping=TOTAL_GENERATIONS
        )
        assert len(resumed.history) == TOTAL_GENERATIONS
        assert _history_signature(resumed.history) == _history_signature(straight.history)
        assert _population_signature(resumed) == _population_signature(straight)
        assert resumed.best.score == straight.best.score

    def test_resume_after_warm_v2_saves(self, evaluator, protections, tiny_dataset, tmp_path):
        # Every checkpoint goes through one manager, so later saves are
        # served from its memo; the last one must still resume exactly.
        manager = CheckpointManager(tmp_path / "run.json")
        for checkpoint in _capture(evaluator, protections, every=2):
            manager.save(checkpoint)
        payload = json.loads(manager.path.read_text(encoding="utf-8"))
        assert payload["version"] == FORMAT_VERSION == 2
        _resume_matches_straight(evaluator, protections, manager.load(tiny_dataset))

    def test_resume_from_v1_file(self, evaluator, protections, tiny_dataset, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_v1_payload(_capture(evaluator, protections)[-1])))
        restored = CheckpointManager(path).load(tiny_dataset)
        _resume_matches_straight(evaluator, protections, restored)

    def test_checkpoint_cadence(self, evaluator, protections):
        checkpoints: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=12, checkpoint_every=5, on_checkpoint=checkpoints.append
        )
        # Every interval plus the final partial one.
        assert [c.generation for c in checkpoints] == [5, 10, 12]

    def test_no_checkpoints_when_disabled(self, evaluator, protections):
        checkpoints: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=5).run(
            protections, stopping=4, checkpoint_every=0, on_checkpoint=checkpoints.append
        )
        assert checkpoints == []

    def test_negative_cadence_rejected(self, evaluator, protections):
        with pytest.raises(EvolutionError):
            EvolutionaryProtector(evaluator, seed=5).run(
                protections, stopping=2, checkpoint_every=-1
            )

    def test_resume_rejects_empty_population(self, evaluator):
        empty = EngineCheckpoint(
            generation=0, initial=[], individuals=[], records=[], rng_state={}
        )
        with pytest.raises(EvolutionError):
            EvolutionaryProtector(evaluator, seed=5).resume(empty)


class TestCheckpointSerde:
    def _checkpoint(self, evaluator, protections):
        captured: list[EngineCheckpoint] = []
        EvolutionaryProtector(evaluator, seed=3).run(
            protections, stopping=6, checkpoint_every=3, on_checkpoint=captured.append
        )
        return captured[-1]

    def test_dict_roundtrip(self, evaluator, protections, tiny_dataset):
        checkpoint = self._checkpoint(evaluator, protections)
        back = checkpoint_from_dict(checkpoint_to_dict(checkpoint), tiny_dataset)
        assert back.generation == checkpoint.generation
        assert back.rng_state == checkpoint.rng_state
        assert len(back.individuals) == len(checkpoint.individuals)
        for restored, original in zip(back.individuals, checkpoint.individuals):
            assert restored.dataset.fingerprint() == original.dataset.fingerprint()
            assert restored.evaluation == original.evaluation
        assert [r.generation for r in back.records] == [
            r.generation for r in checkpoint.records
        ]

    def test_fingerprint_mismatch_refused(self, evaluator, protections, tiny_dataset, tmp_path):
        checkpoint = self._checkpoint(evaluator, protections)
        CheckpointManager(tmp_path / "ck.json", fingerprint="config-a").save(checkpoint)
        with pytest.raises(ServiceError, match="different evaluator configuration"):
            CheckpointManager(tmp_path / "ck.json", fingerprint="config-b").load(tiny_dataset)

    def test_unknown_version_refused(self, tiny_dataset):
        with pytest.raises(ServiceError, match="version"):
            checkpoint_from_dict({"version": 99}, tiny_dataset)

    def test_missing_file_refused(self, tiny_dataset, tmp_path):
        manager = CheckpointManager(tmp_path / "absent.json")
        assert not manager.exists()
        with pytest.raises(ServiceError, match="no checkpoint"):
            manager.load(tiny_dataset)

    def test_delete(self, evaluator, protections, tmp_path):
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(self._checkpoint(evaluator, protections))
        assert manager.exists()
        manager.delete()
        assert not manager.exists()


def _scored(dataset: CategoricalDataset, value: float) -> Individual:
    return Individual(dataset, ProtectionScore(value, value, value), origin="initial")


def _wide_dataset(categories: int) -> CategoricalDataset:
    """Two attributes, the first with ``categories`` labels (top code used)."""
    schema = DatasetSchema([
        CategoricalDomain("WIDE", [f"v{i}" for i in range(categories)]),
        CategoricalDomain("NARROW", ["a", "b"]),
    ])
    rng = np.random.default_rng(4)
    codes = np.column_stack([
        rng.integers(0, categories, size=20), rng.integers(0, 2, size=20),
    ])
    codes[0, 0] = categories - 1
    return CategoricalDataset(codes, schema, name="wide")


class TestFormatV2:
    def _checkpoint(self, evaluator, protections):
        return _capture(evaluator, protections, stopping=6, every=3)[-1]

    @pytest.mark.parametrize(
        ("categories", "dtype"), [(9, "uint8"), (300, "uint16"), (70_000, "int64")]
    )
    def test_natural_width_round_trip(self, categories, dtype):
        original = _wide_dataset(categories)
        swapped = original.with_codes(original.codes[::-1], name="swapped")
        checkpoint = EngineCheckpoint(
            generation=1,
            initial=[_scored(original, 1.0)],
            individuals=[_scored(swapped, 0.5)],
            records=[],
            rng_state={},
        )
        payload = json.loads(json.dumps(checkpoint_to_dict(checkpoint)))
        assert {entry["dtype"] for entry in payload["codes"]} == {dtype}
        back = checkpoint_from_dict(payload, original)
        for restored, saved in zip(back.initial + back.individuals,
                                   checkpoint.initial + checkpoint.individuals):
            assert restored.dataset.codes.dtype == np.int64
            assert restored.dataset.fingerprint() == saved.dataset.fingerprint()
            assert restored.dataset.name == saved.dataset.name

    def test_table_holds_one_entry_per_distinct_matrix(self, evaluator, protections):
        checkpoint = self._checkpoint(evaluator, protections)
        everyone = checkpoint.initial + checkpoint.individuals
        payload = checkpoint_to_dict(checkpoint)
        distinct = {ind.dataset.fingerprint() for ind in everyone}
        assert len(payload["codes"]) == len(distinct) < len(everyone)
        # Individuals sharing a matrix share its table index.
        index_of = {}
        for ind, item in zip(everyone, payload["initial"] + payload["individuals"]):
            assert index_of.setdefault(ind.dataset.fingerprint(), item["codes"]) == item["codes"]

    @pytest.fixture()
    def compressions(self, monkeypatch):
        """Counts ``zlib.compress`` calls made by checkpoint encoding."""
        calls: list[int] = []
        real = zlib.compress

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checkpoint_module.zlib, "compress", counting)
        return calls

    def test_unchanged_save_compresses_nothing(self, evaluator, protections,
                                               tmp_path, compressions):
        checkpoint = self._checkpoint(evaluator, protections)
        manager = CheckpointManager(tmp_path / "ck.json")
        manager.save(checkpoint)
        assert len(compressions) == len(checkpoint_to_dict(checkpoint)["codes"])
        compressions.clear()
        manager.save(checkpoint)
        assert compressions == []

    def test_memo_pruned_to_last_save(self, evaluator, protections):
        checkpoints = _capture(evaluator, protections, stopping=12, every=3)
        memo: dict = {}
        for checkpoint in checkpoints:
            payload = checkpoint_to_dict(checkpoint, memo=memo)
            assert len(memo) == len(payload["codes"])
            assert {id(entry) for entry in memo.values()} == {
                id(entry) for entry in payload["codes"]
            }
        # A population that shrank to one matrix shrinks the memo with it.
        lone = checkpoints[-1].individuals[0]
        checkpoint_to_dict(
            EngineCheckpoint(generation=99, initial=[lone], individuals=[lone],
                             records=[], rng_state={}),
            memo=memo,
        )
        assert len(memo) == 1

    def test_load_seeds_the_memo(self, evaluator, protections, tiny_dataset,
                                 tmp_path, compressions):
        CheckpointManager(tmp_path / "ck.json").save(self._checkpoint(evaluator, protections))
        compressions.clear()
        resumed = CheckpointManager(tmp_path / "ck.json")
        resumed.save(resumed.load(tiny_dataset))
        assert compressions == []

    def test_shared_matrices_decode_to_shared_datasets(self, evaluator, protections,
                                                       tiny_dataset):
        checkpoint = self._checkpoint(evaluator, protections)
        back = checkpoint_from_dict(checkpoint_to_dict(checkpoint), tiny_dataset)
        restored = {id(ind.dataset) for ind in back.initial + back.individuals}
        distinct = {
            (ind.dataset.fingerprint(), ind.dataset.name)
            for ind in checkpoint.initial + checkpoint.individuals
        }
        assert len(restored) == len(distinct)

    def test_unknown_dtype_refused(self, evaluator, protections, tiny_dataset):
        payload = checkpoint_to_dict(self._checkpoint(evaluator, protections))
        payload["codes"][0]["dtype"] = "float32"
        with pytest.raises(ServiceError, match="dtype"):
            checkpoint_from_dict(payload, tiny_dataset)


class TestResumability:
    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_every_supported_version_is_resumable(self, version):
        assert is_resumable({"version": version, "fingerprint": "fp"}, "fp")

    @pytest.mark.parametrize("payload", [
        {"version": 99, "fingerprint": "fp"},
        {"version": 2, "fingerprint": "other"},
        {"fingerprint": "fp"},
        None,
        ["version", 2],
    ])
    def test_unusable_payloads_are_not(self, payload):
        assert not is_resumable(payload, "fp")

    def test_worker_once_resumes_v1_checkpoint(self, tmp_path, capsys):
        # Regression: the worker's resumability check tested
        # ``version == FORMAT_VERSION``, so after a format bump every
        # older checkpoint would silently restart from generation 0.
        job = ProtectionJob(dataset="adult", generations=4, seed=7)
        midway: list[EngineCheckpoint] = []
        straight = run_experiment(
            job.to_config(), checkpoint_every=2, on_checkpoint=midway.append
        )
        assert midway[0].generation == 2
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        store.submit(job)
        (store.checkpoints_dir / f"{job.job_id}.json").write_text(
            json.dumps(_v1_payload(midway[0], job.fingerprint()))
        )
        assert main(["worker", "--once", "--state-dir", str(tmp_path)]) == 0
        result = store.get(job.job_id).result
        assert result.final_scores == tuple(
            float(ind.score) for ind in straight.result.population
        )
        assert result.best_score == float(straight.result.best.score)
        # Resumed, not restarted: the initial population was never rescored.
        assert result.fresh_evaluations < straight.evaluator.evaluations
