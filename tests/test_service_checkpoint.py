"""Checkpoint/resume: bit-identical continuation of an interrupted run.

``tests/data/checkpoint_v2.json`` holds format-2 checkpoints written by
the format-2 writer before format 3 replaced it: ``"tiny"`` is the
generation-10 checkpoint of :func:`_capture` (stamped with the
evaluator's ``config_fingerprint()``), and ``"wide"`` maps a category
count to a two-individual checkpoint of :func:`_wide_dataset` (the
original, then its rows reversed), one per stored width.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import EngineCheckpoint, EvolutionaryProtector, GenerationRecord
from repro.core.individual import Individual
from repro.core.operators import mutate
from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_dataset
from repro.exceptions import EvolutionError, ServiceError
from repro.experiments.population_builder import build_initial_population
from repro.experiments.runner import ExperimentConfig, run_experiment
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
    is_resumable,
)

#: The record keys checkpoint format v2 has always written, in order.
V2_RECORD_KEYS = [
    "generation", "operator", "max_score", "mean_score", "min_score",
    "evaluations", "fitness_seconds", "other_seconds", "accepted",
]

TOTAL_GENERATIONS = 24
INTERRUPT_AT = 10
CHECKPOINT_EVERY = 5

V2_FIXTURES = Path(__file__).parent / "data" / "checkpoint_v2.json"


@pytest.fixture(scope="module")
def v2_fixtures() -> dict:
    return json.loads(V2_FIXTURES.read_text(encoding="utf-8"))


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
        "records": [r.to_dict() for r in checkpoint.records],
    }


def _manager(tmp_path, fingerprint: str = "", job_id: str = "job") -> CheckpointManager:
    """A manager over the checkpoint blob ``job_id`` of a fresh sqlite store."""
    return CheckpointManager(SqliteJobStore(tmp_path / "jobs.sqlite"), job_id,
                             fingerprint=fingerprint)


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

        # Round-trip the final checkpoint through a job store, like a real crash.
        manager = _manager(tmp_path, fingerprint=evaluator.config_fingerprint())
        manager.save(checkpoints[-1])
        restored = manager.load(tiny_dataset)

        resumed = EvolutionaryProtector(evaluator, seed=5).resume(
            restored, stopping=TOTAL_GENERATIONS
        )
        assert len(resumed.history) == TOTAL_GENERATIONS
        assert _history_signature(resumed.history) == _history_signature(straight.history)
        assert _population_signature(resumed) == _population_signature(straight)
        assert resumed.best.score == straight.best.score

    def test_resume_after_warm_saves(self, evaluator, protections, tiny_dataset, tmp_path):
        # Later saves reuse the entries cached on the datasets by earlier
        # ones; the last save must still resume exactly.
        manager = _manager(tmp_path)
        for checkpoint in _capture(evaluator, protections, every=2):
            assert manager.save(checkpoint)
        payload = manager.store.get_checkpoint(manager.job_id)
        assert payload["version"] == FORMAT_VERSION == 3
        _resume_matches_straight(evaluator, protections, manager.load(tiny_dataset))

    def test_resume_from_v1_file(self, evaluator, protections, tiny_dataset, tmp_path):
        # A state dir from before the store held every save: only the
        # runner's file exists, and the store reads it as a fallback.
        manager = _manager(tmp_path)
        path = manager.store.checkpoint_path(manager.job_id)
        path.parent.mkdir()
        path.write_text(json.dumps(_v1_payload(_capture(evaluator, protections)[-1])))
        restored = manager.load(tiny_dataset)
        _resume_matches_straight(evaluator, protections, restored)

    def test_resume_from_v2_fixture(self, evaluator, protections, tiny_dataset, tmp_path,
                                    v2_fixtures):
        # A format-2 checkpoint the format-2 writer saved, read back
        # from the store and resumed: the same bits as never stopping.
        payload = v2_fixtures["tiny"]
        assert payload["version"] == 2
        manager = _manager(tmp_path, fingerprint=evaluator.config_fingerprint())
        manager.store.put_checkpoint(manager.job_id, payload)
        restored = manager.load(tiny_dataset)
        assert restored.generation == INTERRUPT_AT
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
        _manager(tmp_path, fingerprint="config-a").save(checkpoint)
        with pytest.raises(ServiceError, match="different evaluator configuration"):
            _manager(tmp_path, fingerprint="config-b").load(tiny_dataset)

    def test_unknown_version_refused(self, tiny_dataset):
        with pytest.raises(ServiceError, match="version"):
            checkpoint_from_dict({"version": 99}, tiny_dataset)

    def test_missing_file_refused(self, tiny_dataset, tmp_path):
        manager = _manager(tmp_path, job_id="absent")
        assert manager.store.get_checkpoint("absent") is None
        with pytest.raises(ServiceError, match="no checkpoint"):
            manager.load(tiny_dataset)

    def test_saves_write_no_file(self, evaluator, protections, tmp_path):
        manager = _manager(tmp_path)
        assert manager.save(self._checkpoint(evaluator, protections))
        assert manager.store.get_checkpoint(manager.job_id) is not None
        assert not (tmp_path / "checkpoints").exists()


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


class TestRecordEncoding:
    def test_engine_records_round_trip(self, evaluator, protections):
        result = EvolutionaryProtector(evaluator, seed=5).run(protections, stopping=8)
        for record in result.history.records:
            assert GenerationRecord.from_dict(record.to_dict()) == record
            stored = json.loads(json.dumps(record.to_dict()))
            assert GenerationRecord.from_dict(stored) == record

    def test_keys_are_the_v2_checkpoint_record_keys(self, evaluator, protections):
        checkpoint = _capture(evaluator, protections)[-1]
        payload = checkpoint_to_dict(checkpoint)
        assert payload["version"] == FORMAT_VERSION
        for stored, record in zip(payload["records"], checkpoint.records, strict=True):
            assert list(record.to_dict()) == V2_RECORD_KEYS
            assert list(stored) == V2_RECORD_KEYS


class TestFormatV2:
    """Format 2 is loaded, no longer written: these read the fixtures."""

    @pytest.mark.parametrize(
        ("categories", "dtype"), [(9, "uint8"), (300, "uint16"), (70_000, "int64")]
    )
    def test_natural_width_round_trip(self, v2_fixtures, categories, dtype):
        original = _wide_dataset(categories)
        payload = v2_fixtures["wide"][str(categories)]
        assert {entry["dtype"] for entry in payload["codes"]} == {dtype}
        back = checkpoint_from_dict(payload, original)
        expected = [original.codes, original.codes[::-1]]
        for restored, codes, name in zip(back.initial + back.individuals, expected,
                                         ["wide", "swapped"], strict=True):
            assert restored.dataset.codes.dtype == np.int64
            assert np.array_equal(restored.dataset.codes, codes)
            assert restored.dataset.name == name

    def test_table_holds_one_entry_per_distinct_matrix(self, v2_fixtures, tiny_dataset):
        payload = v2_fixtures["tiny"]
        back = checkpoint_from_dict(payload, tiny_dataset)
        everyone = back.initial + back.individuals
        assert len(payload["codes"]) == len({ind.dataset.fingerprint() for ind in everyone})

    def test_shared_matrices_decode_to_shared_datasets(self, v2_fixtures, tiny_dataset):
        payload = v2_fixtures["tiny"]
        back = checkpoint_from_dict(payload, tiny_dataset)
        restored = {id(ind.dataset) for ind in back.initial + back.individuals}
        distinct = {
            (item["codes"], item["name"])
            for item in payload["initial"] + payload["individuals"]
        }
        assert len(restored) == len(distinct) < len(back.initial + back.individuals)

    def test_unknown_dtype_refused(self, v2_fixtures, tiny_dataset):
        payload = json.loads(json.dumps(v2_fixtures["tiny"]))
        payload["codes"][0]["dtype"] = "float32"
        with pytest.raises(ServiceError, match="dtype"):
            checkpoint_from_dict(payload, tiny_dataset)

    def test_v2_load_leaves_datasets_unencoded(self, v2_fixtures, tiny_dataset):
        back = checkpoint_from_dict(v2_fixtures["tiny"], tiny_dataset)
        assert all(ind.dataset.checkpoint_entry is None
                   for ind in back.initial + back.individuals)
        # Re-saved, it becomes a v3 checkpoint that decodes to the same files.
        again = checkpoint_from_dict(json.loads(json.dumps(checkpoint_to_dict(back))),
                                     tiny_dataset)
        assert [ind.dataset.fingerprint() for ind in again.individuals] == [
            ind.dataset.fingerprint() for ind in back.individuals
        ]


@pytest.fixture()
def compressions(monkeypatch):
    """Counts ``zlib.compress`` calls made by checkpoint encoding."""
    calls: list[int] = []
    real = zlib.compress

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(checkpoint_module.zlib, "compress", counting)
    return calls


@pytest.fixture()
def hashes(monkeypatch):
    """Counts full-matrix hashes: ``blake2b`` / ``sha256`` calls and ``tobytes`` keys."""
    calls: list[str] = []
    for name in ("blake2b", "sha256"):
        real = getattr(hashlib, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(hashlib, name, counting)
    real_fingerprint = CategoricalDataset.fingerprint

    def fingerprint(self):
        calls.append("fingerprint")
        return real_fingerprint(self)

    monkeypatch.setattr(CategoricalDataset, "fingerprint", fingerprint)
    return calls


def _fresh_copy(dataset: CategoricalDataset) -> CategoricalDataset:
    """An equal dataset object that shares no cache with ``dataset``."""
    return CategoricalDataset(dataset.codes, dataset.schema, name=dataset.name)


class TestFormatV3:
    def _checkpoint(self, evaluator, protections):
        return _capture(evaluator, protections, stopping=6, every=3)[-1]

    @pytest.mark.parametrize("name", ["adult", "flare", "german", "housing"])
    def test_seed0_population_round_trip(self, name):
        original = load_dataset(name)
        population = build_initial_population(original, dataset_name=name, seed=0)
        scored = [_scored(dataset, float(i)) for i, dataset in enumerate(population)]
        checkpoint = EngineCheckpoint(generation=0, initial=scored, individuals=scored[::-1],
                                      records=[], rng_state={}, original=original)
        payload = json.loads(json.dumps(checkpoint_to_dict(checkpoint)))
        assert payload["version"] == 3
        assert payload["original"] == original.digest()
        # Paper codes fit a byte; the gaps between changed cells mostly
        # do too, and never need more than two.
        assert {e["dtype"] for e in payload["codes"]} == {"uint8"}
        assert {e["index_dtype"] for e in payload["codes"]} <= {"uint8", "uint16"}
        back = checkpoint_from_dict(payload, _fresh_copy(original))
        for restored, saved in zip(back.initial + back.individuals,
                                   checkpoint.initial + checkpoint.individuals, strict=True):
            assert restored.dataset.codes.dtype == np.int64
            assert np.array_equal(restored.dataset.codes, saved.dataset.codes)
            assert restored.dataset.name == saved.dataset.name
            assert restored.evaluation == saved.evaluation

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
            original=original,
        )
        payload = json.loads(json.dumps(checkpoint_to_dict(checkpoint)))
        # The original's own entry is empty (narrowest width); the
        # swapped file's values reach the top code.
        assert [entry["dtype"] for entry in payload["codes"]] == ["uint8", dtype]
        assert {entry["index_dtype"] for entry in payload["codes"]} == {"uint8"}
        back = checkpoint_from_dict(payload, original)
        for restored, saved in zip(back.initial + back.individuals,
                                   checkpoint.initial + checkpoint.individuals):
            assert restored.dataset.codes.dtype == np.int64
            assert restored.dataset.fingerprint() == saved.dataset.fingerprint()
            assert restored.dataset.name == saved.dataset.name

    def test_entries_hold_only_the_changed_cells(self, tiny_dataset):
        codes = tiny_dataset.codes_copy()
        codes[3, 1] = (codes[3, 1] + 1) % 4
        codes[7, 2] = 1 - codes[7, 2]
        masked = tiny_dataset.with_codes(codes, name="masked")
        entry = checkpoint_module._encode_delta(masked.codes, tiny_dataset.codes)
        # Flat cells 10 and 23, stored as gaps.
        assert checkpoint_module._unpack(entry["positions"], entry["index_dtype"]).tolist() == [
            3 * 3 + 1, (7 * 3 + 2) - (3 * 3 + 1)]
        assert checkpoint_module._unpack(entry["values"], entry["dtype"]).tolist() == [
            codes[3, 1], codes[7, 2]]

    @pytest.mark.parametrize(("gaps", "values"), [
        ([3, 4], [1]),          # fewer values than positions
        ([3, 0], [1, 1]),       # a cell listed twice
        ([-1], [1]),            # before the first cell
        ([36], [1]),            # past the last cell (12 x 3)
    ])
    def test_malformed_entry_refused(self, tiny_dataset, gaps, values):
        entry = {"positions": checkpoint_module._pack(np.array(gaps), "int64"),
                 "index_dtype": "int64",
                 "values": checkpoint_module._pack(np.array(values), "int64"),
                 "dtype": "int64"}
        with pytest.raises(ServiceError, match="malformed"):
            checkpoint_module._decode_delta(entry, tiny_dataset.codes)

    def test_table_holds_one_entry_per_distinct_matrix(self, evaluator, protections):
        checkpoint = self._checkpoint(evaluator, protections)
        everyone = checkpoint.initial + checkpoint.individuals
        # A copy of a member under another name is the same matrix.
        twin = _scored(everyone[0].dataset.renamed("twin"), 0.0)
        checkpoint.individuals.append(twin)
        everyone.append(twin)
        payload = checkpoint_to_dict(checkpoint)
        distinct = {ind.dataset.fingerprint() for ind in everyone}
        assert len(payload["codes"]) == len(distinct) < len(everyone)
        # Individuals sharing a matrix share its table index.
        index_of = {}
        for ind, item in zip(everyone, payload["initial"] + payload["individuals"]):
            assert index_of.setdefault(ind.dataset.fingerprint(), item["codes"]) == item["codes"]

    def test_warm_save_neither_compresses_nor_hashes(self, evaluator, protections, tmp_path,
                                                     compressions, hashes):
        checkpoint = self._checkpoint(evaluator, protections)
        manager = _manager(tmp_path)
        manager.save(checkpoint)
        # Cold: two compressions (positions, values) per dataset object.
        everyone = checkpoint.initial + checkpoint.individuals
        assert len(compressions) == 2 * len({id(ind.dataset) for ind in everyone})
        compressions.clear()
        hashes.clear()
        manager.save(checkpoint)
        assert compressions == []
        assert hashes == []

    def test_resumed_first_save_compresses_nothing_it_loaded(
            self, evaluator, protections, tiny_dataset, tmp_path, compressions):
        _manager(tmp_path).save(self._checkpoint(evaluator, protections))
        # A new process loads the original afresh: an equal object with
        # no cached digest, and datasets with no cached entries.
        resumed = _manager(tmp_path)
        restored = resumed.load(_fresh_copy(tiny_dataset))
        compressions.clear()
        assert resumed.save(restored)
        assert compressions == []
        # The resumed run's next save encodes only the files it made.
        captured: list[EngineCheckpoint] = []
        EvolutionaryProtector(
            ProtectionEvaluator(_fresh_copy(tiny_dataset), tiny_dataset.attribute_names),
            seed=5,
        ).resume(restored, stopping=restored.generation + 2, checkpoint_every=2,
                 on_checkpoint=captured.append)
        loaded = {id(ind.dataset) for ind in restored.initial + restored.individuals}
        made = {id(ind.dataset) for ind in captured[-1].individuals} - loaded
        assert resumed.save(captured[-1])
        assert len(compressions) == 2 * len(made)

    def test_load_under_a_different_original_refused(self, evaluator, protections,
                                                     tiny_dataset, tmp_path):
        manager = _manager(tmp_path)
        manager.save(self._checkpoint(evaluator, protections))
        codes = tiny_dataset.codes_copy()
        codes[0, 0] = (codes[0, 0] + 1) % 3
        other = tiny_dataset.with_codes(codes)
        with pytest.raises(ServiceError, match="different original"):
            manager.load(other)

    def test_checkpoint_without_an_original_refused(self, tiny_dataset):
        lone = _scored(tiny_dataset, 1.0)
        with pytest.raises(ServiceError, match="no original"):
            checkpoint_to_dict(EngineCheckpoint(generation=0, initial=[lone],
                                                individuals=[lone], records=[],
                                                rng_state={}))

    def test_pickled_dataset_carries_no_entry(self, evaluator, protections):
        checkpoint = self._checkpoint(evaluator, protections)
        payload = checkpoint_to_dict(checkpoint)
        dataset = checkpoint.individuals[0].dataset
        assert dataset.checkpoint_entry is not None
        blob = pickle.dumps(dataset)
        assert payload["codes"][payload["individuals"][0]["codes"]]["values"].encode() not in blob
        copy = pickle.loads(blob)
        assert copy.checkpoint_entry is None
        assert np.array_equal(copy.codes, dataset.codes) and copy.name == dataset.name
        assert copy.digest() == dataset.digest()


class TestParentBytes:
    """Hashes and payload bytes computed while datasets stored their codes
    as ``int64``: storing them narrow must not move any of them."""

    def test_flare_fingerprint_and_digest(self):
        flare = load_dataset("flare")
        assert hashlib.sha256(flare.fingerprint()).hexdigest() == (
            "647ca4bcf8f9eebc33368df91051ba9d20ab546167d32e3084f18d8286e9c20e")
        assert flare.digest() == "625c6b751ea0c64efbaed1ec7d9c8e31"
        assert hashlib.sha256(flare.memo_key()).hexdigest() == (
            "b2b7348bf755400a1e150df051d912c05ba3c1334059ba61aaef73b8426654f7")

    def test_seed7_flare_generation25_payload(self):
        checkpoints: list[EngineCheckpoint] = []
        run_experiment(ExperimentConfig(dataset="flare", score="max", seed=7, generations=25),
                       checkpoint_every=25, on_checkpoint=checkpoints.append)
        payload = checkpoint_to_dict(checkpoints[-1])
        assert payload["generation"] == 25
        for record in payload["records"]:  # wall-clock fields
            del record["fitness_seconds"], record["other_seconds"]
        encoded = json.dumps(payload, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == (
            "6d00955bd6e9dee43f811a11bf378a5328be67383a500d155b86d9719eb0c716")


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
        legacy = store.checkpoint_path(job.job_id)
        legacy.parent.mkdir()
        # Stamped as this kernel stamps checkpoints (a kernel-2 stamp is
        # refused whatever the format).
        legacy.write_text(json.dumps(_v1_payload(midway[0], job.checkpoint_fingerprint())))
        assert main(["worker", "--once", "--state-dir", str(tmp_path)]) == 0
        result = store.get(job.job_id).result
        assert result.final_scores == tuple(
            float(ind.score) for ind in straight.result.population
        )
        assert result.best_score == float(straight.result.best.score)
        # Resumed, not restarted: the initial population was never rescored.
        assert result.fresh_evaluations < straight.evaluator.evaluations
