"""Checkpoint persistence: engine state that survives a crash.

The engine emits :class:`~repro.core.engine.EngineCheckpoint` values via
its ``on_checkpoint`` callback; :class:`CheckpointManager` writes them to
disk (atomically — temp file + rename) and reads them back so a killed
job resumes exactly where it stopped.

**Format version 2** (what saves write) stores each distinct code
matrix once, in a top-level ``"codes"`` table of ``{"shape", "dtype",
"data"}`` entries; an individual's ``"codes"`` is an index into it (the
initial snapshot and most of the current population are the same
files).  Entries hold a matrix at its natural width (``uint8``,
``uint16`` or ``int64``, the narrowest that fits), zlib'd and base64'd;
decoding always yields ``int64``, so scores, fingerprints and resume are
bit-identical at any width.  The saves of one run share a memo from a
short digest of each matrix to its encoded entry, so a save compresses
only matrices no earlier save encoded; each save prunes the memo to the
entries it referenced.

**Format version 1** (still loaded) inlined a zlib'd raw ``int64``
buffer per individual.  It lives on as the wire form of island migrant
blobs (:func:`_individual_to_dict`), which workers of every version read.

A checkpoint records a caller-chosen configuration fingerprint (the job
service stamps the job's content hash, engine-level callers typically the
evaluator's ``config_fingerprint()``); loading under a different
fingerprint is refused rather than silently producing scores that mean
something else.
"""

from __future__ import annotations

import base64
import hashlib
import json
import time
import zlib
from pathlib import Path

import numpy as np

from repro.core.engine import EngineCheckpoint
from repro.core.history import GenerationRecord
from repro.core.individual import Individual
from repro.data.dataset import CategoricalDataset
from repro.exceptions import ServiceError
from repro.obs import get_registry, trace
from repro.service.cache import score_from_dict, score_to_dict
from repro.service.store import _atomic_write_json

FORMAT_VERSION = 2

#: Every checkpoint version this module loads (and the fleet resumes).
SUPPORTED_VERSIONS = (1, 2)

#: zlib level of v2 table entries.  Measured on a cold 25-generation
#: flare save (119 uint8 matrices, 2-core x86): level 1 encodes in
#: ~55 ms to 0.96 MB, the default level 6 in ~190 ms to 0.84 MB.
_ZLIB_LEVEL = 1

#: On-disk byte layout of each v2 ``dtype`` (v1 entries carry no dtype
#: and are raw int64).
_WIRE_DTYPES = {"uint8": "<u1", "uint16": "<u2", "int64": "<i8"}


def is_resumable(payload: object, fingerprint: str) -> bool:
    """True when ``payload`` is a checkpoint this code resumes under ``fingerprint``."""
    return (
        isinstance(payload, dict)
        and payload.get("version") in SUPPORTED_VERSIONS
        and payload.get("fingerprint") == fingerprint
    )


def _encode_codes(codes: np.ndarray) -> dict:
    """The v1 inline encoding: zlib over the raw int64 buffer."""
    raw = np.ascontiguousarray(codes, dtype=np.int64).tobytes()
    return {
        "shape": list(codes.shape),
        "data": base64.b64encode(zlib.compress(raw)).decode("ascii"),
    }


def _encode_entry(codes: np.ndarray) -> dict:
    """A v2 table entry: ``codes`` (non-negative) at its natural width."""
    top = int(codes.max()) if codes.size else 0
    dtype = "uint8" if top < 1 << 8 else "uint16" if top < 1 << 16 else "int64"
    raw = np.ascontiguousarray(codes, dtype=_WIRE_DTYPES[dtype]).tobytes()
    return {
        "shape": list(codes.shape),
        "dtype": dtype,
        "data": base64.b64encode(zlib.compress(raw, _ZLIB_LEVEL)).decode("ascii"),
    }


def _decode_codes(payload: dict) -> np.ndarray:
    """Decode a v1 inline or v2 table entry; always ``int64``."""
    wire = _WIRE_DTYPES.get(payload.get("dtype", "int64"))
    if wire is None:
        raise ServiceError(f"unsupported checkpoint code dtype: {payload['dtype']!r}")
    raw = zlib.decompress(base64.b64decode(payload["data"]))
    return np.frombuffer(raw, dtype=wire).astype(np.int64).reshape(payload["shape"])


def _digest(codes: np.ndarray) -> bytes:
    """Short content key of a code matrix (shape included)."""
    arr = np.ascontiguousarray(codes, dtype=np.int64)
    digest = hashlib.blake2b(arr, digest_size=16)
    digest.update(repr(arr.shape).encode("ascii"))
    return digest.digest()


def _individual_to_dict(individual: Individual, codes: int | None = None) -> dict:
    """One individual: ``codes`` is its v2 table index, or ``None`` to
    inline the v1 encoding (the migrant-blob wire form)."""
    return {
        "name": individual.dataset.name,
        "origin": individual.origin,
        "birth_generation": individual.birth_generation,
        "codes": _encode_codes(individual.dataset.codes) if codes is None else codes,
        "evaluation": score_to_dict(individual.evaluation),
    }


def _individual_from_dict(
    payload: dict, reference: CategoricalDataset, dataset: CategoricalDataset | None = None
) -> Individual:
    """Rebuild one individual; ``dataset`` defaults to its inline v1 codes."""
    if dataset is None:
        dataset = reference.with_codes(_decode_codes(payload["codes"]), name=payload["name"])
    return Individual(
        dataset=dataset,
        evaluation=score_from_dict(payload["evaluation"]),
        origin=payload["origin"],
        birth_generation=payload["birth_generation"],
    )


def _record_to_dict(record: GenerationRecord) -> dict:
    return {
        "generation": record.generation,
        "operator": record.operator,
        "max_score": record.max_score,
        "mean_score": record.mean_score,
        "min_score": record.min_score,
        "evaluations": record.evaluations,
        "fitness_seconds": record.fitness_seconds,
        "other_seconds": record.other_seconds,
        "accepted": record.accepted,
    }


def checkpoint_to_dict(
    checkpoint: EngineCheckpoint,
    fingerprint: str = "",
    memo: dict[bytes, dict] | None = None,
) -> dict:
    """JSON-ready (format v2) representation of a full engine checkpoint.

    ``memo`` maps matrix digests to encoded table entries: pass the same
    dict to every save of one run and only matrices no earlier save saw
    are compressed.  It is pruned in place to this save's entries.
    """
    memo = {} if memo is None else memo
    table: list[dict] = []
    by_digest: dict[bytes, int] = {}
    # Individuals often share one dataset object (the initial snapshot
    # and the survivors of it); identity spares re-hashing those.
    by_object: dict[int, int] = {}

    def index_of(codes: np.ndarray) -> int:
        index = by_object.get(id(codes))
        if index is None:
            digest = _digest(codes)
            index = by_digest.get(digest)
            if index is None:
                entry = memo.get(digest)
                if entry is None:
                    entry = memo[digest] = _encode_entry(codes)
                index = by_digest[digest] = len(table)
                table.append(entry)
            by_object[id(codes)] = index
        return index

    def encode(individuals: list[Individual]) -> list[dict]:
        return [
            _individual_to_dict(ind, index_of(ind.dataset.codes)) for ind in individuals
        ]

    payload = {
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "generation": checkpoint.generation,
        "rng_state": checkpoint.rng_state,
        "initial": encode(checkpoint.initial),
        "individuals": encode(checkpoint.individuals),
        "records": [_record_to_dict(r) for r in checkpoint.records],
        "codes": table,
    }
    for digest in memo.keys() - by_digest.keys():
        del memo[digest]
    return payload


def checkpoint_from_dict(
    payload: dict,
    reference: CategoricalDataset,
    expected_fingerprint: str = "",
    memo: dict[bytes, dict] | None = None,
) -> EngineCheckpoint:
    """Rebuild an :class:`EngineCheckpoint` from :func:`checkpoint_to_dict`.

    Loads every version in :data:`SUPPORTED_VERSIONS`.  ``reference``
    supplies the schema the protected files are decoded against (any
    dataset schema-compatible with the run's original).  When
    ``expected_fingerprint`` is given and the checkpoint carries a
    fingerprint, the two must match.  A ``memo`` is seeded with the
    loaded v2 table, so the resumed run's first save starts warm.
    """
    version = payload.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ServiceError(f"unsupported checkpoint version: {version!r}")
    written_under = payload.get("fingerprint", "")
    if expected_fingerprint and written_under and written_under != expected_fingerprint:
        raise ServiceError(
            "checkpoint was written under a different evaluator configuration; "
            "refusing to resume (scores would not be comparable)"
        )
    entries = payload.get("codes", [])  # format 1 has no table
    matrices = [_decode_codes(entry) for entry in entries]
    if memo is not None:
        memo.update((_digest(m), entry) for m, entry in zip(matrices, entries))
    # Individuals that shared a matrix (and name) when saved share one
    # immutable dataset again, as they did in the live run.
    shared: dict[tuple[int, str], CategoricalDataset] = {}

    def dataset(item: dict) -> CategoricalDataset | None:
        if version == 1:
            return None  # inline codes, decoded per individual
        key = (item["codes"], item["name"])
        if key not in shared:
            shared[key] = reference.with_codes(matrices[key[0]], name=key[1])
        return shared[key]

    return EngineCheckpoint(
        generation=payload["generation"],
        initial=[
            _individual_from_dict(p, reference, dataset(p)) for p in payload["initial"]
        ],
        individuals=[
            _individual_from_dict(p, reference, dataset(p)) for p in payload["individuals"]
        ],
        records=[GenerationRecord(**r) for r in payload["records"]],
        rng_state=payload["rng_state"],
    )


def observe_save(seconds: float, nbytes: int) -> None:
    """Record one save; callers size it only when telemetry is enabled."""
    registry = get_registry()
    registry.observe("repro_checkpoint_seconds", seconds)
    registry.inc("repro_checkpoint_bytes_total", nbytes)


class CheckpointManager:
    """Owns one checkpoint file: atomic saves, verified loads.

    Install :meth:`save` as the engine's ``on_checkpoint`` callback (the
    job runner does this automatically when given a checkpoint
    directory).  One manager serves one run: its encoding memo carries
    the already-compressed matrices from save to save.
    """

    def __init__(self, path: str | Path, fingerprint: str = "") -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.saves = 0
        self._memo: dict[bytes, dict] = {}

    def exists(self) -> bool:
        """True when a checkpoint file is present on disk."""
        return self.path.exists()

    def save(self, checkpoint: EngineCheckpoint) -> None:
        """Atomically persist ``checkpoint`` (unique temp file + rename)."""
        started = time.perf_counter()
        with trace.span("repro.checkpoint.save", generation=checkpoint.generation):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            payload = checkpoint_to_dict(checkpoint, self.fingerprint, memo=self._memo)
            _atomic_write_json(self.path, payload)
        self.saves += 1
        if get_registry().enabled:
            observe_save(time.perf_counter() - started, self.path.stat().st_size)

    def load(self, reference: CategoricalDataset) -> EngineCheckpoint:
        """Read the checkpoint back, decoding against ``reference``'s schema."""
        if not self.exists():
            raise ServiceError(f"no checkpoint at {self.path}")
        payload = json.loads(self.path.read_text(encoding="utf-8"))
        return checkpoint_from_dict(payload, reference, self.fingerprint, memo=self._memo)

    def delete(self) -> None:
        """Remove the checkpoint file if present."""
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return f"CheckpointManager({str(self.path)!r}, saves={self.saves})"
