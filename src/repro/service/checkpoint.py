"""Checkpoint persistence: engine state that survives a crash.

The job runner's per-generation hooks capture
:class:`~repro.core.engine.EngineCheckpoint` values from the engine
(``engine.capture``); :class:`CheckpointManager` encodes each one and
writes it straight into the job store as the job's checkpoint
blob (``store.put_checkpoint``), and reads it back from there
(``store.get_checkpoint``) so a killed job resumes exactly where it
stopped, on this machine or any other.  The store is a checkpoint's only
home: a save that returns has landed, and there is no local copy to
sync.

**Format version 3** (what saves write) stores each protected file as
its difference from the run's original (a GA chromosome differs from
it in a few hundred of ~10^4 cells): a top-level ``"codes"`` table of
``{"positions", "index_dtype", "values", "dtype"}`` entries, where
``positions`` are the flat cells that differ (stored as the gaps
between them) and ``values`` the codes there, each at the narrowest of
``uint8`` / ``uint16`` / ``int64``, zlib'd and base64'd; decoding always yields ``int64``, so
scores, fingerprints and resume are bit-identical at any width.  The
table holds one entry per distinct matrix and an individual's
``"codes"`` is an index into it.  The payload's ``"original"`` is the
original's :meth:`~repro.data.dataset.CategoricalDataset.digest`, and a
load under any other original is refused.

Each dataset object is encoded at most once per process: its entry is
cached on the dataset (``checkpoint_entry``, keyed by the original's
digest, never pickled), a load attaches the entries it decodes to the
datasets it rebuilds, and a save encodes only the datasets that carry
no entry for its original.  So a save whose population is unchanged
hashes and compresses nothing, and a resumed run's first save
compresses nothing it loaded.

**Format version 2** (still loaded) stored each distinct matrix whole,
as ``{"shape", "dtype", "data"}`` entries of the same table.

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
import time
import zlib

import numpy as np

from repro.core.engine import EngineCheckpoint
from repro.core.history import GenerationRecord
from repro.core.individual import Individual
from repro.data.dataset import CategoricalDataset, differing_cells
from repro.data.schema import narrowest_dtype
from repro.exceptions import ServiceError, StoreUnavailableError, WorkerError
from repro.obs import emit_event, get_registry, trace
from repro.service.cache import score_from_dict, score_to_dict

FORMAT_VERSION = 3

#: Every checkpoint version this module loads (and the fleet resumes).
SUPPORTED_VERSIONS = (1, 2, 3)

#: zlib level of table entries.  Measured on a cold 25-generation
#: flare save of whole matrices (format 2, 119 uint8 matrices, 2-core
#: x86): level 1 encoded in ~55 ms to 0.96 MB, the default level 6 in
#: ~190 ms to 0.84 MB.
_ZLIB_LEVEL = 1

#: On-disk byte layout of each table ``dtype`` (v1 entries carry no
#: dtype and are raw int64).
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


def _pack(values: np.ndarray, dtype: str) -> str:
    raw = np.ascontiguousarray(values, dtype=_WIRE_DTYPES[dtype]).tobytes()
    return base64.b64encode(zlib.compress(raw, _ZLIB_LEVEL)).decode("ascii")


def _unpack(data: str, dtype: str) -> np.ndarray:
    wire = _WIRE_DTYPES.get(dtype)
    if wire is None:
        raise ServiceError(f"unsupported checkpoint code dtype: {dtype!r}")
    return np.frombuffer(zlib.decompress(base64.b64decode(data)), dtype=wire).astype(np.int64)


def _decode_codes(payload: dict) -> np.ndarray:
    """Decode a v1 inline or v2 table entry; always ``int64``."""
    return _unpack(payload["data"], payload.get("dtype", "int64")).reshape(payload["shape"])


def _encode_delta(codes: np.ndarray, original: np.ndarray) -> dict:
    """A v3 table entry: the cells where ``codes`` differs from ``original``.

    Positions are stored as gaps (each from the previous position, the
    first from 0): small numbers that fit a narrow width and compress.
    """
    if codes.shape != original.shape:
        raise ServiceError(
            f"cannot checkpoint a {codes.shape} matrix against a {original.shape} original"
        )
    positions = differing_cells(codes, original)
    gaps = np.diff(positions, prepend=0)
    values = codes.reshape(-1)[positions]
    index_dtype = narrowest_dtype(int(gaps.max(initial=0)))
    dtype = narrowest_dtype(int(values.max(initial=0)))
    return {
        "positions": _pack(gaps, index_dtype),
        "index_dtype": index_dtype,
        "values": _pack(values, dtype),
        "dtype": dtype,
    }


def _decode_delta(entry: dict, original: np.ndarray) -> np.ndarray:
    """The ``int64`` matrix a v3 entry encodes against ``original`` (any width)."""
    gaps = _unpack(entry["positions"], entry["index_dtype"])
    values = _unpack(entry["values"], entry["dtype"])
    positions = np.cumsum(gaps)
    if (values.size != positions.size or (gaps[:1] < 0).any() or (gaps[1:] < 1).any()
            or (positions[-1:] >= original.size).any()):
        raise ServiceError("malformed checkpoint entry: its positions and values "
                           "are not distinct cells of the original")
    codes = original.astype(np.int64)
    codes.reshape(-1)[positions] = values
    return codes


def _entry(dataset: CategoricalDataset, original: np.ndarray, digest: str) -> dict:
    """``dataset``'s v3 entry against the original of ``digest``, encoded once.

    ``original`` is that original's stored (narrow) matrix.
    """
    cached = dataset.checkpoint_entry
    if cached is not None and cached[0] == digest:
        return cached[1]
    entry = _encode_delta(dataset.narrow_codes, original)
    dataset.checkpoint_entry = (digest, entry)
    return entry


def _individual_to_dict(individual: Individual, codes: int | None = None) -> dict:
    """One individual: ``codes`` is its table index, or ``None`` to
    inline the v1 encoding (the migrant-blob wire form)."""
    return {
        "name": individual.dataset.name,
        "origin": individual.origin,
        "birth_generation": individual.birth_generation,
        "codes": _encode_codes(individual.dataset.narrow_codes) if codes is None else codes,
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


def checkpoint_to_dict(checkpoint: EngineCheckpoint, fingerprint: str = "") -> dict:
    """JSON-ready (format v3) representation of a full engine checkpoint.

    Every matrix is encoded against ``checkpoint.original``; a dataset
    that already carries its entry for that original is not encoded
    again, so the cost of a save is the matrices no save or load of
    this process has seen.
    """
    original = checkpoint.original
    if original is None:
        raise ServiceError("checkpoint carries no original to encode its population against")
    digest = original.digest()
    table: list[dict] = []
    # Equal matrices have equal entries, so an entry's fields key the
    # table (their string hashes are cached once computed).
    index_of: dict[tuple[str, str, str, str], int] = {}

    def encode(individuals: list[Individual]) -> list[dict]:
        items = []
        for individual in individuals:
            entry = _entry(individual.dataset, original.narrow_codes, digest)
            key = (entry["index_dtype"], entry["positions"], entry["dtype"], entry["values"])
            index = index_of.setdefault(key, len(table))
            if index == len(table):
                table.append(entry)
            items.append(_individual_to_dict(individual, index))
        return items

    return {
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "original": digest,
        "generation": checkpoint.generation,
        "rng_state": checkpoint.rng_state,
        "initial": encode(checkpoint.initial),
        "individuals": encode(checkpoint.individuals),
        "records": [r.to_dict() for r in checkpoint.records],
        "codes": table,
    }


def checkpoint_from_dict(
    payload: dict,
    reference: CategoricalDataset,
    expected_fingerprint: str = "",
) -> EngineCheckpoint:
    """Rebuild an :class:`EngineCheckpoint` from :func:`checkpoint_to_dict`.

    Loads every version in :data:`SUPPORTED_VERSIONS`.  ``reference`` is
    the run's original: a v3 checkpoint is decoded against it (and
    refused when it was written against another); v1 and v2 only take
    its schema.  When ``expected_fingerprint`` is given and the
    checkpoint carries a fingerprint, the two must match.  The datasets
    a v3 load rebuilds keep their table entries, so the resumed run's
    saves do not encode them again.
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
    if version == 3:
        digest = reference.digest()
        if payload.get("original") != digest:
            raise ServiceError(
                "checkpoint was written against a different original dataset; "
                "refusing to decode it"
            )
        matrices = [_decode_delta(entry, reference.narrow_codes) for entry in entries]
    else:
        matrices = [_decode_codes(entry) for entry in entries]
    # Individuals that shared a matrix (and name) when saved share one
    # immutable dataset again, as they did in the live run.
    shared: dict[tuple[int, str], CategoricalDataset] = {}

    def dataset(item: dict) -> CategoricalDataset | None:
        if version == 1:
            return None  # inline codes, decoded per individual
        key = (item["codes"], item["name"])
        if key not in shared:
            rebuilt = shared[key] = reference.with_codes(matrices[key[0]], name=key[1])
            if version == 3:
                rebuilt.checkpoint_entry = (digest, entries[key[0]])
        return shared[key]

    return EngineCheckpoint(
        generation=payload["generation"],
        initial=[
            _individual_from_dict(p, reference, dataset(p)) for p in payload["initial"]
        ],
        individuals=[
            _individual_from_dict(p, reference, dataset(p)) for p in payload["individuals"]
        ],
        records=[GenerationRecord.from_dict(r) for r in payload["records"]],
        rng_state=payload["rng_state"],
        original=reference,
    )


class CheckpointManager:
    """One job's checkpoint in a job store: encoded saves, verified loads.

    The job runner's executor saves every job it runs with a store
    through one, from its per-generation hook: a plain job's hook on the
    job's ``checkpoint_every`` cadence and at its last generation, an
    island member's exchange hook at each exchange (with its island
    state).

    ``owner`` is the caller's claim owner: the store refuses a save once
    the claim has moved to another worker, so a worker that lost its
    job can never overwrite the new owner's progress.  A save the owner
    gate refuses, or the store cannot reach, is dropped — emitted (and
    counted) as a ``checkpoint_dropped`` event — and the run continues:
    its result does not depend on the checkpoint, and a resume restarts
    from the store's latest copy.
    """

    def __init__(self, store, job_id: str, fingerprint: str = "",
                 owner: str | None = None) -> None:
        self.store = store
        self.job_id = job_id
        self.fingerprint = fingerprint
        self.owner = owner
        self.saves = 0

    @property
    def path(self) -> str:
        """The blob this manager reads and writes, as ``<store>#<job_id>``."""
        store = getattr(self.store, "base_url", None) or getattr(self.store, "spec", "")
        return f"{store}#{self.job_id}"

    def save(self, checkpoint: EngineCheckpoint, **extra: object) -> bool:
        """Encode ``checkpoint`` (plus ``extra`` top-level payload keys)
        and write it to the store; True when it landed."""
        started = time.perf_counter()
        with trace.span("repro.checkpoint.save", generation=checkpoint.generation):
            payload = checkpoint_to_dict(checkpoint, self.fingerprint)
            payload.update(extra)
            try:
                nbytes = self.store.put_checkpoint(self.job_id, payload, owner=self.owner)
            except (WorkerError, StoreUnavailableError) as error:
                emit_event("checkpoint_dropped", job_id=self.job_id, owner=self.owner,
                           generation=checkpoint.generation, error=repr(error))
                return False
        self.saves += 1
        registry = get_registry()
        if registry.enabled:
            registry.observe("repro_checkpoint_seconds", time.perf_counter() - started)
            # The store's own encode, sized where it was made.
            registry.inc("repro_checkpoint_bytes_total", nbytes)
        return True

    def load(self, reference: CategoricalDataset, required: bool = True,
             payload: dict | None = None) -> EngineCheckpoint | None:
        """Read the checkpoint back, decoding against the run's original ``reference``.

        With ``required=False`` a missing blob, or one this run cannot
        resume (see :func:`is_resumable`), reads as ``None`` instead of
        raising; either way the blob is fetched once.  A ``payload`` the
        caller already fetched is used instead of fetching it again.
        """
        if payload is None:
            payload = self.store.get_checkpoint(self.job_id)
        if not required and not is_resumable(payload, self.fingerprint):
            return None
        if payload is None:
            raise ServiceError(f"no checkpoint for {self.job_id} in {self.path}")
        return checkpoint_from_dict(payload, reference, self.fingerprint)

    def __repr__(self) -> str:
        return f"CheckpointManager({self.path!r}, saves={self.saves})"
