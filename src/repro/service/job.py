"""Job model of the orchestration service.

A :class:`ProtectionJob` is the unit of work the service moves around:
one fully-specified protection run — dataset reference, GA / engine
configuration, and run seed.  Jobs are frozen values with a stable
content fingerprint, so identical submissions deduplicate, cache entries
survive restarts, and a job can be round-tripped through JSON (the job
store, the process backend) without losing identity.

A finished job is summarized by a :class:`JobResult`: the endpoint
scores plus the evaluation-cache accounting the acceptance tests and the
``repro status`` table report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from repro.config import METRIC_KERNEL_VERSION, ExperimentConfig
from repro.exceptions import ServiceError


@dataclass(frozen=True)
class ProtectionJob:
    """One fully-specified protection run, identified by its content.

    The fields mirror :class:`repro.config.ExperimentConfig`
    so a job converts losslessly to the experiment harness; the service
    adds identity (:meth:`fingerprint`, :attr:`job_id`) on top.
    """

    dataset: str
    score: str = "max"
    generations: int = 300
    seed: int = 42
    population_seed: int = 0
    drop_best_fraction: float = 0.0
    mutation_probability: float = 0.5
    leader_fraction: float = 0.1
    selection_strategy: str = "proportional"
    eval_workers: int = 0
    #: Island-model fields (see :mod:`repro.service.islands`): with
    #: ``islands >= 2`` this job is one member of a cooperating group —
    #: ``island_index`` in ``[0, islands)`` runs one population on its
    #: own RNG stream, ``island_index == islands`` is the final
    #: Pareto-merge job — exchanging ``migrants`` elites every
    #: ``migrate_every`` generations over the ``topology`` neighbour
    #: map.  All five default to inactive so plain jobs are unchanged.
    islands: int = 0
    island_index: int = 0
    migrate_every: int = 0
    migrants: int = 0
    topology: str = ""

    #: Pure throughput knobs: evaluation is pure, so these can never
    #: change a run's results and must not change its identity — the
    #: same job run with 1 or 8 evaluation workers is the same job (and
    #: old stores' fingerprints stay valid).
    _EXECUTION_FIELDS = frozenset({"eval_workers"})

    #: The island-model fields.  Excluded from the fingerprint while
    #: inactive (``islands <= 1``) so every pre-island job keeps its
    #: historical content hash — stores full of finished jobs must not
    #: see their identities shift under a schema extension.  Active
    #: island fields *do* change results (different RNG streams,
    #: migrant exchange), so they are hashed then.
    _ISLAND_FIELDS = frozenset(
        {"islands", "island_index", "migrate_every", "migrants", "topology"}
    )

    def fingerprint(self) -> str:
        """Stable content hash: equal jobs hash equal, always.

        Covers every field that can change the run's results; execution
        fields (:attr:`_EXECUTION_FIELDS`) are excluded, and the island
        fields (:attr:`_ISLAND_FIELDS`) only count while active.
        """
        excluded = self._EXECUTION_FIELDS
        if self.islands <= 1:
            excluded = excluded | self._ISLAND_FIELDS
        payload = {
            key: value
            for key, value in asdict(self).items()
            if key not in excluded
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def checkpoint_fingerprint(self) -> str:
        """The fingerprint this job's checkpoints are stamped and resumed under.

        :meth:`fingerprint` salted with ``METRIC_KERNEL_VERSION``: a
        checkpoint's population carries scores from the kernel that saved
        it, so one saved under another kernel is not resumable (a worker
        restarts the job from generation 0, ``repro resume`` refuses).
        Kernels up to 2 stamped the bare :meth:`fingerprint`.
        """
        salted = f"{self.fingerprint()}:kernel{METRIC_KERNEL_VERSION}"
        return hashlib.sha256(salted.encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """Human-scannable id: dataset, seed, and a fingerprint prefix."""
        return f"{self.dataset}-s{self.seed}-{self.fingerprint()[:10]}"

    def with_seed(self, seed: int) -> "ProtectionJob":
        """The same job under a different run seed (replicates)."""
        return replace(self, seed=seed)

    def to_config(self) -> ExperimentConfig:
        """The experiment-harness view of this job.

        The island fields stay behind: the experiment harness runs one
        population — island orchestration happens a layer above it, in
        :mod:`repro.service.islands`.
        """
        payload = {
            key: value
            for key, value in asdict(self).items()
            if key not in self._ISLAND_FIELDS
        }
        return ExperimentConfig(**payload)

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "ProtectionJob":
        """Wrap an existing experiment configuration as a job."""
        return cls(**asdict(config))

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ProtectionJob":
        """Rebuild a job from :meth:`to_dict` output."""
        if "eval_backend" in payload:
            # Older records name the in-run pool type, which is now
            # always threads; it was never part of the fingerprint.
            payload = {k: v for k, v in payload.items() if k != "eval_backend"}
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ServiceError(f"unknown job fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class JobResult:
    """Compact, serializable summary of one finished job.

    ``final_scores`` keeps the full final-population score vector in
    population order, which is what the backend-equivalence guarantees
    compare ("byte-identical to the serial path").  The cache counters
    split evaluation work into fresh metric computations
    (``fresh_evaluations``), in-process memo hits (``memo_hits``) and
    persistent-store hits (``persistent_hits``).
    """

    job_id: str
    dataset: str
    seed: int
    generations: int
    best_score: float
    best_information_loss: float
    best_disclosure_risk: float
    final_scores: tuple[float, ...]
    mean_improvement_percent: float
    fresh_evaluations: int
    memo_hits: int
    persistent_hits: int
    wall_seconds: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["final_scores"] = list(self.final_scores)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        """Rebuild a result from :meth:`to_dict` output."""
        data = dict(payload)
        data["final_scores"] = tuple(data.get("final_scores", ()))
        # Records written before checkpoints lived only in the store
        # name a checkpoint file on the machine that ran the job.
        data.pop("checkpoint_path", None)
        return cls(**data)
