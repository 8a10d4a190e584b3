"""Job-orchestration service: queueing, parallel execution, caching, resume.

The service layer turns the library's single-run building blocks into an
operable system: :class:`ProtectionJob` is the durable unit of work,
:class:`JobRunner` fans jobs out over a serial or a process
backend (in-run scoring splits batches over a :class:`ThreadBackend`),
:class:`EvaluationCache` persists fitness evaluations across
runs and processes (optionally LRU-bounded via ``max_entries``),
:class:`CheckpointManager` makes long GA runs interrupt-safe by saving
them straight into the job store,
:class:`SqliteJobStore` keeps job lifecycle state in one transactional
SQLite database for the ``repro submit`` / ``status`` / ``resume`` CLI,
and :class:`Worker` claims queued jobs for detached execution (``repro
submit --detach`` + ``repro worker``) — safe with any number of workers
per database.  :class:`JobStoreServer` serves a store over HTTP
(``repro serve``) and :class:`RemoteJobStore` is the client with the
identical :data:`STORE_PROTOCOL` surface (``--store-url``), extending
the same claim/heartbeat contract across machines.
:func:`store_from_spec` opens any backend from its spec string (a state
directory / ``sqlite:PATH`` / ``http://...``) and
:func:`migrate_store` moves state between them.
:func:`plan_island_jobs` splits one seeded search into an island-model
group — member jobs exchanging elite migrants through the store on a
fixed cadence plus a merge job consolidating the Pareto front
(``repro submit --islands P``) — that any fleet of the above drives
deterministically.

Every name here resolves on first access (PEP 562): queuing a job
(``repro submit --detach``) loads the job model, the store and the
island planner (:mod:`repro.service.island_plan`) without numpy.
"""

from repro.utils.lazy import lazy_exports

__all__ = [
    "ProtectionJob",
    "JobResult",
    "JobRunner",
    "JobOutcome",
    "EvaluationCache",
    "score_to_dict",
    "score_from_dict",
    "CheckpointManager",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "JobRecord",
    "SqliteJobStore",
    "JobStoreServer",
    "RemoteJobStore",
    "store_from_spec",
    "migrate_store",
    "PROTOCOL_VERSION",
    "STORE_PROTOCOL",
    "Worker",
    "ClaimHeartbeat",
    "IslandParked",
    "MIGRANTS_BLOB_SUFFIX",
    "TOPOLOGIES",
    "plan_island_jobs",
    "island_topology",
    "island_group_id",
    "member_job_ids",
    "migrants_blob_id",
    "drive_group",
    "front_dominates_or_matches",
    "default_state_dir",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BACKENDS",
    "create_backend",
]

#: Which module defines each public name, imported on first access.
_EXPORTS = {
    "repro.service.backends": (
        "BACKENDS", "ExecutionBackend", "ProcessBackend", "SerialBackend",
        "ThreadBackend", "create_backend",
    ),
    "repro.service.cache": ("EvaluationCache", "score_from_dict", "score_to_dict"),
    "repro.service.checkpoint": (
        "CheckpointManager", "checkpoint_from_dict", "checkpoint_to_dict",
    ),
    "repro.service.island_plan": (
        "MIGRANTS_BLOB_SUFFIX", "TOPOLOGIES", "island_group_id", "island_topology",
        "member_job_ids", "migrants_blob_id", "plan_island_jobs",
    ),
    "repro.service.islands": ("IslandParked", "drive_group", "front_dominates_or_matches"),
    "repro.service.job": ("JobResult", "ProtectionJob"),
    "repro.service.netstore": ("PROTOCOL_VERSION", "JobStoreServer", "RemoteJobStore"),
    "repro.service.runner": ("JobOutcome", "JobRunner"),
    "repro.service.sqlstore": ("SqliteJobStore",),
    "repro.service.store": (
        "STORE_PROTOCOL", "JobRecord", "default_state_dir", "migrate_store",
        "store_from_spec",
    ),
    "repro.service.worker": ("ClaimHeartbeat", "Worker"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
