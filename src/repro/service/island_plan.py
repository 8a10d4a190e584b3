"""Island-group identity, topology and planning, without the science stack.

:func:`plan_island_jobs` splits one seeded search into ``P`` member jobs
plus a merge job, :func:`island_group_id` names the group, and
:func:`island_topology` fixes who receives whose migrants.  This module
imports no numpy, so ``repro submit --islands P --detach`` and ``repro
status --group`` plan and name groups without loading the library;
:mod:`repro.service.islands`, which runs the groups, re-exports every
name here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

from repro.exceptions import ServiceError
from repro.service.job import ProtectionJob

#: Blob-id suffix of an island's durable migrant buffer on the
#: checkpoint path, beside ``.trace`` blobs.
MIGRANTS_BLOB_SUFFIX = ".migrants"

#: Wire version of the migrant payload (a stability contract — bump it
#: like a store wire-protocol change, never silently).
MIGRANTS_BLOB_VERSION = 1

#: The fixed, seeded migration topologies (inbound-neighbour maps).
TOPOLOGIES = ("ring", "star", "full")


def migrants_blob_id(job_id: str) -> str:
    """The checkpoint-path blob id holding ``job_id``'s migrant buffer."""
    return f"{job_id}{MIGRANTS_BLOB_SUFFIX}"


def island_group_id(job: ProtectionJob) -> str:
    """Stable group identity shared by every member of one island search.

    Every island-varying *identity* field except ``island_index`` (and
    the pure execution fields) participates, so all ``P`` members plus
    the merge job hash to one group and nothing else does.
    """
    excluded = set(ProtectionJob._EXECUTION_FIELDS) | {"island_index"}
    payload = {
        key: value
        for key, value in job.to_dict().items()
        if key not in excluded
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return "ig-" + hashlib.sha256(blob).hexdigest()[:12]


def island_topology(name: str, islands: int) -> dict[int, tuple[int, ...]]:
    """The fixed inbound-neighbour map ``island -> senders`` for ``name``.

    - ``ring``: island ``i`` receives from ``(i - 1) % P``;
    - ``star``: island 0 (the hub) receives from every spoke, each spoke
      receives from the hub;
    - ``full``: everyone receives from everyone else.

    Every island *publishes* every round regardless of topology, so an
    unfulfilled inbound edge always resolves once the sender reaches
    the round — there is no topology with a starvation cycle.
    """
    if islands < 2:
        raise ServiceError(f"a topology needs islands >= 2, got {islands}")
    if name == "ring":
        return {i: ((i - 1) % islands,) for i in range(islands)}
    if name == "star":
        inbound: dict[int, tuple[int, ...]] = {0: tuple(range(1, islands))}
        for i in range(1, islands):
            inbound[i] = (0,)
        return inbound
    if name == "full":
        return {
            i: tuple(j for j in range(islands) if j != i)
            for i in range(islands)
        }
    raise ServiceError(
        f"unknown topology {name!r}; choose from {', '.join(TOPOLOGIES)}"
    )


def plan_island_jobs(
    base: ProtectionJob,
    islands: int,
    migrate_every: int = 25,
    migrants: int = 2,
    topology: str = "ring",
) -> list[ProtectionJob]:
    """The job group for one island search: ``P`` members + the merge.

    ``islands == 1`` returns ``[base]`` untouched — the serial engine,
    bit-identical to a plain submission (the equivalence the regression
    tests pin).  Member ``i`` carries ``island_index=i``; the merge job
    carries ``island_index == islands`` and consolidates the finished
    members into one Pareto front.
    """
    if islands < 1:
        raise ServiceError(f"islands must be >= 1, got {islands}")
    if islands == 1:
        return [base]
    if migrate_every < 1:
        raise ServiceError(f"migrate_every must be >= 1, got {migrate_every}")
    if migrants < 1:
        raise ServiceError(f"migrants must be >= 1, got {migrants}")
    island_topology(topology, islands)  # validates the name
    group = [
        replace(
            base,
            islands=islands,
            island_index=i,
            migrate_every=int(migrate_every),
            migrants=int(migrants),
            topology=topology,
        )
        for i in range(islands + 1)  # members 0..P-1, merge at P
    ]
    return group


def member_job_ids(job: ProtectionJob) -> list[str]:
    """The job ids of the ``P`` member islands of ``job``'s group."""
    return [replace(job, island_index=i).job_id for i in range(job.islands)]
