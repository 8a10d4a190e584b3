"""Shared fixtures: datasets, PRL pattern counts, plus the job-store contract harness."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_adult, load_dataset, load_flare, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.linkage.compressed import CompressedPair
from repro.metrics.linkage_risk import ProbabilisticLinkageRisk


@dataclass
class StoreHarness:
    """One store under test plus the backing store its state lands in.

    ``store`` is what the test exercises (a sqlite store directly, or a
    ``RemoteJobStore`` speaking to a live in-process server over HTTP);
    ``backing`` is the ``SqliteJobStore`` that holds the state, so tests
    can simulate conditions no healthy client would produce, like a
    claim whose worker died ``seconds`` ago or one torn mid-heartbeat.
    """

    store: object
    backing: object

    def age_claim(self, job_id: str, seconds: float) -> None:
        """Backdate a claim as if its worker went silent ``seconds`` ago."""
        then = time.time() - seconds
        backing = self.backing
        with backing._lock:
            backing._conn.execute(
                "UPDATE claims SET claimed_at = ?, last_seen = ? WHERE job_id = ?",
                (then, then, job_id),
            )

    def tear_claim(self, job_id: str) -> None:
        """Install a held claim whose metadata cannot be read: a claim
        row with a NULL owner.  It means "held, by whom unknown", and
        the owner-gated operations must refuse to guess.
        """
        backing = self.backing
        with backing._lock:
            backing._conn.execute(
                "INSERT OR REPLACE INTO claims "
                "(job_id, owner, pid, claimed_at, last_seen) "
                "VALUES (?, NULL, NULL, ?, ?)",
                (job_id, time.time(), time.time()),
            )


@pytest.fixture(params=["sqlite", "remote", "sqlite-remote"])
def store_harness(request, tmp_path) -> StoreHarness:
    """The store contract fixture: every test using it runs once per
    backend — the ``SqliteJobStore``, a ``RemoteJobStore`` over a live
    ``JobStoreServer`` fronting one (``remote`` builds both ends
    directly; ``sqlite-remote`` opens both through ``store_from_spec``
    — a ``sqlite:`` server store and an ``http://`` client with its
    default retry policy — as ``repro serve --db`` and
    ``repro worker --store http://...`` do) — the network may not be
    visible behind the contract."""
    from repro.service import (
        JobStoreServer,
        RemoteJobStore,
        SqliteJobStore,
        store_from_spec,
    )

    servers = []

    def served(backing, spool):
        server = JobStoreServer(backing, token="contract-token").start()
        servers.append(server)
        return RemoteJobStore(server.url, token="contract-token", spool=spool,
                              retries=1, backoff=0.05)

    try:
        if request.param == "sqlite-remote":
            backing = store_from_spec(f"sqlite:{tmp_path / 'state' / 'jobs.sqlite'}")
            server = JobStoreServer(backing, token="contract-token").start()
            servers.append(server)
            client = store_from_spec(server.url, token="contract-token",
                                     state_dir=tmp_path / "spool")
            assert isinstance(client, RemoteJobStore)
            yield StoreHarness(store=client, backing=backing)
            return
        backing = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store = backing if request.param == "sqlite" else served(backing, tmp_path / "spool")
        yield StoreHarness(store=store, backing=backing)
    finally:
        for server in servers:
            server.stop()


@pytest.fixture(scope="session")
def tiny_schema() -> DatasetSchema:
    """Three attributes: nominal COLOR(3), ordinal SIZE(4), nominal SHAPE(2)."""
    return DatasetSchema(
        [
            CategoricalDomain("COLOR", ["red", "green", "blue"]),
            CategoricalDomain("SIZE", ["S", "M", "L", "XL"], ordinal=True),
            CategoricalDomain("SHAPE", ["round", "square"]),
        ]
    )


@pytest.fixture
def tiny_dataset(tiny_schema: DatasetSchema) -> CategoricalDataset:
    """12 records over the tiny schema, deterministic."""
    rng = np.random.default_rng(7)
    codes = np.column_stack(
        [
            rng.integers(0, 3, size=12),
            rng.integers(0, 4, size=12),
            rng.integers(0, 2, size=12),
        ]
    )
    return CategoricalDataset(codes, tiny_schema, name="tiny")


@pytest.fixture(scope="session")
def adult() -> CategoricalDataset:
    """The synthetic Adult dataset (1000 x 8)."""
    return load_adult()


@pytest.fixture(scope="session")
def flare() -> CategoricalDataset:
    """The synthetic Solar Flare dataset (1066 x 13)."""
    return load_flare()


@pytest.fixture(scope="session")
def small_adult(adult: CategoricalDataset) -> CategoricalDataset:
    """First 120 Adult records — fast enough for linkage-heavy tests."""
    return CategoricalDataset(adult.codes[:120], adult.schema, name="adult-small")


@pytest.fixture(scope="session")
def prl_population_counts() -> dict[str, np.ndarray]:
    """PRL pattern counts of each paper dataset's seed-0 initial population."""
    counts = {}
    for name in ("flare", "adult", "german", "housing"):
        original = load_dataset(name)
        attributes = protected_attributes(name)
        population = build_initial_population(original, dataset_name=name, seed=0)
        measure = ProbabilisticLinkageRisk(original, attributes)
        pairs = [CompressedPair(measure.index, masked) for masked in population]
        counts[name] = np.stack([pair.pattern_counts(measure.rows(pair)[1]) for pair in pairs])
    return counts
