"""Execution-backend semantics: order, parallelism, error propagation.

Jobs fan out over ``serial`` or ``process``; the thread pool is the
in-run scoring pool only.
"""

from __future__ import annotations

import os
import sqlite3
import threading

import pytest

from repro.cli import main
from repro.exceptions import ServiceError
from repro.service import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    create_backend,
)


def _square(x: int) -> int:
    # Module-level so the process backend can pickle it.
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _pid(_: object) -> int:
    return os.getpid()


def _insert(path: str) -> str:
    """One write through a fresh connection: ``"ok"`` or sqlite's error."""
    connection = sqlite3.connect(path, timeout=0.5)
    try:
        with connection:
            connection.execute("INSERT INTO beats VALUES (1)")
        return "ok"
    except sqlite3.OperationalError as error:
        return str(error)
    finally:
        connection.close()


ALL_BACKENDS = [SerialBackend(), ThreadBackend(max_workers=2), ProcessBackend(max_workers=2)]


class TestBackendSemantics:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_map_preserves_order(self, backend):
        items = list(range(10))
        assert backend.map(_square, items) == [x * x for x in items]

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_empty_input(self, backend):
        assert backend.map(_square, []) == []

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_errors_propagate(self, backend):
        with pytest.raises(ValueError, match="boom"):
            backend.map(_boom, [1, 2])


def test_a_pool_started_during_a_store_write_can_write(tmp_path):
    """Regression: the pool's workers were forks of the caller.  A worker
    forked while a claim-heartbeat thread sat inside a sqlite write
    inherited that lock's per-process bookkeeping, and each write it made
    then failed with ``database is locked``, even after the parent
    committed."""
    path = str(tmp_path / "jobs.sqlite")
    setup = sqlite3.connect(path)
    setup.execute("PRAGMA journal_mode=WAL")
    setup.execute("CREATE TABLE beats (x)")
    setup.close()
    inside, leave = threading.Event(), threading.Event()

    def beat() -> None:
        connection = sqlite3.connect(path, isolation_level=None)
        connection.execute("BEGIN IMMEDIATE")
        connection.execute("INSERT INTO beats VALUES (0)")
        inside.set()
        leave.wait(30)
        connection.execute("COMMIT")
        connection.close()

    heartbeat = threading.Thread(target=beat)
    heartbeat.start()
    assert inside.wait(30)
    with ProcessBackend(max_workers=2) as backend:
        try:
            started = backend.map(_pid, [0, 1])  # workers start mid-write
        finally:
            leave.set()
            heartbeat.join()
        assert os.getpid() not in started
        assert backend.map(_insert, [path, path]) == ["ok", "ok"]


class TestCreateBackend:
    def test_resolves_all_names(self):
        assert sorted(BACKENDS) == ["process", "serial"]
        for name in BACKENDS:
            assert create_backend(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ServiceError, match="unknown backend"):
            create_backend("quantum")

    def test_serial_rejects_workers(self):
        with pytest.raises(ServiceError):
            create_backend("serial", max_workers=4)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ServiceError):
            ThreadBackend(max_workers=0)


#: Each retired choice, and the flag or name its error must point at.
RETIRED = {
    "create-backend-thread": (lambda state: create_backend("thread"), "process, serial"),
    "worker-backend-thread": (lambda state: main(
        ["worker", "--once", "--backend", "thread", "--state-dir", state]),
        "invalid choice: 'thread'"),
    "submit-eval-backend": (lambda state: main(
        ["submit", "--dataset", "flare", "--eval-backend", "process", "--state-dir", state]),
        "unrecognized arguments: --eval-backend process"),
    "resume-backend": (lambda state: main(
        ["resume", "--job", "x", "--backend", "process", "--state-dir", state]),
        "unrecognized arguments: --backend process"),
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_choices_fail_clearly(tmp_path, capsys, name):
    """A job-level thread pool, an in-run process pool and ``resume``'s
    fan-out are gone: asking for one fails before anything runs."""
    call, message = RETIRED[name]
    with pytest.raises((ServiceError, SystemExit)) as raised:
        call(str(tmp_path))
    if isinstance(raised.value, SystemExit):
        assert raised.value.code == 2
        assert message in capsys.readouterr().err
    else:
        assert message in str(raised.value)
    assert list(tmp_path.iterdir()) == []
