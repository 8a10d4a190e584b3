"""The ``store_from_spec`` grammar, one table row per spec shape.

A spec opens a sqlite database (``sqlite:PATH``, a bare directory, or
the default state directory), builds a ``RemoteJobStore`` client
(``http(s)://``), or is refused.  Refusals come in two kinds: a retired
backend (``file:``, ``shard:``) names the ``repro migrate`` commands
that import it into one database, and an unknown ``scheme:`` lists the
grammar.  Every refusal reads the same through ``repro status --store``
and leaves no database behind.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ServiceError
from repro.service import RemoteJobStore, SqliteJobStore, store_from_spec


@pytest.fixture
def here(tmp_path, monkeypatch) -> Path:
    """Run in an empty directory with ``$REPRO_HOME`` at ``home``."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
    return tmp_path


def _databases(root: Path) -> list[Path]:
    return sorted(root.rglob("*.sqlite"))


@pytest.mark.parametrize("spec, database", [
    ("sqlite:db/jobs.sqlite", "db/jobs.sqlite"),
    ("  sqlite:db/jobs.sqlite\n", "db/jobs.sqlite"),
    ("sqlite:", "home/jobs.sqlite"),
    ("", "home/jobs.sqlite"),
    ("   ", "home/jobs.sqlite"),
    ("plain", "plain/jobs.sqlite"),
    ("nested/state", "nested/state/jobs.sqlite"),
    ("C:jobs", "C:jobs/jobs.sqlite"),
    ("a/b:c", "a/b:c/jobs.sqlite"),
    ("x1:y", "x1:y/jobs.sqlite"),
])
def test_local_specs_open_one_database(here, spec, database):
    store = store_from_spec(spec)
    assert isinstance(store, SqliteJobStore)
    assert Path(store.path).resolve() == (here / database).resolve()
    assert _databases(here) == [(here / database).resolve()]


@pytest.mark.parametrize("spec", ["http://127.0.0.1:9", "https://127.0.0.1:9",
                                  " http://127.0.0.1:9/ "])
def test_http_specs_build_a_client_and_touch_no_disk(here, spec):
    store = store_from_spec(spec, token="t", state_dir=here / "spool")
    assert isinstance(store, RemoteJobStore)
    assert store.base_url.startswith(spec.strip().rstrip("/"))
    assert _databases(here) == []


@pytest.mark.parametrize("spec, commands", [
    ("file:legacy",
     ["repro migrate --from file:legacy --to sqlite:legacy/jobs.sqlite"]),
    ("file:",
     ["repro migrate --from file:{home} --to sqlite:{home}/jobs.sqlite"]),
    ("shard:sqlite:a.db,sqlite:b.db",
     ["repro migrate --from sqlite:a.db --to sqlite:{home}/jobs.sqlite",
      "repro migrate --from sqlite:b.db --to sqlite:{home}/jobs.sqlite"]),
    ("shard: sqlite:a.db , sqlite:b.db ",
     ["repro migrate --from sqlite:a.db --to sqlite:{home}/jobs.sqlite",
      "repro migrate --from sqlite:b.db --to sqlite:{home}/jobs.sqlite"]),
    ("shard:sqlite:a.db,sqlite:b.db,sqlite:c.db",
     [f"repro migrate --from sqlite:{name}.db --to sqlite:{{home}}/jobs.sqlite"
      for name in "abc"]),
    ("shard:sqlite:a.db,http://10.0.0.7:8765",
     ["repro migrate --from sqlite:a.db --to sqlite:{home}/jobs.sqlite",
      "repro migrate --from http://10.0.0.7:8765 --to sqlite:{home}/jobs.sqlite"]),
    ("shard:sqlite:a.db,",
     ["repro migrate --from sqlite:a.db --to sqlite:{home}/jobs.sqlite"]),
    ("shard:@fleet.json",
     ["fleet.json",
      "repro migrate --from CHILD_SPEC --to sqlite:{home}/jobs.sqlite"]),
    ("shard:", ["removed; use sqlite:{home}/jobs.sqlite"]),
])
def test_retired_backends_name_their_migrate_commands(
    here, capsys, spec, commands
):
    expected = [c.format(home=here / "home") for c in commands]
    with pytest.raises(ServiceError) as excinfo:
        store_from_spec(spec)
    message = str(excinfo.value)
    assert "was removed" in message
    for command in expected:
        assert command in message
    assert main(["status", "--store", spec]) == 2
    err = capsys.readouterr().err
    for command in expected:
        assert command in err
    assert _databases(here) == []


@pytest.mark.parametrize("spec", ["sqllite:jobs.db", "mysql:fleet",
                                  "redis:localhost", "postgres:fleet",
                                  "shards:a.db,b.db", "files:legacy"])
def test_unknown_schemes_list_the_live_grammar(here, capsys, spec):
    scheme = spec.split(":", 1)[0] + ":"
    with pytest.raises(ServiceError) as excinfo:
        store_from_spec(spec)
    message = str(excinfo.value)
    assert f"unrecognized store scheme {scheme!r}" in message
    for grammar in ("directory path", "sqlite:PATH", "http(s)://"):
        assert grammar in message
    for retired in ("shard:", "file:"):
        assert retired not in message.replace(spec, "")
    assert main(["status", "--store", spec]) == 2
    assert scheme in capsys.readouterr().err
    assert _databases(here) == []
