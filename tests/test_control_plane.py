"""The control plane starts without the science stack.

Queuing jobs (``repro submit --detach``) and reading the queue (``repro
status``) only touch sqlite, so they must not import numpy.  Each
command runs in a fresh interpreter through ``runpy``, exactly as
``python -m repro`` would, and reports whether ``numpy`` was loaded.

The identity literals below were computed before the control plane
moved to numpy-free modules; job ids and island group ids are stored
in every queue, so they must never shift.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import DATASET_NAMES
from repro.datasets.registry import PAPER_SPECS, dataset_names
from repro.service.island_plan import island_group_id, plan_island_jobs
from repro.service.job import ProtectionJob

SRC = str(Path(repro.__file__).resolve().parents[1])

ISLAND_GROUP = "ig-5b6d740ed338"
ISLAND_JOB_IDS = [
    "adult-s42-c0f6d510af",
    "adult-s42-0d2655dd8b",
    "adult-s42-40e67c4d58",
    "adult-s42-21f02491e6",
    "adult-s42-b777c8097e",  # the merge job
]
FLARE_JOB_IDS = [
    "flare-s7-394b3e3bb6",
    "flare-s8-1944388688",
    "flare-s9-d410bca0c3",
    "flare-s10-f7e96620fa",
]

# Runs ``repro`` with the given argv as ``python -m repro`` does, then
# prints whether numpy was imported, whatever the exit code.
_SCRIPT = """\
import runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    code = stop.code
else:
    code = 0
print("numpy loaded:", "numpy" in sys.modules)
sys.exit(code)
"""


def _repro(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_HOME", None)
    return subprocess.run([sys.executable, "-c", _SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _assert_numpy_free(done: subprocess.CompletedProcess) -> None:
    assert done.returncode == 0, done.stderr
    assert done.stdout.rstrip().endswith("numpy loaded: False"), done.stdout


class TestIdentity:
    def test_island_group_is_pinned(self):
        jobs = plan_island_jobs(ProtectionJob(dataset="adult"), 4)
        assert [job.job_id for job in jobs] == ISLAND_JOB_IDS
        assert {island_group_id(job) for job in jobs} == {ISLAND_GROUP}

    def test_replicate_job_ids_are_pinned(self):
        base = ProtectionJob(dataset="flare")
        assert [base.with_seed(seed).job_id for seed in (7, 8, 9, 10)] == FLARE_JOB_IDS

    def test_static_dataset_names_match_the_registry(self):
        # Sorted, as the parser always listed them; the registry keeps
        # the paper's order.
        assert DATASET_NAMES == tuple(sorted(PAPER_SPECS)) == tuple(sorted(dataset_names()))

    @pytest.mark.parametrize("package", ["repro", "repro.metrics", "repro.service", "repro.utils"])
    def test_lazy_tables_cover_all(self, package):
        module = importlib.import_module(package)
        names = set(module.__all__) - {"__version__"}
        assert names <= set(dir(module))
        for name in names:
            assert getattr(module, name) is not None


class TestNoNumpy:
    def test_help(self):
        _assert_numpy_free(_repro("--help"))

    def test_submit_detach_then_status(self, tmp_path):
        state = str(tmp_path / "state")
        done = _repro("submit", "--dataset", "flare", "--seeds", "7,8,9,10",
                      "--detach", "--state-dir", state)
        _assert_numpy_free(done)
        for job_id in FLARE_JOB_IDS:
            assert f"{job_id} " in done.stdout
        status = _repro("status", "--state-dir", state)
        _assert_numpy_free(status)
        assert all(job_id in status.stdout for job_id in FLARE_JOB_IDS)
        _assert_numpy_free(_repro("status", "--json", "--state-dir", state))

    def test_island_submit_detach_then_status(self, tmp_path):
        state = str(tmp_path / "state")
        done = _repro("submit", "--dataset", "adult", "--islands", "4",
                      "--detach", "--state-dir", state)
        _assert_numpy_free(done)
        assert f"queued island group {ISLAND_GROUP}:" in done.stdout
        for job_id in ISLAND_JOB_IDS:
            assert f"{job_id} " in done.stdout
        _assert_numpy_free(_repro("status", "--group", ISLAND_GROUP, "--state-dir", state))
        _assert_numpy_free(_repro("status", "--json", "--state-dir", state))

    def test_cache(self, tmp_path):
        state = str(tmp_path / "state")
        plain = _repro("cache", "--state-dir", state)
        _assert_numpy_free(plain)
        assert "entries: 0" in plain.stdout
        as_json = _repro("cache", "--json", "--state-dir", state)
        _assert_numpy_free(as_json)
        assert '"entries": 0' in as_json.stdout
