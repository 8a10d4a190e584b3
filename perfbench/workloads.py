"""The benchmark's three workloads: one repetition each, cold and checked.

Every workload is a batch job in a closed loop with one client: set-up
fills the queue (or, for the library path, starts the interpreter), then
one process drains it.  Each repetition gets a fresh state directory and
fresh processes, so no cache, memo or job id survives from the previous
one; the checks below fail loudly if one did.

* ``lib-flare``: one library ``run_experiment`` on flare in a child process.
* ``fleet-flare``: ``repro submit --detach`` of four flare jobs into a
  fresh ``sqlite:`` store, drained by one ``repro worker --once``.
* ``islands-adult``: ``repro submit --detach --islands 4`` on adult,
  drained by one ``repro worker --once``.

The GA seeds are derived from the workload seed; the program only ever
receives those derived values on its command line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

#: Hard cap on one child process; a hung program fails the repetition.
CHILD_TIMEOUT_S = 90.0


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    state_mb: float
    jobs: int
    jobs_ok: int
    signature: object = None
    errors: list = field(default_factory=list)
    probe: dict | None = None
    run_seconds: float = 0.0
    covered_seconds: float = 0.0
    cache_bytes: int = 0
    spawn: float = 0.0


@dataclass
class Exit:
    code: int
    cpu_s: float
    peak_rss_mb: float
    elapsed_s: float


def run_child(cmd: list[str], env: dict, log: Path) -> Exit:
    """Run ``cmd`` to completion; CPU and peak RSS come from its own rusage.

    ``os.wait4`` reads the usage of exactly this child, where
    ``RUSAGE_CHILDREN`` would report the maximum over every child so far.
    """
    start = time.monotonic()
    with open(log, "ab") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        elapsed_s=time.monotonic() - start,
    )


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def run_coverage(payloads: list[dict]) -> tuple[float, float]:
    """(run seconds, seconds covered by child spans) over stored traces.

    The denominator is every ``repro.run`` span (a job's execution, once
    per segment for parked island jobs); the numerator is the part of
    those spans their own ``repro.*`` child spans cover.
    """
    from repro.obs.trace import build_tree, self_seconds

    run_s = covered_s = 0.0

    def walk(node: dict) -> None:
        nonlocal run_s, covered_s
        if node["span"].get("name") == "repro.run":
            duration = float(node["span"].get("duration", 0.0))
            run_s += duration
            covered_s += duration - self_seconds(node)
            return
        for child in node["children"]:
            walk(child)

    for payload in payloads:
        for root in build_tree(payload.get("spans", [])):
            walk(root)
    return run_s, covered_s


class Workload:
    """Shared plumbing: state directories, logs, the environment."""

    name = ""

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke
        self.log = work / "children.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["REPRO_HOME"] = str(work / "home")
        self.env.pop("REPRO_FULL", None)
        self._reps = 0

    def fresh_state(self) -> Path:
        """A new state directory path; ``mkdir`` refuses one that exists."""
        self._reps += 1
        return self.work / f"state-{self._reps}"

    def probe_path(self) -> Path:
        return self.work / f"probe-{self._reps}.json"

    def check_reference(self, rep: Rep) -> list[str]:
        """Compare a repetition's outputs to an independent reference."""
        return []


class LibFlare(Workload):
    name = "lib-flare"

    def config(self) -> dict:
        return {"dataset": "flare", "score": "max", "seed": self.seed,
                "generations": 5 if self.smoke else 150}

    def rep(self, traced: bool) -> Rep:
        state = self.fresh_state()
        timings = self.work / f"timings-{self._reps}.json"
        probe = self.probe_path()
        spans = self.work / f"spans-{self._reps}.json"
        cmd = [sys.executable, str(CHILD), "lib", json.dumps(self.config()),
                               str(state / "result.json"), str(timings)]
        if traced:
            cmd += ["--probe", str(probe), "--spans", str(spans)]
        start = time.monotonic()
        state.mkdir(parents=True)
        done = run_child(cmd, self.env, self.log)
        rep = Rep(setup_s=0.0, wall_s=0.0, cpu_s=done.cpu_s,
                  peak_rss_mb=done.peak_rss_mb, state_mb=0.0, jobs=1, jobs_ok=0,
                  spawn=start)
        if done.code != 0 or not timings.exists():
            rep.errors.append(f"{self.name}: library child exited {done.code}")
            return rep
        clock = json.loads(timings.read_text())
        rep.setup_s = clock["ready"] - start
        rep.wall_s = clock["wall_s"]
        rep.state_mb = tree_bytes(state) / 1e6
        result = json.loads((state / "result.json").read_text())
        result.pop("evaluator_stats")
        rep.signature = result
        rep.jobs_ok = 1
        if result["generations"] != self.config()["generations"]:
            rep.errors.append(f"{self.name}: ran {result['generations']} generations")
        if traced:
            rep.probe = json.loads(probe.read_text())
            traced_spans = json.loads(spans.read_text())
            rep.run_seconds = traced_spans["wall_s"]
            rep.covered_seconds = sum(
                float(item["duration"]) for item in traced_spans["spans"]
                if not item.get("parent_id")
            )
        return rep

    def check_reference(self, rep: Rep) -> list[str]:
        """The reported best is the final population's minimum score."""
        scores = rep.signature["final_scores"]
        if min(scores) != rep.signature["best_score"]:
            return [f"{self.name}: best score is not the population minimum"]
        return []


class _ServiceWorkload(Workload):
    """submit --detach into a fresh sqlite store, then one worker --once."""

    jobs = 0

    def submit_args(self) -> list[str]:
        raise NotImplementedError

    def rep(self, traced: bool) -> Rep:
        from repro.service.sqlstore import SqliteJobStore
        from repro.service.store import COMPLETED, QUEUED

        state = self.fresh_state()
        db = state / "jobs.sqlite"
        store_spec = f"sqlite:{db}"
        submit = [sys.executable, "-m", "repro", "submit", *self.submit_args(),
                                  "--eval-workers", "0", "--detach", "--store", store_spec]
        if traced:
            submit += ["--trace-sample", "1"]
        start = time.monotonic()
        state.mkdir(parents=True)
        done = run_child(submit, self.env, self.log)
        setup = time.monotonic() - start
        rep = Rep(setup_s=setup, wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0,
                  state_mb=0.0, jobs=self.jobs, jobs_ok=0)
        if done.code != 0:
            rep.errors.append(f"{self.name}: submit exited {done.code}")
            return rep
        # Cold-state guard: a reused store would queue nothing (job ids
        # are content hashes) and a reused cache would hit everything.
        with SqliteJobStore(db) as store:
            queued = [r for r in store.records() if r.status == QUEUED]
        if len(queued) != self.jobs:
            rep.errors.append(
                f"{self.name}: submit queued {len(queued)} jobs, expected {self.jobs}")
        if (state / "cache").exists() and any((state / "cache").iterdir()):
            rep.errors.append(f"{self.name}: evaluation cache exists before the drain")

        worker_args = ["worker", "--once", "--backend", "serial", "--eval-workers", "0",
                       "--store", store_spec]
        probe = self.probe_path()
        if traced:
            cmd = [sys.executable, str(CHILD), "cli", "--probe", str(probe), "--",
                                   *worker_args]
        else:
            cmd = [sys.executable, "-m", "repro", *worker_args]
        rep.spawn = time.monotonic()
        done = run_child(cmd, self.env, self.log)
        rep.wall_s = done.elapsed_s
        rep.cpu_s = done.cpu_s
        rep.peak_rss_mb = done.peak_rss_mb
        rep.state_mb = tree_bytes(state) / 1e6
        rep.cache_bytes = tree_bytes(state / "cache")
        if done.code != 0:
            rep.errors.append(f"{self.name}: worker exited {done.code}")
        with SqliteJobStore(db) as store:
            records = sorted(store.records(),
                             key=lambda r: (r.job.seed, r.job.island_index))
            completed = [r for r in records if r.status == COMPLETED and r.result]
            rep.jobs_ok = len(completed)
            if rep.jobs_ok != self.jobs:
                rep.errors.append(
                    f"{self.name}: {rep.jobs_ok} of {self.jobs} jobs completed")
            rep.signature = self.signature(records)
            rep.errors.extend(self.check_cold(records))
            if traced:
                from repro.obs.trace import load_trace

                payloads = [load_trace(store, r.job_id) for r in records]
                rep.run_seconds, rep.covered_seconds = run_coverage(
                    [p for p in payloads if p is not None])
        if traced and probe.exists():
            rep.probe = json.loads(probe.read_text())
        return rep

    def signature(self, records) -> object:
        return [
            [r.job.seed, r.job.island_index, list(r.result.final_scores),
             r.result.best_score, r.result.best_information_loss,
             r.result.best_disclosure_risk]
            for r in records if r.result is not None
        ]

    def check_cold(self, records) -> list[str]:
        return []


class FleetFlare(_ServiceWorkload):
    name = "fleet-flare"
    jobs = 4
    reference: list | None = None

    def seeds(self) -> list[int]:
        return [self.seed + offset for offset in range(self.jobs)]

    def sizes(self) -> tuple[int, int]:
        """(generations, checkpoint cadence)."""
        return (2, 2) if self.smoke else (25, 25)

    def submit_args(self) -> list[str]:
        generations, every = self.sizes()
        return ["--dataset", "flare", "--score", "max",
                "--generations", str(generations), "--checkpoint-every", str(every),
                "--seeds", ",".join(str(s) for s in self.seeds())]

    def check_cold(self, records) -> list[str]:
        """Exactly the first job scores the shared population cold."""
        hits = [r.result.persistent_hits for r in records if r.result is not None]
        if len(hits) == self.jobs and (hits[0] != 0 or min(hits[1:]) == 0):
            return [f"{self.name}: persistent hits {hits}; expected the first "
                    "job cold and the rest served from the cache"]
        return []

    def check_reference(self, rep: Rep) -> list[str]:
        """Each job equals an in-process ``run_experiment``, bit for bit."""
        if self.reference is None:
            from repro.experiments.runner import ExperimentConfig, run_experiment

            reference = []
            generations, _ = self.sizes()
            for seed in self.seeds():
                outcome = run_experiment(ExperimentConfig(
                    dataset="flare", score="max", generations=generations, seed=seed))
                best = outcome.result.best
                reference.append([
                    seed, 0, [float(ind.score) for ind in outcome.result.population],
                    float(best.score), float(best.information_loss),
                    float(best.disclosure_risk),
                ])
            self.reference = reference
        if rep.signature != self.reference:
            return [f"{self.name}: worker results differ from in-process run_experiment"]
        return []


class IslandsAdult(_ServiceWorkload):
    name = "islands-adult"
    jobs = 5  # four members and the merge job

    def submit_args(self) -> list[str]:
        generations, every = (4, 2) if self.smoke else (12, 4)
        return ["--dataset", "adult", "--score", "max",
                "--generations", str(generations), "--islands", "4",
                "--migrate-every", str(every), "--seed", str(self.seed)]

    def signature(self, records) -> object:
        rows = super().signature(records)
        merge = [r for r in records if r.result is not None
                 and (r.result.extras.get("island") or {}).get("role") == "merge"]
        front = merge[0].result.extras["island"]["front"] if merge else None
        return {"jobs": rows, "front": front}


WORKLOADS = {cls.name: cls for cls in (LibFlare, FleetFlare, IslandsAdult)}
