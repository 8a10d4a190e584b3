"""Perf ledger: wall time to a protected release, split by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload lib-flare --seed 1 --seconds 30 --trace 0

The workloads (``lib-flare``, ``fleet-flare``, ``islands-adult``) are
described in :mod:`workloads`.  A run repeats its workload, each time from
fresh state and fresh processes, until ``--seconds`` have passed (at least
three repetitions), and reports the median of each end-to-end metric:

* ``setup_s``: fresh state, interpreter start and imports, plus the
  ``submit --detach`` process where there is one;
* ``wall_s``: start of the timed phase until the last result is durable;
* ``cpu_s`` / ``peak_rss_mb``: user+sys time and peak RSS of the process
  running the GA, read from its own ``os.wait4`` usage;
* ``state_mb``: bytes left in the state directory;
* ``success_rate``: completed jobs / jobs submitted.

Which layer metric should move which end-to-end metric, where:

* ``core.*``, ``linkage.*``, ``metrics.*``: ``wall_s`` and ``cpu_s`` on
  ``lib-flare`` (singleton batches, flare) and ``islands-adult`` (batches
  of the whole population during initial scoring, adult's measures);
* ``datasets.*``, ``experiments.*``, ``service.cache.*``,
  ``service.runner.*``, ``service.worker.*``: ``wall_s`` on
  ``fleet-flare``, which builds the initial population four times;
* ``service.checkpoint.*`` and ``service.store.*``: ``wall_s``, ``cpu_s``
  and ``state_mb`` on ``fleet-flare`` (writes) and ``islands-adult``
  (writes and reads); zero on ``lib-flare``;
* ``service.islands.*``: ``wall_s`` on ``islands-adult`` only;
* ``cli.*``: ``setup_s`` and ``wall_s`` on the two service workloads.

With ``--trace 1`` the run adds one traced repetition (layer probes from
:mod:`probe` plus the program's own span tracing) and reports the per-layer
metrics instead.  Every run checks its outputs: repetitions agree with each
other, the traced repetition returns the untraced scores, ``fleet-flare``
jobs equal an in-process ``run_experiment`` bit for bit, and the layer self
times plus the unattributed rest sum to the traced wall time.
``obs.span_coverage_frac`` is the share of the program's ``repro.run``
spans (on ``lib-flare``, of the timed phase) that their own child spans
cover; ``obs.trace_overhead_frac`` compares the single traced repetition
with the untraced median, so it carries one sample's noise.

``--smoke`` shrinks every workload to toy size; ``--out PATH`` appends the
result row, with the machine facts, to a JSON-lines file.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Rep  # noqa: E402

MIN_REPS = 3
#: Stop starting repetitions after this long, whatever ``--seconds`` says.
REP_BUDGET_S = 110.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "state_mb": "MB",
    "success_rate": "frac",
}

MEASURES = ("ctbil", "dbil", "ebil", "interval_disclosure", "dbrl", "prl", "rsrl")

LAYER_UNITS = {
    "core.ga_loop_s": "s",
    "core.self_s": "s",
    "core.generations": "count",
    "core.gen_ms_p50": "ms",
    "core.gen_ms_p95": "ms",
    "metrics.self_s": "s",
    "metrics.initial_score_s": "s",
    "metrics.evaluate_many_calls": "count",
    "metrics.evaluate_many_s": "s",
    "metrics.batch_size_mean": "count",
    "metrics.fresh_evaluations": "count",
    "metrics.memo_hit_ratio": "frac",
    "metrics.persistent_hit_ratio": "frac",
    **{f"metrics.measure.{name}_s": "s" for name in MEASURES},
    "linkage.self_s": "s",
    "linkage.em_fit_s": "s",
    "linkage.em_fits": "count",
    "linkage.em_rows": "count",
    "datasets.self_s": "s",
    "datasets.load_s": "s",
    "experiments.self_s": "s",
    "experiments.population_build_s": "s",
    "service.checkpoint.self_s": "s",
    "service.checkpoint.saves": "count",
    "service.checkpoint.save_s": "s",
    "service.checkpoint.bytes": "bytes",
    "service.checkpoint.loads": "count",
    "service.checkpoint.load_s": "s",
    "service.store.self_s": "s",
    "service.store.ops": "count",
    "service.store.busy_s": "s",
    "service.store.claim_s": "s",
    "service.store.checkpoint_sync_s": "s",
    "service.cache.self_s": "s",
    "service.cache.get_s": "s",
    "service.cache.put_s": "s",
    "service.cache.bytes": "bytes",
    "service.runner.self_s": "s",
    "service.runner.job_s": "s",
    "service.worker.self_s": "s",
    "service.worker.overhead_s": "s",
    "service.worker.heartbeats": "count",
    "service.islands.self_s": "s",
    "service.islands.segments": "count",
    "service.islands.parks": "count",
    "service.islands.exchange_s": "s",
    "service.islands.merge_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "obs.probe_s": "s",
    "obs.trace_overhead_frac": "frac",
    "obs.span_coverage_frac": "frac",
    "unattributed_frac": "frac",
}


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(share * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(rep: Rep, untraced_wall: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced repetition, plus accounting errors."""
    report = rep.probe or {}
    self_s = report.get("self_s", {})
    total = report.get("total_s", {})
    calls = report.get("calls", {})
    counts = report.get("counts", {})
    stats = report.get("evaluator_stats", {})
    gen_ms = [1000.0 * s for s in report.get("gen_seconds", [])]

    startup = 0.0
    if report.get("main_entry"):
        startup = report["main_entry"] - rep.spawn - report.get("install_s", 0.0)
    evaluations = stats.get("evaluations", 0)
    memo = stats.get("memo_hits", 0)
    persistent = stats.get("persistent_hits", 0)
    batches = calls.get("metrics.evaluate_many", 0)
    heartbeats = calls.get("store.heartbeat", 0)
    drain = total.get("worker.drain", 0.0)
    job = total.get("runner.job", 0.0)

    values = {
        "core.ga_loop_s": total.get("core.ga_loop", 0.0),
        "core.self_s": self_s.get("core", 0.0),
        "core.generations": len(gen_ms),
        "core.gen_ms_p50": percentile(gen_ms, 0.50),
        "core.gen_ms_p95": percentile(gen_ms, 0.95),
        "metrics.self_s": self_s.get("metrics", 0.0),
        "metrics.initial_score_s": total.get("metrics.initial_score", 0.0),
        "metrics.evaluate_many_calls": batches,
        "metrics.evaluate_many_s": total.get("metrics.evaluate_many", 0.0),
        "metrics.batch_size_mean": (
            counts.get("metrics.batch_candidates", 0) / batches if batches else 0.0),
        "metrics.fresh_evaluations": evaluations,
        "metrics.memo_hit_ratio": (
            memo / (memo + persistent + evaluations)
            if memo + persistent + evaluations else 0.0),
        "metrics.persistent_hit_ratio": (
            persistent / (persistent + evaluations) if persistent + evaluations else 0.0),
        **{f"metrics.measure.{name}_s": total.get(f"metrics.measure.{name}", 0.0)
           for name in MEASURES},
        "linkage.self_s": self_s.get("linkage", 0.0),
        "linkage.em_fit_s": total.get("linkage.em_fit", 0.0),
        "linkage.em_fits": calls.get("linkage.em_fit", 0),
        "linkage.em_rows": counts.get("linkage.em_rows", 0),
        "datasets.self_s": self_s.get("datasets", 0.0),
        "datasets.load_s": total.get("datasets.load", 0.0),
        "experiments.self_s": self_s.get("experiments", 0.0),
        "experiments.population_build_s": total.get("experiments.population_build", 0.0),
        "service.checkpoint.self_s": self_s.get("service.checkpoint", 0.0),
        "service.checkpoint.saves": calls.get("checkpoint.save", 0),
        "service.checkpoint.save_s": total.get("checkpoint.save", 0.0),
        "service.checkpoint.bytes": counts.get("checkpoint.bytes", 0),
        "service.checkpoint.loads": calls.get("checkpoint.load", 0),
        "service.checkpoint.load_s": total.get("checkpoint.load", 0.0),
        "service.store.self_s": self_s.get("service.store", 0.0),
        "service.store.ops": report.get("layer_calls", {}).get("service.store", 0),
        "service.store.busy_s": report.get("layer_total_s", {}).get("service.store", 0.0),
        "service.store.claim_s": total.get("store.claim", 0.0),
        "service.store.checkpoint_sync_s": total.get("store.checkpoint_sync", 0.0),
        "service.cache.self_s": self_s.get("service.cache", 0.0),
        "service.cache.get_s": total.get("cache.get", 0.0),
        "service.cache.put_s": total.get("cache.put", 0.0),
        "service.cache.bytes": rep.cache_bytes,
        "service.runner.self_s": self_s.get("service.runner", 0.0),
        "service.runner.job_s": job,
        "service.worker.self_s": self_s.get("service.worker", 0.0),
        "service.worker.overhead_s": max(0.0, drain - job),
        "service.worker.heartbeats": heartbeats,
        "service.islands.self_s": self_s.get("service.islands", 0.0),
        "service.islands.segments": counts.get("islands.segments", 0),
        "service.islands.parks": counts.get("islands.parks", 0),
        "service.islands.exchange_s": total.get("islands.exchange", 0.0),
        "service.islands.merge_s": total.get("islands.merge", 0.0),
        "cli.self_s": startup + self_s.get("cli", 0.0),
        "cli.startup_s": startup,
        "obs.probe_s": report.get("install_s", 0.0),
        "obs.trace_overhead_frac": rep.wall_s / untraced_wall - 1.0,
        "obs.span_coverage_frac": (
            rep.covered_seconds / rep.run_seconds if rep.run_seconds else 0.0),
    }
    # Layer accounting: self times never overlap, so they plus the
    # unattributed rest must make up the traced wall time exactly.  The
    # probe install falls inside the timed phase only for a cli child.
    attributed = sum(value for name, value in values.items()
                     if name.endswith(".self_s"))
    if report.get("main_entry"):
        attributed += values["obs.probe_s"]
    unattributed = rep.wall_s - attributed
    values["unattributed_frac"] = unattributed / rep.wall_s if rep.wall_s else 0.0
    errors = []
    if unattributed < -0.005 * rep.wall_s:
        errors.append(f"layer self times {attributed:.4f}s exceed the traced "
                      f"wall time {rep.wall_s:.4f}s")
    return values, errors


def machine_facts(root: Path, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "seed": seed,
    }


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes: every workload finishes in seconds")
    parser.add_argument("--out", default="",
                        help="append the result row with machine facts to this JSON-lines file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # Byte-compile up front so the first repetition's start-up matches the rest.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    seed = args.seed % 1_000_000
    # A terminated run still stops its child and removes its state.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / ".perfbench_state" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, root, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, root: Path, work: Path, seed: int) -> int:
    workload = WORKLOADS[args.workload](root, work, seed, args.smoke)
    facts = machine_facts(root, seed)
    errors: list[str] = []
    reps: list[Rep] = []
    started = time.monotonic()
    while True:
        rep = workload.rep(traced=False)
        reps.append(rep)
        errors.extend(rep.errors)
        elapsed = time.monotonic() - started
        if rep.errors or elapsed >= REP_BUDGET_S:
            break
        if len(reps) >= (2 if args.smoke else MIN_REPS) and elapsed >= args.seconds:
            break

    good = [rep for rep in reps if not rep.errors]
    if good:
        first = good[0].signature
        if any(rep.signature != first for rep in good[1:]):
            errors.append(f"{workload.name}: repetitions returned different results")
        errors.extend(workload.check_reference(good[0]))

    traced = None
    if args.trace and good:
        traced = workload.rep(traced=True)
        errors.extend(traced.errors)
        if not traced.errors and traced.signature != good[0].signature:
            errors.append(f"{workload.name}: the traced run returned other scores")

    all_reps = reps + ([traced] if traced is not None else [])
    attempted = sum(rep.jobs for rep in all_reps)
    failed = attempted - sum(rep.jobs_ok for rep in all_reps)

    print(f"# {workload.name}: {len(reps)} repetitions in "
          f"{time.monotonic() - started:.1f}s; machine {json.dumps(facts)}")
    metrics: dict[str, dict] = {}
    if good:
        samples = {
            "setup_s": [rep.setup_s for rep in good],
            "wall_s": [rep.wall_s for rep in good],
            "cpu_s": [rep.cpu_s for rep in good],
            "peak_rss_mb": [rep.peak_rss_mb for rep in good],
            "state_mb": [rep.state_mb for rep in good],
            "success_rate": [sum(r.jobs_ok for r in reps) / sum(r.jobs for r in reps)],
        }
        for name, values in samples.items():
            print(f"#   {name:<14} median {statistics.median(values):.6g} "
                  f"{END_TO_END_UNITS[name]}  (n={len(values)}, min {min(values):.6g}, "
                  f"max {max(values):.6g})")
        if not args.trace:
            metrics = {name: {"value": statistics.median(values),
                              "unit": END_TO_END_UNITS[name]}
                       for name, values in samples.items()}
        elif traced is not None and not traced.errors:
            values, accounting = layer_metrics(
                traced, statistics.median(samples["wall_s"]))
            errors.extend(accounting)
            largest = max((name for name in values if name.endswith(".self_s")),
                          key=values.get)
            print(f"#   traced wall {traced.wall_s:.4f}s = layer self times + "
                  f"unattributed ({values['unattributed_frac']:.1%}); "
                  f"largest layer {largest} {values[largest]:.4f}s")
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in LAYER_UNITS.items()}
            for name, entry in metrics.items():
                print(f"#   {name:<38} {entry['value']:.6g} {entry['unit']}")
    for error in errors:
        print(f"# ERROR {error}")

    result = {"correct": not errors and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        row = {"workload": workload.name, "trace": args.trace, "smoke": args.smoke,
               "machine": facts, "samples": samples if good else {}, **result}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
