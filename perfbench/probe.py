"""Layer probes: time calls into each layer's public functions from outside.

The benchmark never edits the program.  In a traced run, the child process
imports this module, calls :func:`install` before the program starts, and
:func:`write_report` when it ends.  ``install`` replaces a fixed list of the
program's public functions and methods with thin wrappers that keep a
per-thread frame stack, so every wrapped call yields

* its layer's *self time* (duration minus the wrapped calls it made), which
  is what the layer accounting sums: self times never overlap, so their sum
  plus the unattributed rest is the run's wall time;
* a *group total* and call count, recorded for the outermost frame of the
  group only, so a nested call inside the same group (``CheckpointManager
  .save`` calling ``checkpoint_to_dict``) is never counted twice.

Wrappers are pure observers: they pass arguments and results through
unchanged, draw from no random stream, and add only clock reads.  Only the
main thread's frames feed the accounting; calls from helper threads (claim
heartbeats) are counted but not timed into a layer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

#: Layers in report order; every self time lands in exactly one of them.
LAYERS = (
    "cli",
    "core",
    "metrics",
    "linkage",
    "datasets",
    "experiments",
    "service.checkpoint",
    "service.store",
    "service.cache",
    "service.runner",
    "service.worker",
    "service.islands",
)


class Ledger:
    """Frame stacks, self times, group totals and counters of one process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_total_s: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.gen_seconds: list[float] = []
        self.evaluator_stats: dict[int, dict] = {}
        self.main_entry = 0.0
        self.install_s = 0.0
        self._local = threading.local()
        self._main = threading.main_thread()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, group: str, fn, args, kwargs):
        """Run ``fn`` inside a frame of ``layer`` / ``group``."""
        stack = self._stack()
        outermost = all(frame[1] != group for frame in stack)
        layer_outermost = all(frame[2] != layer for frame in stack)
        frame = [0.0, group, layer]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            if threading.current_thread() is self._main:
                self.self_s[layer] += duration - frame[0]
                if outermost:
                    self.total_s[group] += duration
                if layer_outermost:
                    self.layer_total_s[layer] += duration
            if outermost:
                self.calls[group] += 1
            if layer_outermost:
                self.layer_calls[layer] += 1

    def report(self) -> dict:
        stats = defaultdict(int)
        for snapshot in self.evaluator_stats.values():
            for key, value in snapshot.items():
                if key != "fresh_seconds":
                    stats[key] += value
        return {
            "self_s": {layer: self.self_s.get(layer, 0.0) for layer in LAYERS},
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "layer_total_s": dict(self.layer_total_s),
            "layer_calls": dict(self.layer_calls),
            "counts": dict(self.counts),
            "gen_seconds": self.gen_seconds,
            "evaluator_stats": dict(stats),
            "main_entry": self.main_entry,
            "install_s": self.install_s,
        }


LEDGER = Ledger()


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module alias of ``original`` at ``wrapper``.

    ``from x import f`` copies the binding, so patching the defining
    module alone would miss modules imported before :func:`install`.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def wrap_function(module, name: str, layer: str, group: str, after=None) -> None:
    """Wrap the module-level function ``module.name`` and all its aliases."""
    original = getattr(module, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = LEDGER.call(layer, group, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    _rebind(original, wrapper)


def wrap_method(cls, name: str, layer: str, group: str, after=None) -> None:
    """Wrap ``cls.name`` (a plain method defined on ``cls``)."""
    original = cls.__dict__[name]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = LEDGER.call(layer, group, original, args, kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(cls, name, wrapper)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count(key: str, amount: float = 1) -> None:
    LEDGER.counts[key] += amount


def _install_engine() -> None:
    from repro.core.engine import EvolutionaryProtector

    def collect(record) -> None:
        LEDGER.gen_seconds.append(record.fitness_seconds + record.other_seconds)

    for name in ("run", "resume"):
        original = EvolutionaryProtector.__dict__[name]
        signature = inspect.signature(original)

        def loop(*args, _original=original, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            chained = bound.arguments["on_generation"]

            def on_generation(record, _chained=chained):
                collect(record)
                if _chained is not None:
                    _chained(record)

            bound.arguments["on_generation"] = on_generation
            hook = bound.arguments["on_migration"]
            if hook is not None:
                def on_migration(*hook_args, _hook=hook):
                    return LEDGER.call("service.islands", "islands.exchange_hook",
                                       _hook, hook_args, {})

                bound.arguments["on_migration"] = on_migration
            return LEDGER.call("core", "core.ga_loop", _original,
                               bound.args, bound.kwargs)

        setattr(EvolutionaryProtector, name, functools.wraps(original)(loop))
    wrap_method(EvolutionaryProtector, "evaluate_initial", "metrics",
                "metrics.initial_score")


def _install_metrics() -> None:
    from repro.metrics import linkage_risk
    from repro.metrics.base import BoundMeasure
    from repro.metrics.evaluation import ProtectionEvaluator

    original_init = ProtectionEvaluator.__dict__["__init__"]
    serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counter = itertools.count()

    @functools.wraps(original_init)
    def init(self, *args, **kwargs):
        LEDGER.call("metrics", "metrics.evaluator_init", original_init,
                    (self,) + args, kwargs)
        serials[self] = next(counter)

    def after_batch(args, kwargs, result) -> None:
        # Snapshot the counters after every batch: evaluators die with
        # their run, long before the report is written.
        evaluator = args[0]
        LEDGER.evaluator_stats[serials.get(evaluator, -1)] = evaluator.stats()
        _count("metrics.batch_candidates", len(result))

    ProtectionEvaluator.__init__ = init
    wrap_method(ProtectionEvaluator, "evaluate_many", "metrics",
                "metrics.evaluate_many", after=after_batch)

    original_many = BoundMeasure.__dict__["compute_many"]

    @functools.wraps(original_many)
    def compute_many(self, *args, **kwargs):
        return LEDGER.call("metrics", f"metrics.measure.{self.measure_name}",
                           original_many, (self,) + args, kwargs)

    BoundMeasure.compute_many = compute_many
    wrap_function(linkage_risk, "fit_fellegi_sunter_many", "linkage",
                  "linkage.em_fit",
                  after=lambda args, kwargs, result: _count(
                      "linkage.em_rows", len(args[0])))


def _install_data_and_experiments() -> None:
    from repro.datasets import registry
    from repro.experiments import population_builder

    wrap_function(registry, "load_dataset", "datasets", "datasets.load")
    wrap_function(population_builder, "build_initial_population", "experiments",
                  "experiments.population_build")


def _install_service() -> None:
    from repro.service import checkpoint, islands, runner, worker
    from repro.service.cache import EvaluationCache
    from repro.service.sqlstore import SqliteJobStore
    from repro.service.store import STORE_PROTOCOL

    wrap_method(checkpoint.CheckpointManager, "save", "service.checkpoint",
                "checkpoint.save",
                after=lambda args, kwargs, result: _count(
                    "checkpoint.bytes", _file_size(args[0].path)))
    wrap_method(checkpoint.CheckpointManager, "load", "service.checkpoint",
                "checkpoint.load")
    wrap_function(checkpoint, "checkpoint_to_dict", "service.checkpoint",
                  "checkpoint.save")
    wrap_function(checkpoint, "checkpoint_from_dict", "service.checkpoint",
                  "checkpoint.load")
    wrap_function(islands, "_persist_island_checkpoint", "service.checkpoint",
                  "checkpoint.save",
                  after=lambda args, kwargs, result: _count(
                      "checkpoint.bytes",
                      _file_size(args[0].checkpoint_path(args[1].job_id))))

    claim_ops = {"claim", "claim_batch"}
    sync_ops = {"get_checkpoint", "put_checkpoint"}
    for op in STORE_PROTOCOL:
        if op not in SqliteJobStore.__dict__:
            continue
        group = ("store.claim" if op in claim_ops
                 else "store.checkpoint_sync" if op in sync_ops
                 else f"store.{op}")
        wrap_method(SqliteJobStore, op, "service.store", group)

    for op, group in (("__init__", "cache.open"), ("close", "cache.close"),
                      ("get", "cache.get"), ("get_many", "cache.get"),
                      ("put", "cache.put"), ("put_many", "cache.put")):
        wrap_method(EvaluationCache, op, "service.cache", group)

    wrap_method(runner.JobRunner, "run_settled", "service.runner", "runner.job")
    wrap_function(runner, "_execute_job_settled", "service.runner", "runner.execute")
    wrap_function(runner, "_execute_job", "service.runner", "runner.execute")
    wrap_method(worker.Worker, "run_once", "service.worker", "worker.drain")

    original_execute = islands.execute_island_job

    @functools.wraps(original_execute)
    def execute_island_job(payload):
        job = payload["job"]
        if int(job.get("island_index", 0)) < int(job.get("islands", 0)):
            _count("islands.segments")
        try:
            return LEDGER.call("service.islands", "islands.execute",
                               original_execute, (payload,), {})
        except islands.IslandParked:
            _count("islands.parks")
            raise

    _rebind(original_execute, execute_island_job)
    wrap_function(islands, "_execute_member_job", "service.islands", "islands.member")
    wrap_function(islands, "_execute_merge_job", "service.islands", "islands.merge")
    wrap_function(islands, "publish_migrants", "service.islands", "islands.exchange")
    wrap_function(islands, "read_round_migrants", "service.islands", "islands.exchange")


def _install_cli() -> None:
    from repro import cli

    original = cli.main

    @functools.wraps(original)
    def main(*args, **kwargs):
        LEDGER.main_entry = time.monotonic()
        return LEDGER.call("cli", "cli.main", original, args, kwargs)

    _rebind(original, main)


def install(service: bool = True) -> None:
    """Wrap every probed layer; ``service=False`` skips service and cli."""
    started = time.perf_counter()
    _install_engine()
    _install_metrics()
    _install_data_and_experiments()
    if service:
        _install_service()
        _install_cli()
    LEDGER.install_s = time.perf_counter() - started


def write_report(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(LEDGER.report(), handle)
