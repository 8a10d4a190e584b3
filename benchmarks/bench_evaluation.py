"""Fitness-pipeline benchmark — scalar loop vs batch vs process fan-out.

The batch-first refactor's claim: evaluating a fresh (uncached)
population through ``ProtectionEvaluator.evaluate_many`` is faster than
the scalar ``evaluate`` loop, because the batch path computes shared
intermediates once (stacked code tensors) and fits every candidate's
Fellegi–Sunter model in one call.  PRL rows take the certified interior
closed form or the certified boundary fit there, and the few EM rows
left (a zero pattern cell) are pooled across the batch.  This bench
measures fresh-population throughput at 2–3 dataset sizes on three
paths:

* ``serial``  — the scalar reference: ``[evaluator.evaluate(p) ...]``;
* ``batch``   — ``evaluate_many`` in-process (vectorized kernels);
* ``process`` — ``evaluate_many`` over a 2-worker process executor.

Every path must return byte-identical scores (asserted), every
population must send PRL rows down both closed-form routes, interior
and boundary (asserted, so the identity check covers mixed routing; the
EM count is printed, and the EM route's identity has its own unit
tests), and the batch
path must beat serial by ``>= 1.6x`` at the largest size.  The floor
sits between what the batch kernels buy and what the batch path
measures without them: at n=1066 on a 2-core x86 box the ratio was
1.8–2.1x in six runs, and 1.2–1.4x in three runs with every measure's
batch kernel replaced by its scalar loop.  Pooling buys no more than
that because the closed-form PRL fit and the per-cell linkage tables
serve the scalar path as well.  The process row is informational: on a
single-core box the pickling tax usually wins, which is exactly the
thread-vs-process guidance the README documents.

Sizes default to (300, 600, 1066) Flare records; set
``REPRO_BENCH_EVAL_SIZES=120`` (comma-separated) for the CI smoke run —
at toy sizes only the exactness assertions are enforced, not the
speedup floor.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_result

from repro import obs
from repro.data import CategoricalDataset
from repro.datasets import load_flare, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.metrics import ProtectionEvaluator
from repro.service.backends import create_backend

#: The speedup floor asserted at the largest benched size (see the docstring).
SPEEDUP_FLOOR = 1.6
#: Sizes below this only check exactness (CI smoke at toy scale).
FLOOR_MIN_SIZE = 1000


def _sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_EVAL_SIZES", "")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    return [300, 600, 1066]


def _population(size: int) -> tuple[CategoricalDataset, list[CategoricalDataset]]:
    full = load_flare()
    original = CategoricalDataset(full.codes[:size], full.schema,
                                  name=f"flare-{size}")
    return original, build_initial_population(original, dataset_name="flare", seed=0)


def _fresh_evaluator(original: CategoricalDataset, executor=None) -> ProtectionEvaluator:
    return ProtectionEvaluator(original, protected_attributes("flare"),
                               executor=executor)


def _observed_scores_and_routes(original: CategoricalDataset,
                population: list[CategoricalDataset]) -> tuple[list, dict[str, float]]:
    """Batch scores with telemetry on, and PRL rows per fit route.

    Untimed: the routes are read off ``repro_em_fits_total{method}``.
    """
    registry = obs.enable()
    registry.reset()
    try:
        scores = _fresh_evaluator(original).evaluate_many(population)
        routes = {
            counter["labels"]["method"]: counter["value"]
            for counter in registry.snapshot()["counters"]
            if counter["name"] == "repro_em_fits_total"
        }
    finally:
        obs.disable()
        registry.reset()
    return scores, routes


def test_bench_batch_evaluation_beats_serial():
    attrs_rows = []
    largest_speedup = 0.0
    largest_size = 0
    for size in _sizes():
        original, population = _population(size)

        evaluator = _fresh_evaluator(original)
        start = time.perf_counter()
        serial_scores = [evaluator.evaluate(p) for p in population]
        serial_s = time.perf_counter() - start

        evaluator = _fresh_evaluator(original)
        start = time.perf_counter()
        batch_scores = evaluator.evaluate_many(population)
        batch_s = time.perf_counter() - start

        evaluator = _fresh_evaluator(
            original, executor=create_backend("process", max_workers=2)
        )
        start = time.perf_counter()
        process_scores = evaluator.evaluate_many(population)
        process_s = time.perf_counter() - start

        # Whatever the path, the scores are byte-identical.
        assert batch_scores == serial_scores
        assert process_scores == serial_scores
        observed_scores, routes = _observed_scores_and_routes(original, population)
        assert observed_scores == serial_scores
        assert routes.get("closed_form", 0) > 0 and routes.get("boundary", 0) > 0, (
            f"n={size}: PRL fits took only {routes}; the identity checks "
            "must cover both the interior and the boundary closed form"
        )

        speedup = serial_s / batch_s if batch_s else float("inf")
        record_result("evaluation", f"serial-n{size}", serial_s)
        record_result("evaluation", f"batch-n{size}", batch_s, ratio=speedup)
        record_result("evaluation", f"process-n{size}", process_s)
        if size >= largest_size:
            largest_size, largest_speedup = size, speedup
        rate = len(population) / batch_s
        attrs_rows.append(
            f"n={size:5d}  pop={len(population):4d}  "
            f"serial={serial_s:6.2f}s  batch={batch_s:6.2f}s  "
            f"process={process_s:6.2f}s  batch-speedup={speedup:4.1f}x  "
            f"({rate:5.0f} cand/s batched)  "
            f"prl closed-form/boundary/em={routes['closed_form']:.0f}/"
            f"{routes['boundary']:.0f}/{routes.get('em', 0):.0f}"
        )

    emit("fresh-population evaluation: serial vs batch vs process", "\n".join(attrs_rows))
    if largest_size >= FLOOR_MIN_SIZE:
        assert largest_speedup >= SPEEDUP_FLOOR, (
            f"batch path only {largest_speedup:.1f}x at n={largest_size}; "
            f"the refactor's floor is {SPEEDUP_FLOOR}x"
        )


if __name__ == "__main__":  # pragma: no cover - manual runs
    test_bench_batch_evaluation_beats_serial()
