"""Telemetry overhead benchmark — the pure-observer cost ceiling.

The observability layer's standing claim: telemetry *on* (registry
recording, events counting, instrumented hot paths) costs less than the
run-to-run noise floor of the evaluation pipeline.  This bench runs the
same fresh-population ``evaluate_many`` workload in rounds of three
back-to-back legs — telemetry disabled, telemetry enabled, and *traced*
(the same workload inside an active trace scope, so ``repro.eval.batch``
spans actually record; a scope-less leg would measure the no-op fast
path and prove nothing) — and asserts:

* scores are byte-identical between the states (the determinism
  contract, cheap to re-check here);
* the median over rounds of each round's enabled / disabled time ratio,
  and of its traced / disabled ratio, is within ``OVERHEAD_CEILING``.

Each ratio compares legs run seconds apart, so machine-wide drift
(thermal state, a neighbour's load) cancels within the round instead
of loading one side of a comparison of medians taken over the whole
run; the order of the three legs rotates each round, so no state
always runs first, after the warmup or after another state.  Sizes follow
``bench_evaluation.py``: ``REPRO_BENCH_EVAL_SIZES=120`` gives the CI
smoke run, where only toy sizes run but the ceiling is still asserted.
"""

from __future__ import annotations

import os
import statistics
import time

from conftest import emit, record_result

from repro import obs
from repro.data import CategoricalDataset
from repro.obs import trace as obs_trace
from repro.datasets import load_flare, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.metrics import ProtectionEvaluator

#: The median per-round enabled / disabled (and traced / disabled) time
#: ratio must stay within this factor.
OVERHEAD_CEILING = 1.03
#: Rounds of off / on / traced legs; the median ratio is robust to a few
#: noisy rounds.
LEGS = 31
#: The states one round runs, as ``(enabled, traced)``.
STATES = {"off": (False, False), "on": (True, False), "traced": (True, True)}


def _sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_EVAL_SIZES", "")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    return [300, 600]


def _population(size: int) -> tuple[CategoricalDataset, list[CategoricalDataset]]:
    full = load_flare()
    original = CategoricalDataset(full.codes[:size], full.schema,
                                  name=f"flare-{size}")
    return original, build_initial_population(original, dataset_name="flare", seed=0)


def _timed_leg(original, population, enabled: bool, traced: bool = False):
    if enabled:
        obs.enable()
    else:
        obs.disable()
    obs.get_registry().reset()
    evaluator = ProtectionEvaluator(original, protected_attributes("flare"))
    scope = None
    if traced:
        obs_trace.enable_tracing(sample_rate=1.0)
        scope = obs_trace.activate(obs_trace.new_trace_id())
    try:
        start = time.perf_counter()
        scores = evaluator.evaluate_many(population)
        seconds = time.perf_counter() - start
    finally:
        if scope is not None:
            spans = obs_trace.deactivate(scope)
            obs_trace.disable_tracing()
            # The leg must have measured a live tracer, not the no-op path.
            assert spans, "traced leg recorded no spans"
        else:
            obs_trace.disable_tracing()
    return seconds, scores


def test_bench_telemetry_overhead_below_ceiling():
    rows = []
    worst = 0.0
    try:
        for size in _sizes():
            original, population = _population(size)
            _, baseline_scores = _timed_leg(original, population, enabled=False)  # warmup
            times = {state: [] for state in STATES}
            names = list(STATES)
            for round_ in range(LEGS):
                shift = round_ % len(names)
                for state in names[shift:] + names[:shift]:
                    enabled, traced = STATES[state]
                    seconds, scores = _timed_leg(original, population, enabled, traced)
                    times[state].append(seconds)
                    # Telemetry is a pure observer: identical scores either way.
                    assert scores == baseline_scores
            off, on, traced = times["off"], times["on"], times["traced"]
            ratio = statistics.median(a / b for a, b in zip(on, off))
            traced_ratio = statistics.median(a / b for a, b in zip(traced, off))
            record_result("telemetry", f"off-n{size}", statistics.median(off))
            record_result("telemetry", f"on-n{size}", statistics.median(on),
                          ratio=ratio)
            record_result("telemetry", f"traced-n{size}",
                          statistics.median(traced), ratio=traced_ratio)
            worst = max(worst, ratio, traced_ratio)
            rows.append(
                f"n={size:5d}  pop={len(population):4d}  "
                f"off={statistics.median(off) * 1000:7.1f}ms  "
                f"on={statistics.median(on) * 1000:7.1f}ms  "
                f"traced={statistics.median(traced) * 1000:7.1f}ms  "
                f"overhead={100 * (ratio - 1):+5.1f}%  "
                f"traced={100 * (traced_ratio - 1):+5.1f}%"
            )
    finally:
        obs.disable()
        obs_trace.disable_tracing()
        obs.get_registry().reset()

    emit("telemetry overhead: evaluate_many with registry off / on / traced",
         "\n".join(rows))
    assert worst <= OVERHEAD_CEILING, (
        f"telemetry overhead {100 * (worst - 1):.1f}% exceeds the "
        f"{100 * (OVERHEAD_CEILING - 1):.0f}% ceiling"
    )


if __name__ == "__main__":  # pragma: no cover - manual runs
    test_bench_telemetry_overhead_below_ceiling()
