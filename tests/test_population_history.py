"""Unit tests for Population, EvolutionHistory and stopping rules."""

from __future__ import annotations

import pytest

from repro.core import (
    AnyOf,
    EvolutionHistory,
    GenerationRecord,
    Individual,
    MaxGenerations,
    Population,
    Stagnation,
    TargetScore,
)
from repro.exceptions import EvolutionError
from repro.metrics import ProtectionScore


def individual(dataset, il: float, dr: float) -> Individual:
    return Individual(dataset, ProtectionScore(il, dr, max(il, dr)))


def record(generation: int, max_s: float, mean_s: float, min_s: float, **kwargs) -> GenerationRecord:
    defaults = dict(
        operator="mutation", evaluations=1, fitness_seconds=0.01, other_seconds=0.001, accepted=True
    )
    defaults.update(kwargs)
    return GenerationRecord(generation, defaults["operator"], max_s, mean_s, min_s,
                            defaults["evaluations"], defaults["fitness_seconds"],
                            defaults["other_seconds"], defaults["accepted"])


class TestPopulation:
    def test_empty_rejected(self):
        with pytest.raises(EvolutionError):
            Population([])

    def test_best_worst(self, adult):
        pop = Population([individual(adult, 30, 30), individual(adult, 10, 10),
                          individual(adult, 20, 20)])
        assert pop.best().score == 10
        assert pop.worst().score == 30

    def test_leaders(self, adult):
        pop = Population([individual(adult, s, s) for s in (30, 10, 20, 40)])
        assert pop.leaders(2) == [1, 2]

    def test_leaders_bad_count(self, adult):
        with pytest.raises(EvolutionError):
            Population([individual(adult, 1, 1)]).leaders(0)

    def test_replace(self, adult):
        pop = Population([individual(adult, 30, 30)])
        pop.replace(0, individual(adult, 5, 5))
        assert pop.best().score == 5

    def test_replace_out_of_range(self, adult):
        with pytest.raises(EvolutionError):
            Population([individual(adult, 1, 1)]).replace(3, individual(adult, 1, 1))

    def test_score_summary(self, adult):
        pop = Population([individual(adult, s, s) for s in (10, 20, 30)])
        assert pop.score_summary() == (30.0, 20.0, 10.0)

    def test_dispersion(self, adult):
        pop = Population([individual(adult, 10, 30)])
        assert pop.dispersion() == [(10.0, 30.0)]

    def test_mean_imbalance(self, adult):
        pop = Population([individual(adult, 10, 30), individual(adult, 20, 20)])
        assert pop.mean_imbalance() == 10.0

    def test_snapshot_independent(self, adult):
        pop = Population([individual(adult, 10, 10)])
        snap = pop.snapshot()
        pop.replace(0, individual(adult, 99, 99))
        assert snap[0].score == 10

    def test_score_vector_follows_replace(self, adult):
        pop = Population([individual(adult, s, s) for s in (30, 10, 20)])
        before = pop.scores()
        pop.replace(0, individual(adult, 5, 5))
        assert before.tolist() == [30.0, 10.0, 20.0]
        assert pop.scores().tolist() == [ind.score for ind in pop] == [5.0, 10.0, 20.0]
        assert pop.score_summary() == (20.0, 35.0 / 3, 5.0)
        assert pop.leaders(3) == [0, 1, 2]
        # The vector handed out is a copy: writing to it changes nothing.
        pop.scores()[1] = -1.0
        assert pop.best().score == 5.0


class TestHistory:
    def test_series_accessors(self):
        history = EvolutionHistory()
        history.append(record(1, 50, 30, 10))
        history.append(record(2, 45, 28, 10))
        assert history.generations == [1, 2]
        assert history.max_scores == [50, 45]
        assert history.mean_scores == [30, 28]
        assert history.min_scores == [10, 10]

    def test_improvement(self):
        history = EvolutionHistory()
        history.append(record(1, 50, 40, 30))
        history.append(record(2, 40, 30, 30))
        initial, final, percent = history.improvement("max")
        assert (initial, final) == (50, 40)
        assert percent == pytest.approx(20.0)

    def test_improvement_empty_raises(self):
        with pytest.raises(ValueError):
            EvolutionHistory().improvement("max")

    def test_operator_timing_split(self):
        history = EvolutionHistory()
        history.append(record(1, 1, 1, 1, operator="mutation", fitness_seconds=0.2))
        history.append(record(2, 1, 1, 1, operator="crossover", fitness_seconds=0.4))
        history.append(record(3, 1, 1, 1, operator="crossover", fitness_seconds=0.6))
        timing = history.operator_timing()
        assert timing["mutation"]["generations"] == 1
        assert timing["crossover"]["generations"] == 2
        assert timing["crossover"]["fitness_seconds"] == pytest.approx(0.5)

    def test_acceptance_rate(self):
        history = EvolutionHistory()
        history.append(record(1, 1, 1, 1, accepted=True))
        history.append(record(2, 1, 1, 1, accepted=False))
        assert history.acceptance_rate() == 0.5

    def test_acceptance_rate_empty(self):
        assert EvolutionHistory().acceptance_rate() == 0.0


class TestStoppingRules:
    def _history(self, means: list[float]) -> EvolutionHistory:
        history = EvolutionHistory()
        for i, mean in enumerate(means, start=1):
            history.append(record(i, mean + 10, mean, mean - 10))
        return history

    def test_max_generations(self):
        rule = MaxGenerations(3)
        assert not rule.should_stop(self._history([30, 29]))
        assert rule.should_stop(self._history([30, 29, 28]))

    def test_max_generations_validation(self):
        with pytest.raises(EvolutionError):
            MaxGenerations(0)

    def test_stagnation_fires_on_plateau(self):
        rule = Stagnation(patience=3, min_delta=0.1)
        improving = self._history([30, 28, 26, 24, 22])
        assert not rule.should_stop(improving)
        plateau = self._history([30, 25, 25, 25, 25])
        assert rule.should_stop(plateau)

    def test_stagnation_needs_enough_history(self):
        rule = Stagnation(patience=10)
        assert not rule.should_stop(self._history([30, 30, 30]))

    def test_target_score(self):
        rule = TargetScore(15.0)
        assert not rule.should_stop(self._history([30]))
        assert rule.should_stop(self._history([30, 24]))  # min = 24-10 = 14

    def test_any_of(self):
        rule = AnyOf([MaxGenerations(2), TargetScore(0.0)])
        assert not rule.should_stop(self._history([30]))
        assert rule.should_stop(self._history([30, 29]))

    def test_any_of_empty(self):
        with pytest.raises(EvolutionError):
            AnyOf([])
