"""Unit tests for the Pareto multi-objective extension."""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.pareto import (
    ParetoEvolutionaryProtector,
    crowding_distance,
    dominates,
    non_dominated_sort,
)
from repro.datasets import load_flare, protected_attributes
from repro.exceptions import EvolutionError
from repro.experiments.population_builder import build_initial_population
from repro.metrics import ProtectionEvaluator
from repro.methods import Microaggregation, Pram, RankSwapping

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))

    def test_better_on_one_axis_dominates(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))

    def test_equal_does_not_dominate(self):
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_tradeoff_is_incomparable(self):
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        assert not dominates((3.0, 1.0), (1.0, 3.0))


class TestNonDominatedSort:
    def test_textbook_example(self):
        objectives = np.array(
            [
                [1.0, 5.0],  # front 0
                [2.0, 3.0],  # front 0
                [4.0, 1.0],  # front 0
                [3.0, 4.0],  # front 1 (dominated by [2,3])
                [5.0, 5.0],  # front 2 (dominated by [3,4] too)
            ]
        )
        fronts = non_dominated_sort(objectives)
        assert sorted(fronts[0].tolist()) == [0, 1, 2]
        assert fronts[1].tolist() == [3]
        assert fronts[2].tolist() == [4]

    def test_all_identical_single_front(self):
        fronts = non_dominated_sort(np.ones((4, 2)))
        assert len(fronts) == 1
        assert sorted(fronts[0].tolist()) == [0, 1, 2, 3]

    def test_fronts_partition_population(self):
        rng = np.random.default_rng(0)
        objectives = rng.uniform(size=(25, 2))
        fronts = non_dominated_sort(objectives)
        indices = sorted(i for front in fronts for i in front.tolist())
        assert indices == list(range(25))

    def test_no_front_member_dominated_within_front(self):
        rng = np.random.default_rng(1)
        objectives = rng.uniform(size=(20, 2))
        for front in non_dominated_sort(objectives):
            for i in front:
                for j in front:
                    if i != j:
                        assert not dominates(
                            tuple(objectives[int(i)]), tuple(objectives[int(j)])
                        )

    def test_empty_rejected(self):
        with pytest.raises(EvolutionError):
            non_dominated_sort(np.empty((0, 2)))


class TestCrowdingDistance:
    def test_boundaries_infinite(self):
        objectives = np.array([[0.0, 4.0], [1.0, 3.0], [2.0, 2.0], [4.0, 0.0]])
        distances = crowding_distance(objectives)
        assert np.isinf(distances[0]) and np.isinf(distances[3])
        assert np.isfinite(distances[1]) and np.isfinite(distances[2])

    def test_two_points_both_infinite(self):
        assert np.isinf(crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))).all()

    def test_denser_point_smaller_distance(self):
        # Point 1 is squeezed between close neighbours; point 2 has room.
        objectives = np.array([[0.0, 10.0], [1.0, 9.0], [5.0, 5.0], [10.0, 0.0]])
        distances = crowding_distance(objectives)
        assert distances[1] < distances[2]

    def test_degenerate_objective_ignored(self):
        objectives = np.array([[1.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        distances = crowding_distance(objectives)
        assert np.isfinite(distances[1])


class TestParetoEngine:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.data import CategoricalDataset
        from repro.datasets import load_adult

        full = load_adult()
        small = CategoricalDataset(full.codes[:100], full.schema, name="adult-tiny")
        protections = [Pram(theta=t).protect(small, ATTRS, seed=i)
                       for i, t in enumerate((0.1, 0.3, 0.5))]
        protections += [RankSwapping(p=p).protect(small, ATTRS, seed=p) for p in (3, 8)]
        protections += [Microaggregation(k=k).protect(small, ATTRS) for k in (3, 6)]
        evaluator = ProtectionEvaluator(small, ATTRS)
        return small, protections, evaluator

    def test_run_returns_valid_front(self, setup):
        __, protections, evaluator = setup
        engine = ParetoEvolutionaryProtector(evaluator, seed=0)
        result = engine.run(protections, generations=40)
        assert len(result.population) == len(protections)
        assert 1 <= len(result.front) <= len(protections)
        # No front member dominates another.
        pairs = [(ind.information_loss, ind.disclosure_risk) for ind in result.front]
        for a in pairs:
            for b in pairs:
                if a != b:
                    assert not dominates(a, b)

    def test_front_objectives_sorted(self, setup):
        __, protections, evaluator = setup
        engine = ParetoEvolutionaryProtector(evaluator, seed=1)
        result = engine.run(protections, generations=30)
        objectives = result.front_objectives()
        assert objectives == sorted(objectives)

    def test_deterministic(self, setup):
        __, protections, evaluator = setup
        res_a = ParetoEvolutionaryProtector(evaluator, seed=2).run(protections, generations=25)
        res_b = ParetoEvolutionaryProtector(evaluator, seed=2).run(protections, generations=25)
        assert res_a.front_objectives() == res_b.front_objectives()

    def test_front_never_regresses_on_extremes(self, setup):
        """The best-IL point of the final front is at least as good as the
        best initial IL (dominated offspring are never accepted blindly)."""
        __, protections, evaluator = setup
        initial_best_il = min(
            evaluator.evaluate(p).information_loss for p in protections
        )
        result = ParetoEvolutionaryProtector(evaluator, seed=3).run(protections, generations=50)
        final_best_il = min(ind.information_loss for ind in result.front)
        assert final_best_il <= initial_best_il + 1e-9

    def test_validation(self, setup):
        __, protections, evaluator = setup
        with pytest.raises(EvolutionError):
            ParetoEvolutionaryProtector(evaluator, mutation_probability=2.0)
        engine = ParetoEvolutionaryProtector(evaluator, seed=0)
        with pytest.raises(EvolutionError):
            engine.run(protections, generations=0)
        with pytest.raises(EvolutionError):
            engine.run(protections[:1], generations=5)

    def test_front_sizes_recorded(self, setup):
        __, protections, evaluator = setup
        result = ParetoEvolutionaryProtector(evaluator, seed=4).run(protections, generations=20)
        assert len(result.front_sizes) == 20
        assert all(size >= 1 for size in result.front_sizes)

    def test_generations_publish_with_telemetry_on(self, setup):
        __, protections, evaluator = setup
        registry = obs.enable()
        registry.reset()
        stream = io.StringIO()
        obs.configure_events(stream)
        try:
            result = ParetoEvolutionaryProtector(evaluator, seed=5).run(
                protections, generations=12)
            gauges = {entry["name"]: entry["value"]
                      for entry in registry.snapshot()["gauges"]}
        finally:
            obs.disable()
            registry.reset()
            obs.configure_events(None)
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        pareto = [e for e in events if e["event"] == "pareto_generation"]
        generation = [e for e in events if e["event"] == "generation"]
        assert [e["generation"] for e in pareto] == list(range(1, 13))
        assert [e["front_size"] for e in pareto] == result.front_sizes
        assert [e["generation"] for e in generation] == list(range(1, 13))
        assert gauges["repro_pareto_front_size"] == result.front_sizes[-1]


# -- goldens ------------------------------------------------------------------
#
# ``tests/data/pareto_goldens.json`` was computed by the Pareto GA's own
# steady-state loop, before it ran on :func:`repro.core.engine.run_lockstep`,
# so it pins the one-loop engine == that loop, bit for bit.  Regenerate it
# (``python tests/test_pareto.py``) only for a change that is meant to move
# results, such as a metric-kernel bump.

GOLDENS = Path(__file__).parent / "data" / "pareto_goldens.json"

#: ``repro pareto --dataset flare --generations 100 --seed S``, per seed.
GOLDEN_SEEDS = (7, 11)
GOLDEN_GENERATIONS = 100


def pareto_surface(seed: int) -> dict:
    """Front, front sizes and final members of one seeded flare run."""
    original = load_flare()
    evaluator = ProtectionEvaluator(original, protected_attributes("flare"))
    protections = build_initial_population(original, dataset_name="flare", seed=0)
    result = ParetoEvolutionaryProtector(evaluator, seed=seed).run(
        protections, generations=GOLDEN_GENERATIONS)
    return {
        "front": [list(pair) for pair in result.front_objectives()],
        "front_sizes": list(result.front_sizes),
        "population": [[ind.dataset.digest(), ind.information_loss, ind.disclosure_risk,
                        ind.origin, ind.birth_generation] for ind in result.population],
    }


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_flare_run_matches_the_golden(seed):
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))[f"seed-{seed}"]
    assert pareto_surface(seed) == golden


if __name__ == "__main__":
    payload = {f"seed-{seed}": pareto_surface(seed) for seed in GOLDEN_SEEDS}
    GOLDENS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDENS}")
