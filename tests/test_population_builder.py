"""Unit tests for the paper's initial-population builder."""

from __future__ import annotations

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro.datasets import load_dataset, protected_attributes
from repro.exceptions import ExperimentError
from repro.experiments import PAPER_MIXES, PopulationMix, build_initial_population, build_method_suite
from repro.experiments import population_builder
from repro.methods.base import ProtectionMethod


class TestPaperMixes:
    """The paper's §3 population counts, pinned exactly."""

    @pytest.mark.parametrize(
        "name,total", [("housing", 110), ("german", 104), ("flare", 104), ("adult", 86)]
    )
    def test_totals(self, name, total):
        assert PAPER_MIXES[name].total == total

    def test_housing_breakdown(self):
        mix = PAPER_MIXES["housing"]
        assert (mix.microaggregation, mix.bottom_coding, mix.top_coding,
                mix.global_recoding, mix.rank_swapping, mix.pram) == (72, 6, 6, 6, 11, 9)

    def test_adult_breakdown(self):
        mix = PAPER_MIXES["adult"]
        assert (mix.microaggregation, mix.bottom_coding, mix.top_coding,
                mix.global_recoding, mix.rank_swapping, mix.pram) == (48, 6, 6, 6, 11, 9)


class TestMethodSuite:
    def test_suite_counts_match_mix(self):
        attrs = protected_attributes("flare")
        mix = PAPER_MIXES["flare"]
        suite = build_method_suite(attrs, mix)
        assert len(suite) == mix.total
        by_family = {}
        for method in suite:
            by_family[method.method_name] = by_family.get(method.method_name, 0) + 1
        assert by_family["microaggregation"] == 72
        assert by_family["bottom_coding"] == 4
        assert by_family["top_coding"] == 4
        assert by_family["global_recoding"] == 4
        assert by_family["rank_swapping"] == 11
        assert by_family["pram"] + by_family["invariant_pram"] == 9

    def test_microaggregation_grid_balanced(self):
        attrs = protected_attributes("adult")
        suite = build_method_suite(attrs, PopulationMix(48, 0, 0, 0, 0, 0))
        ks = sorted({m.k for m in suite})
        assert ks == list(range(2, 10))  # 8 k-values x 6 variants = 48
        per_k = [sum(1 for m in suite if m.k == k) for k in ks]
        assert per_k == [6] * 8

    def test_configurations_distinct(self):
        attrs = protected_attributes("flare")
        suite = build_method_suite(attrs, PAPER_MIXES["flare"])
        descriptions = [(m.method_name, m.describe(), getattr(m, "sort_attributes", None))
                        for m in suite]
        assert len(set(map(str, descriptions))) == len(descriptions)


class TestBuildPopulation:
    @pytest.mark.parametrize("name", ["adult"])  # one full build is enough; others covered by mixes
    def test_full_paper_population(self, name):
        original = load_dataset(name)
        protections = build_initial_population(original, dataset_name=name, seed=0)
        assert len(protections) == PAPER_MIXES[name].total
        for masked in protections:
            original.require_compatible(masked)

    def test_population_deterministic(self, adult):
        a = build_initial_population(adult, dataset_name="adult", seed=5)
        b = build_initial_population(adult, dataset_name="adult", seed=5)
        assert all(x.equals(y) for x, y in zip(a, b))

    def test_population_varies_with_seed(self, adult):
        a = build_initial_population(adult, dataset_name="adult", seed=1)
        b = build_initial_population(adult, dataset_name="adult", seed=2)
        assert any(not x.equals(y) for x, y in zip(a, b))

    def test_explicit_attributes_and_mix(self, adult):
        mix = PopulationMix(4, 1, 1, 1, 2, 2)
        protections = build_initial_population(
            adult, attributes=["EDUCATION", "OCCUPATION"], mix=mix, seed=0
        )
        assert len(protections) == mix.total

    def test_requires_dataset_or_attributes(self, adult):
        with pytest.raises(ExperimentError):
            build_initial_population(adult)

    def test_unknown_dataset_name(self, adult):
        with pytest.raises(ExperimentError):
            build_initial_population(adult, dataset_name="mars")

    def test_protection_names_unique(self, adult):
        protections = build_initial_population(adult, dataset_name="adult", seed=0)
        names = [p.name for p in protections]
        assert len(set(names)) == len(names)


#: sha256 over every protection's ``(name, codes.tobytes())``, computed
#: with the per-group microaggregation loop and the per-record rank
#: swapping candidate list.  Any change to names, codes or RNG draws of
#: the initial population moves these.
GOLDEN_DIGESTS = {
    ("flare", 0): "02ec0df813503b1faee1312c0651e8583c46ba8244d7953080ab2cb735d5219c",
    ("flare", 7): "07444acc599d269cabdffedd4877bf7fbc9159e977e1b13c55257e9a7f901498",
    ("adult", 0): "7651b3f388eb0a956674215c8e77f95d82b0ecf32c60f3f59fea768954cb9e41",
    ("adult", 7): "bc850ba74545d164bb8c0a4ef703a152bce4ea423f748e55a9acfb4ef3d99b2d",
    ("german", 0): "b8499b1d6a9f1e1a6f5a8d26e68aa998551eded0da7b27c0c21a04499ca90bd0",
    ("german", 7): "59bbe7de4c525a0848d6ea18e05306ce449df7019e1f43991c47e60a8ce547e7",
    ("housing", 0): "df9f99cfb7dadabdba97d151009a8b19996ccac76b26d39a611aacfe3db1c247",
    ("housing", 7): "2342b408ee2e85a88b04be511cb289cd9015cd6d79d7e5877264951d33a8298e",
}


def population_digest(protections) -> str:
    digest = hashlib.sha256()
    for masked in protections:
        digest.update(masked.name.encode())
        digest.update(masked.codes.tobytes())
    return digest.hexdigest()


@pytest.fixture
def cold_memo(monkeypatch):
    """Start from an empty memo; the test's entries vanish with it."""
    monkeypatch.setattr(population_builder, "_MEMO", None)


@pytest.fixture
def protect_calls(monkeypatch, cold_memo):
    """Count every ``ProtectionMethod.protect`` call made by a build."""
    calls = []
    real = ProtectionMethod.protect

    def counting(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ProtectionMethod, "protect", counting)
    return calls


class TestGoldenPopulation:
    @pytest.mark.parametrize("name,seed", sorted(GOLDEN_DIGESTS))
    def test_digest_unchanged(self, name, seed, cold_memo):
        protections = build_initial_population(load_dataset(name), dataset_name=name, seed=seed)
        assert population_digest(protections) == GOLDEN_DIGESTS[(name, seed)]


SMALL_MIX = PopulationMix(2, 1, 1, 1, 1, 1)
SMALL_ATTRS = ("EDUCATION", "OCCUPATION")


def _build(original, seed=0, mix=SMALL_MIX, attributes=SMALL_ATTRS):
    return build_initial_population(original, attributes=attributes, mix=mix, seed=seed)


class TestPopulationMemo:
    def test_hit_calls_no_protect(self, adult, protect_calls):
        first = _build(adult)
        assert len(protect_calls) == SMALL_MIX.total
        protect_calls.clear()
        second = _build(adult)
        assert protect_calls == []
        assert [m.name for m in second] == [m.name for m in first]

    def test_hit_returns_new_list_of_same_datasets(self, adult, cold_memo):
        first = _build(adult)
        second = _build(adult)
        assert second is not first
        assert all(a is b for a, b in zip(first, second))
        second.pop()
        assert len(_build(adult)) == SMALL_MIX.total
        assert not first[0].codes.flags.writeable

    def test_numpy_integer_seed_shares_the_int_entry(self, adult, protect_calls):
        _build(adult, seed=3)
        protect_calls.clear()
        _build(adult, seed=np.int64(3))
        assert protect_calls == []

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_unseeded_and_generator_seeds_bypass(self, adult, protect_calls, seed):
        _build(adult, seed=3)
        protect_calls.clear()
        for _ in range(2):
            _build(adult, seed=np.random.default_rng(3) if seed == "generator" else None)
        assert len(protect_calls) == 2 * SMALL_MIX.total
        protect_calls.clear()
        _build(adult, seed=3)  # the bypassing builds left the entry alone
        assert protect_calls == []

    @pytest.mark.parametrize("change", ["seed", "mix", "attributes", "codes", "name"])
    def test_any_input_change_misses(self, adult, protect_calls, change):
        _build(adult)
        protect_calls.clear()
        if change == "seed":
            _build(adult, seed=1)
        elif change == "mix":
            _build(adult, mix=PopulationMix(2, 1, 1, 1, 1, 2))
        elif change == "attributes":
            _build(adult, attributes=SMALL_ATTRS[::-1])
        elif change == "codes":
            codes = adult.codes_copy()
            codes[0, 0] = (codes[0, 0] + 1) % adult.domain(0).size
            _build(adult.with_codes(codes))
        else:
            _build(adult.renamed("adult-copy"))
        assert protect_calls, f"a different {change} must rebuild"

    def test_holds_one_entry(self, adult, protect_calls):
        _build(adult, seed=1)
        _build(adult, seed=2)
        protect_calls.clear()
        _build(adult, seed=1)
        assert len(protect_calls) == SMALL_MIX.total

    def test_racing_threads_never_get_another_keys_population(self, adult, cold_memo):
        expected = {seed: population_digest(_build(adult, seed=seed)) for seed in (1, 2)}
        errors = []

        def hammer(offset):
            for step in range(12):
                seed = 1 + (offset + step) % 2
                if population_digest(_build(adult, seed=seed)) != expected[seed]:
                    errors.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
