"""Unit tests for the synthetic paper datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    PAPER_SPECS,
    AttributeSpec,
    SyntheticSpec,
    dataset_names,
    generate,
    load_dataset,
    protected_attributes,
)
from repro.exceptions import ExperimentError, SchemaError


class TestPaperSchemas:
    """The paper's §3 dataset descriptions, pinned exactly."""

    def test_dataset_names(self):
        assert dataset_names() == ("housing", "german", "flare", "adult")

    @pytest.mark.parametrize(
        "name,n_records,n_attributes",
        [("housing", 1000, 11), ("german", 1000, 13), ("flare", 1066, 13), ("adult", 1000, 8)],
    )
    def test_shapes(self, name, n_records, n_attributes):
        dataset = load_dataset(name)
        assert dataset.n_records == n_records
        assert dataset.n_attributes == n_attributes

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("housing", {"BUILT": 25, "DEGREE": 8, "GRADE1": 21}),
            ("german", {"EXISTACC": 5, "SAVINGS": 6, "PRESEMPLOY": 6}),
            ("flare", {"CLASS": 8, "LARGSPOT": 7, "SPOTDIST": 5}),
            ("adult", {"EDUCATION": 16, "MARITAL-STATUS": 7, "OCCUPATION": 14}),
        ],
    )
    def test_protected_attribute_cardinalities(self, name, expected):
        dataset = load_dataset(name)
        assert set(protected_attributes(name)) == set(expected)
        for attribute, cardinality in expected.items():
            assert dataset.domain(attribute).size == cardinality

    def test_deterministic(self):
        a = load_dataset("adult")
        b = load_dataset("adult")
        assert a.equals(b)

    def test_unknown_dataset(self):
        with pytest.raises(ExperimentError):
            load_dataset("nope")
        with pytest.raises(ExperimentError):
            protected_attributes("nope")

    @pytest.mark.parametrize("name", ["housing", "german", "flare", "adult"])
    def test_every_category_of_protected_attrs_plausible(self, name):
        # Protected attributes should have realistically skewed but not
        # degenerate marginals: at least 40% of categories observed.
        dataset = load_dataset(name)
        for attribute in protected_attributes(name):
            counts = dataset.value_counts(attribute)
            observed = (counts > 0).mean()
            assert observed >= 0.4, f"{name}.{attribute} uses only {observed:.0%} of categories"


class TestGenerator:
    def test_spec_validation_records(self):
        with pytest.raises(SchemaError):
            SyntheticSpec(name="x", n_records=0, attributes=(AttributeSpec("A", 2),))

    def test_spec_validation_duplicate_attrs(self):
        with pytest.raises(SchemaError):
            SyntheticSpec(
                name="x", n_records=1, attributes=(AttributeSpec("A", 2), AttributeSpec("A", 3))
            )

    def test_spec_validation_protected_subset(self):
        with pytest.raises(SchemaError):
            SyntheticSpec(
                name="x",
                n_records=1,
                attributes=(AttributeSpec("A", 2),),
                protected_attributes=("Z",),
            )

    def test_attribute_spec_labels_length(self):
        with pytest.raises(SchemaError):
            AttributeSpec("A", 3, labels=("one",))

    def test_custom_labels_used(self):
        spec = SyntheticSpec(
            name="x",
            n_records=10,
            attributes=(AttributeSpec("A", 2, labels=("no", "yes")),),
            seed=1,
        )
        assert generate(spec).domain("A").categories == ("no", "yes")

    def test_ordinal_attributes_unimodalish(self):
        # Ordinal class-conditional distributions should concentrate mass:
        # the top third of categories by frequency should hold most records.
        spec = SyntheticSpec(
            name="x",
            n_records=3000,
            attributes=(AttributeSpec("A", 9, ordinal=True),),
            n_latent_classes=1,
            seed=5,
        )
        counts = np.sort(generate(spec).value_counts("A"))[::-1]
        assert counts[:3].sum() > 0.5 * counts.sum()

    def test_latent_classes_induce_association(self):
        # With shared latent classes, two attributes should be measurably
        # associated (mutual information > 0 by a margin).
        spec = SyntheticSpec(
            name="x",
            n_records=4000,
            attributes=(AttributeSpec("A", 4), AttributeSpec("B", 4)),
            n_latent_classes=3,
            concentration=0.3,
            seed=9,
        )
        dataset = generate(spec)
        joint = np.zeros((4, 4))
        for a, b in zip(dataset.column("A"), dataset.column("B")):
            joint[a, b] += 1
        joint /= joint.sum()
        pa = joint.sum(axis=1, keepdims=True)
        pb = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(joint > 0, joint * np.log(joint / (pa * pb)), 0.0)
        mutual_information = terms.sum()
        assert mutual_information > 0.01

    def test_seed_changes_output(self):
        base = PAPER_SPECS["adult"]
        other = SyntheticSpec(
            name=base.name,
            n_records=base.n_records,
            attributes=base.attributes,
            n_latent_classes=base.n_latent_classes,
            seed=base.seed + 1,
            protected_attributes=base.protected_attributes,
        )
        assert not generate(base).equals(generate(other))


class TestLoadedOnce:
    """Each original is built once per process and shared."""

    def test_one_original_per_name(self):
        assert load_dataset("flare") is load_dataset("flare")

    def test_a_second_run_compares_no_domains(self, monkeypatch):
        # Candidates from the population memo share the original's
        # schema object, so every compatibility check is an identity hit.
        from dataclasses import replace

        from repro.data import CategoricalDomain
        from repro.experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(dataset="flare", generations=2, seed=8)
        run_experiment(config)
        compared: list[str] = []
        eq = CategoricalDomain.__eq__

        def counted(self, other):
            compared.append(self.name)
            return eq(self, other)

        monkeypatch.setattr(CategoricalDomain, "__eq__", counted)
        run_experiment(replace(config, seed=9))
        assert compared == []
