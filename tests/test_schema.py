"""Unit tests for DatasetSchema."""

from __future__ import annotations

import pytest

from repro.data import CategoricalDomain, DatasetSchema
from repro.exceptions import SchemaError


def make_schema() -> DatasetSchema:
    return DatasetSchema(
        [
            CategoricalDomain("A", ["a1", "a2"]),
            CategoricalDomain("B", ["b1", "b2", "b3"], ordinal=True),
        ]
    )


class TestConstruction:
    def test_basic_properties(self):
        schema = make_schema()
        assert schema.n_attributes == 2
        assert schema.attribute_names == ("A", "B")
        assert schema.cardinalities == (2, 3)
        assert len(schema) == 2

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            DatasetSchema([])

    def test_duplicate_names_rejected(self):
        domain = CategoricalDomain("A", ["x"])
        with pytest.raises(SchemaError):
            DatasetSchema([domain, domain])

    def test_iteration_order(self):
        schema = make_schema()
        assert [d.name for d in schema] == ["A", "B"]


class TestLookup:
    def test_index_of(self):
        schema = make_schema()
        assert schema.index_of("A") == 0
        assert schema.index_of("B") == 1

    def test_index_of_missing_raises(self):
        with pytest.raises(SchemaError, match="'Z'"):
            make_schema().index_of("Z")

    def test_domain_by_name_and_index(self):
        schema = make_schema()
        assert schema.domain("B").name == "B"
        assert schema.domain(0).name == "A"

    def test_domain_index_out_of_range(self):
        with pytest.raises(SchemaError):
            make_schema().domain(5)

    def test_subset_preserves_order(self):
        schema = make_schema().subset(["B", "A"])
        assert schema.attribute_names == ("B", "A")


class TestCompatibility:
    def test_compatible_with_self(self):
        schema = make_schema()
        schema.require_compatible(make_schema())

    def test_name_mismatch(self):
        other = DatasetSchema([CategoricalDomain("A", ["a1", "a2"])])
        with pytest.raises(SchemaError, match="attribute names differ"):
            make_schema().require_compatible(other)

    def test_domain_mismatch(self):
        other = DatasetSchema(
            [
                CategoricalDomain("A", ["a1", "a2"]),
                CategoricalDomain("B", ["b1", "b2", "b3"]),  # not ordinal
            ]
        )
        with pytest.raises(SchemaError, match="domain mismatch"):
            make_schema().require_compatible(other)

    @pytest.fixture
    def domain_comparisons(self, monkeypatch):
        calls = []
        original_eq = CategoricalDomain.__eq__

        def counting_eq(self, other):
            calls.append(self.name)
            return original_eq(self, other)

        monkeypatch.setattr(CategoricalDomain, "__eq__", counting_eq)
        return calls

    def test_same_object_compares_no_domain(self, domain_comparisons):
        schema = make_schema()
        schema.require_compatible(schema)
        assert domain_comparisons == []

    def test_equal_distinct_schema_compares_every_domain(self, domain_comparisons):
        make_schema().require_compatible(make_schema())
        assert domain_comparisons == ["A", "B"]

    def test_mismatch_still_raises_after_fast_path(self, domain_comparisons):
        schema = make_schema()
        schema.require_compatible(schema)
        other = DatasetSchema(
            [CategoricalDomain("A", ["a1", "a2"]), CategoricalDomain("B", ["b1", "b2", "b3"])]
        )
        with pytest.raises(SchemaError, match="domain mismatch"):
            schema.require_compatible(other)
        assert domain_comparisons == ["A", "B"]

    def test_equality_and_hash(self):
        assert make_schema() == make_schema()
        assert hash(make_schema()) == hash(make_schema())
