"""Unit tests for CategoricalDataset."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.exceptions import SchemaError
from repro.experiments.population_builder import build_initial_population


class TestConstruction:
    def test_shape_properties(self, tiny_dataset):
        assert tiny_dataset.n_records == 12
        assert tiny_dataset.n_attributes == 3
        assert tiny_dataset.n_cells == 36
        assert tiny_dataset.attribute_names == ("COLOR", "SIZE", "SHAPE")

    def test_codes_are_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.codes[0, 0] = 1

    def test_constructor_copies_input(self, tiny_schema):
        codes = np.zeros((2, 3), dtype=np.int64)
        dataset = CategoricalDataset(codes, tiny_schema)
        codes[0, 0] = 2
        assert dataset.codes[0, 0] == 0

    def test_wrong_dimensionality_rejected(self, tiny_schema):
        with pytest.raises(SchemaError):
            CategoricalDataset(np.zeros(3, dtype=np.int64), tiny_schema)

    def test_wrong_column_count_rejected(self, tiny_schema):
        with pytest.raises(SchemaError):
            CategoricalDataset(np.zeros((2, 2), dtype=np.int64), tiny_schema)

    def test_out_of_domain_codes_rejected(self, tiny_schema):
        codes = np.zeros((2, 3), dtype=np.int64)
        codes[1, 0] = 99
        with pytest.raises(Exception):
            CategoricalDataset(codes, tiny_schema)

    def test_from_labels_roundtrip(self, tiny_schema):
        rows = [["red", "M", "round"], ["blue", "XL", "square"]]
        dataset = CategoricalDataset.from_labels(rows, tiny_schema)
        assert dataset.to_labels() == rows

    def test_from_labels_bad_row_length(self, tiny_schema):
        with pytest.raises(SchemaError):
            CategoricalDataset.from_labels([["red", "M"]], tiny_schema)

    def test_from_columns_infers_domains(self):
        dataset = CategoricalDataset.from_columns(
            {"A": ["x", "y", "x"], "B": ["1", "2", "3"]}, ordinal=["B"]
        )
        assert dataset.n_records == 3
        assert dataset.domain("A").categories == ("x", "y")
        assert dataset.domain("B").ordinal

    def test_from_columns_unequal_lengths(self):
        with pytest.raises(SchemaError):
            CategoricalDataset.from_columns({"A": ["x"], "B": ["1", "2"]})

    def test_from_columns_unknown_ordinal(self):
        with pytest.raises(SchemaError):
            CategoricalDataset.from_columns({"A": ["x"]}, ordinal=["Z"])


class TestAccessors:
    def test_column_by_name_and_index(self, tiny_dataset):
        assert np.array_equal(tiny_dataset.column("SIZE"), tiny_dataset.column(1))

    def test_column_labels(self, tiny_dataset):
        labels = tiny_dataset.column_labels("COLOR")
        assert len(labels) == 12
        assert set(labels) <= {"red", "green", "blue"}

    def test_record_labels(self, tiny_dataset):
        record = tiny_dataset.record_labels(0)
        assert len(record) == 3

    def test_value_counts_includes_zero_categories(self, tiny_schema):
        codes = np.zeros((5, 3), dtype=np.int64)
        dataset = CategoricalDataset(codes, tiny_schema)
        counts = dataset.value_counts("SIZE")
        assert counts.tolist() == [5, 0, 0, 0]

    def test_codes_copy_is_writable_and_independent(self, tiny_dataset):
        copy = tiny_dataset.codes_copy()
        copy[0, 0] = (copy[0, 0] + 1) % 3
        assert not np.array_equal(copy, tiny_dataset.codes)


class TestTransformations:
    def test_with_codes(self, tiny_dataset):
        new_codes = tiny_dataset.codes_copy()
        new_codes[:, 0] = 0
        derived = tiny_dataset.with_codes(new_codes, name="derived")
        assert derived.name == "derived"
        assert derived.column("COLOR").sum() == 0
        # Original untouched.
        assert not np.array_equal(derived.codes, tiny_dataset.codes) or True

    def test_replace_column(self, tiny_dataset):
        derived = tiny_dataset.replace_column("SHAPE", np.ones(12, dtype=np.int64))
        assert derived.column("SHAPE").tolist() == [1] * 12
        assert np.array_equal(derived.column("COLOR"), tiny_dataset.column("COLOR"))

    def test_select_attributes(self, tiny_dataset):
        sub = tiny_dataset.select_attributes(["SHAPE", "COLOR"])
        assert sub.attribute_names == ("SHAPE", "COLOR")
        assert np.array_equal(sub.column("COLOR"), tiny_dataset.column("COLOR"))

    def test_renamed(self, tiny_dataset):
        assert tiny_dataset.renamed("other").name == "other"


class TestComparisons:
    def test_require_compatible_record_count(self, tiny_dataset, tiny_schema):
        other = CategoricalDataset(np.zeros((3, 3), dtype=np.int64), tiny_schema)
        with pytest.raises(SchemaError, match="record counts differ"):
            tiny_dataset.require_compatible(other)

    def test_equals(self, tiny_dataset):
        clone = tiny_dataset.with_codes(tiny_dataset.codes_copy())
        assert tiny_dataset.equals(clone)

    def test_cells_changed(self, tiny_dataset):
        codes = tiny_dataset.codes_copy()
        codes[0, 0] = (codes[0, 0] + 1) % 3
        codes[5, 2] = 1 - codes[5, 2]
        changed = tiny_dataset.with_codes(codes)
        assert tiny_dataset.cells_changed(changed) == 2

    def test_fingerprint_distinguishes_content(self, tiny_dataset):
        codes = tiny_dataset.codes_copy()
        codes[0, 0] = (codes[0, 0] + 1) % 3
        assert tiny_dataset.fingerprint() != tiny_dataset.with_codes(codes).fingerprint()

    def test_fingerprint_stable(self, tiny_dataset):
        assert tiny_dataset.fingerprint() == tiny_dataset.fingerprint()

    def test_fingerprint_is_the_raw_int64_buffer(self, tiny_dataset):
        # Persistent score keys hash these bytes: narrowing them would
        # orphan every stored score and refuse every stamped checkpoint.
        assert tiny_dataset.fingerprint() == tiny_dataset.codes.tobytes()
        assert len(tiny_dataset.fingerprint()) == tiny_dataset.n_cells * 8


def _one_column(size: int, codes: list[int]) -> CategoricalDataset:
    """A one-attribute file over a domain of ``size`` categories."""
    schema = DatasetSchema([CategoricalDomain("A", [f"c{i}" for i in range(size)])])
    return CategoricalDataset(np.array(codes, dtype=np.int64).reshape(-1, 1), schema)


class TestMemoKey:
    def test_key_is_shape_then_narrow_codes(self, tiny_dataset):
        key = tiny_dataset.memo_key()
        assert tiny_dataset.schema.code_dtype == "uint8"
        assert len(key) == 16 + tiny_dataset.n_cells
        assert key[16:] == tiny_dataset.codes.astype(np.uint8).tobytes()

    def test_renamed_twin_shares_the_key(self, tiny_dataset):
        assert tiny_dataset.renamed("twin").memo_key() == tiny_dataset.memo_key()

    def test_content_change_changes_the_key(self, tiny_dataset):
        codes = tiny_dataset.codes_copy()
        codes[0, 0] = (codes[0, 0] + 1) % 3
        assert tiny_dataset.with_codes(codes).memo_key() != tiny_dataset.memo_key()

    def test_equal_codes_of_another_shape_never_share_a_key(self):
        wide_schema = DatasetSchema([CategoricalDomain(name, ["x", "y"]) for name in "AB"])
        wide = CategoricalDataset(np.array([[0, 1], [1, 0]]), wide_schema)
        tall = _one_column(2, [0, 1, 1, 0])
        assert wide.fingerprint() == tall.fingerprint()
        assert wide.memo_key() != tall.memo_key()

    @pytest.mark.parametrize("size, dtype", [(256, "uint8"), (257, "uint16"),
                                             (1 << 16, "uint16"), ((1 << 16) + 1, "int64")])
    def test_width_is_the_narrowest_that_holds_the_largest_code(self, size, dtype):
        dataset = _one_column(size, [0, size - 1])
        assert dataset.schema.code_dtype == dtype
        assert len(dataset.memo_key()) == 16 + 2 * np.dtype(dtype).itemsize
        assert np.frombuffer(dataset.memo_key()[16:], dtype=dtype).tolist() == [0, size - 1]

    def test_schemas_of_different_widths_never_share_a_key(self):
        keys = {_one_column(size, [0, 1, 2]).memo_key() for size in (3, 300, 70000)}
        assert len(keys) == 3

    def test_wide_codes_never_wrap(self):
        # Cast to uint8, 260 and 259 would wrap to 4 and 3.
        assert _one_column(300, [3, 260]).memo_key() != _one_column(300, [259, 4]).memo_key()
        assert _one_column(300, [256]).memo_key() != _one_column(300, [0]).memo_key()


class TestNarrowStore:
    """The matrix is stored at the schema's width; arithmetic accessors widen."""

    WIDTHS = [(3, "uint8"), (300, "uint16"), (70_000, "int64")]

    @pytest.mark.parametrize("size, dtype", WIDTHS)
    def test_stored_at_the_schema_width_and_round_trips(self, size, dtype):
        codes = [0, size - 1, size // 2, 1]
        dataset = _one_column(size, codes)
        assert dataset.narrow_codes.dtype == dtype
        assert dataset.narrow_codes.nbytes == len(codes) * np.dtype(dtype).itemsize
        assert dataset.codes[:, 0].tolist() == codes
        assert dataset.with_codes(dataset.codes_copy()).equals(dataset)

    @pytest.mark.parametrize("size, dtype", WIDTHS)
    def test_arithmetic_accessors_are_int64(self, size, dtype):
        dataset = _one_column(size, [0, size - 1])
        assert dataset.codes.dtype == np.int64
        assert dataset.column(0).dtype == np.int64
        assert dataset.codes_copy().dtype == np.int64
        # Widened before arithmetic: the top code times the domain size
        # would wrap at the stored width.
        assert (dataset.column(0) * size).tolist() == [0, (size - 1) * size]

    @pytest.mark.parametrize("size, dtype", WIDTHS)
    def test_stored_and_widened_matrices_are_read_only(self, size, dtype):
        dataset = _one_column(size, [0, size - 1])
        for array in (dataset.narrow_codes, dataset.codes, dataset.column(0)):
            with pytest.raises(ValueError):
                array[0] = 1
        copy = dataset.codes_copy()
        copy[0, 0] = 1
        assert dataset.codes[0, 0] == 0

    def test_an_int64_width_input_is_copied_not_frozen(self):
        schema = DatasetSchema([CategoricalDomain("A", [f"c{i}" for i in range(70_000)])])
        codes = np.array([[0], [69_999]], dtype=np.int64)
        dataset = CategoricalDataset(codes, schema)
        codes[0, 0] = 5
        assert dataset.codes[0, 0] == 0

    @pytest.mark.parametrize("size, dtype", WIDTHS)
    def test_pickle_keeps_the_width(self, size, dtype):
        dataset = _one_column(size, [0, size - 1, 1])
        copy = pickle.loads(pickle.dumps(dataset))
        assert copy.narrow_codes.dtype == dtype
        assert not copy.narrow_codes.flags.writeable
        assert copy.equals(dataset)
        assert copy.fingerprint() == dataset.fingerprint()

    def test_pickle_carries_the_narrow_matrix_only(self, flare):
        assert len(pickle.dumps(flare)) < flare.n_cells * 2

    def test_flare_population_stores_a_byte_per_cell(self, flare):
        population = build_initial_population(flare, dataset_name="flare", seed=0)
        assert all(dataset.narrow_codes.nbytes <= flare.n_cells for dataset in population)
