"""The categorical microdata file.

:class:`CategoricalDataset` is the value type the whole library moves
around: an ``(n_records, n_attributes)`` matrix of integer category codes
plus a :class:`~repro.data.schema.DatasetSchema`.  The paper's GA keeps
whole protected files in memory as chromosomes (its §2.1 genotype
encoding); we keep them as code matrices, which makes every measure a
vectorized numpy computation instead of a string comparison loop.

Datasets are *logically immutable*: the code matrix is flagged
read-only and all transformations return new objects.  Genetic operators
that need scratch space take an explicit writable copy via
:meth:`CategoricalDataset.codes_copy`.

The matrix is stored once, at the schema's
:attr:`~repro.data.schema.DatasetSchema.code_dtype` (``uint8`` on every
paper dataset, an eighth of ``int64``), as
:attr:`CategoricalDataset.narrow_codes`.  The accessors that kernels do
arithmetic on, :attr:`~CategoricalDataset.codes`,
:meth:`~CategoricalDataset.column` and
:meth:`~CategoricalDataset.codes_copy`, return ``int64`` copies widened
on each call: a narrow array times a Python int wraps or raises, so the
narrow matrix is only compared, indexed, copied, counted, hashed or
assigned into an ``int64`` buffer.  No widened copy is kept on the
object.
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence

import numpy as np

from repro.data.domain import CategoricalDomain
from repro.data.schema import DatasetSchema
from repro.exceptions import SchemaError


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class CategoricalDataset:
    """An integer-coded categorical microdata file.

    Parameters
    ----------
    codes:
        ``(n_records, n_attributes)`` integer array; ``codes[r, a]`` is
        the category code of record ``r`` for attribute ``a``.
    schema:
        Domains for each column, in order.
    name:
        Human-readable name carried through reports.
    """

    __slots__ = ("narrow_codes", "schema", "name", "_digest", "checkpoint_entry")

    def __init__(self, codes: np.ndarray, schema: DatasetSchema, name: str = "dataset") -> None:
        arr = np.asarray(codes, dtype=np.int64)
        if arr.ndim != 2:
            raise SchemaError(f"codes must be 2-D (records x attributes), got shape {arr.shape}")
        if arr.shape[1] != schema.n_attributes:
            raise SchemaError(
                f"codes have {arr.shape[1]} columns but schema has {schema.n_attributes} attributes"
            )
        # One pass over all columns: viewed unsigned, a negative code is
        # huge, so a single comparison with the domain sizes finds both
        # kinds of bad code.  Only then is each column checked, to raise
        # the per-domain error naming the first bad column and code.
        sizes = np.array(schema.cardinalities, dtype=np.uint64)
        if (arr.view(np.uint64) >= sizes).any():
            for col, domain in enumerate(schema):
                domain.validate_codes(arr[:, col])
        #: The read-only code matrix at ``schema.code_dtype``, which holds
        #: every code validated above, so the cast never wraps.
        self.narrow_codes = arr.astype(schema.code_dtype, order="C")
        self.narrow_codes.setflags(write=False)
        self.schema = schema
        self.name = name
        self._digest: str | None = None
        #: ``(original digest, entry)``: this matrix's checkpoint table
        #: entry, diffed against the original with that :meth:`digest`.
        #: Set and read by :mod:`repro.service.checkpoint`; never pickled.
        self.checkpoint_entry: tuple[str, dict] | None = None

    def __getstate__(self) -> tuple[None, dict]:
        # The per-object caches stay behind: a copy recomputes them.
        return None, {"narrow_codes": self.narrow_codes, "schema": self.schema,
                      "name": self.name}

    def __setstate__(self, state: tuple[None, dict]) -> None:
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self.narrow_codes.setflags(write=False)
        self._digest = None
        self.checkpoint_entry = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_labels(
        cls,
        rows: Sequence[Sequence[str]],
        schema: DatasetSchema,
        name: str = "dataset",
    ) -> "CategoricalDataset":
        """Build a dataset from rows of string labels."""
        n_attrs = schema.n_attributes
        codes = np.empty((len(rows), n_attrs), dtype=np.int64)
        for r, row in enumerate(rows):
            if len(row) != n_attrs:
                raise SchemaError(f"row {r} has {len(row)} values, schema expects {n_attrs}")
            for a, domain in enumerate(schema):
                codes[r, a] = domain.code(row[a])
        return cls(codes, schema, name=name)

    @classmethod
    def from_columns(
        cls,
        columns: dict[str, Sequence[str]],
        ordinal: Sequence[str] = (),
        name: str = "dataset",
    ) -> "CategoricalDataset":
        """Build a dataset (and infer domains) from label columns.

        Domain categories are the sorted distinct labels of each column;
        attributes listed in ``ordinal`` are flagged ordinal with that
        sorted order as rank order.
        """
        ordinal_set = set(ordinal)
        unknown = ordinal_set - set(columns)
        if unknown:
            raise SchemaError(f"ordinal attributes not present in columns: {sorted(unknown)}")
        domains = []
        encoded = []
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        for attr, values in columns.items():
            labels = sorted(set(str(v) for v in values))
            domain = CategoricalDomain(attr, labels, ordinal=attr in ordinal_set)
            domains.append(domain)
            encoded.append(domain.encode(str(v) for v in values))
        codes = np.column_stack(encoded) if encoded else np.empty((0, 0), dtype=np.int64)
        return cls(codes, DatasetSchema(domains), name=name)

    # -- shape accessors ----------------------------------------------

    @property
    def n_records(self) -> int:
        """Number of records (rows)."""
        return self.narrow_codes.shape[0]

    @property
    def n_attributes(self) -> int:
        """Number of attributes (columns)."""
        return self.narrow_codes.shape[1]

    @property
    def n_cells(self) -> int:
        """Total number of cells (records x attributes)."""
        return self.narrow_codes.size

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in column order."""
        return self.schema.attribute_names

    def domain(self, key: int | str) -> CategoricalDomain:
        """Domain of a column (by index or attribute name)."""
        return self.schema.domain(key)

    # -- data accessors -----------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Read-only ``int64`` copy of the code matrix, widened on each read."""
        return _read_only(self.narrow_codes.astype(np.int64))

    def column(self, key: int | str) -> np.ndarray:
        """Read-only ``int64`` code vector of one attribute."""
        index = self.schema.index_of(key) if isinstance(key, str) else key
        return _read_only(self.narrow_codes[:, index].astype(np.int64))

    def column_labels(self, key: int | str) -> list[str]:
        """Label list of one attribute."""
        index = self.schema.index_of(key) if isinstance(key, str) else key
        return self.schema.domain(index).decode(self.narrow_codes[:, index])

    def record_labels(self, row: int) -> list[str]:
        """Labels of one record across all attributes."""
        return [self.schema.domain(a).label(int(code))
                for a, code in enumerate(self.narrow_codes[row])]

    def to_labels(self) -> list[list[str]]:
        """All records as rows of labels (CSV-ready)."""
        return [self.record_labels(r) for r in range(self.n_records)]

    def codes_copy(self) -> np.ndarray:
        """Writable ``int64`` copy of the code matrix (for genetic operators)."""
        return self.narrow_codes.astype(np.int64)

    def value_counts(self, key: int | str) -> np.ndarray:
        """Frequency of every domain category of one attribute.

        The returned vector is indexed by category code and includes
        zero-count categories, so its length equals the domain size.
        """
        index = self.schema.index_of(key) if isinstance(key, str) else key
        return np.bincount(self.narrow_codes[:, index], minlength=self.schema.domain(index).size)

    # -- transformations ----------------------------------------------

    def with_codes(self, codes: np.ndarray, name: str | None = None) -> "CategoricalDataset":
        """New dataset with the same schema and a different code matrix."""
        return CategoricalDataset(codes, self.schema, name=name if name is not None else self.name)

    def replace_column(self, key: int | str, codes: np.ndarray, name: str | None = None) -> "CategoricalDataset":
        """New dataset with one attribute's codes replaced."""
        index = self.schema.index_of(key) if isinstance(key, str) else key
        new_codes = self.codes_copy()
        new_codes[:, index] = np.asarray(codes, dtype=np.int64)
        return self.with_codes(new_codes, name=name)

    def select_attributes(self, names: Sequence[str], name: str | None = None) -> "CategoricalDataset":
        """New dataset restricted to the given attributes, in order."""
        indices = [self.schema.index_of(n) for n in names]
        return CategoricalDataset(
            self.narrow_codes[:, indices],
            self.schema.subset(names),
            name=name if name is not None else self.name,
        )

    def renamed(self, name: str) -> "CategoricalDataset":
        """Same data under a different dataset name."""
        return CategoricalDataset(self.narrow_codes, self.schema, name=name)

    # -- comparisons ---------------------------------------------------

    def require_compatible(self, other: "CategoricalDataset") -> None:
        """Raise :class:`SchemaError` unless ``other`` pairs with this file.

        Pairing requires the identical schema *and* record count: the
        measures and the GA treat rows at equal index as the same
        respondent.
        """
        self.schema.require_compatible(other.schema)
        if self.n_records != other.n_records:
            raise SchemaError(
                f"record counts differ: {self.n_records} vs {other.n_records}"
            )

    def equals(self, other: "CategoricalDataset") -> bool:
        """Value equality: same schema and identical code matrix."""
        return (
            self.schema == other.schema
            and self.narrow_codes.shape == other.narrow_codes.shape
            and bool(np.array_equal(self.narrow_codes, other.narrow_codes))
        )

    def cells_changed(self, other: "CategoricalDataset") -> int:
        """Number of cells whose code differs between the two files."""
        self.require_compatible(other)
        return int(np.count_nonzero(self.narrow_codes != other.narrow_codes))

    def fingerprint(self) -> bytes:
        """The raw ``int64`` code buffer (what persistent score keys hash)."""
        return self.codes.tobytes()

    def memo_key(self) -> bytes:
        """Exact, narrow content key: the shape, then the stored codes.

        The stored matrix is at the schema's
        :attr:`~repro.data.schema.DatasetSchema.code_dtype`, so two keys
        are equal exactly when the shapes and the codes (at one width)
        are.  A flare key is about 1/8 the size of :meth:`fingerprint`.
        """
        shape = struct.pack("<2q", *self.narrow_codes.shape)
        return shape + self.narrow_codes.tobytes()

    def digest(self) -> str:
        """Short hex hash of the code matrix and its shape.

        Hashed once per object (the codes are read-only), so a checkpoint
        save can stamp its original without rehashing it.
        """
        if self._digest is None:
            codes = self.codes
            digest = hashlib.blake2b(codes, digest_size=16)
            digest.update(repr(codes.shape).encode("ascii"))
            self._digest = digest.hexdigest()
        return self._digest

    def __repr__(self) -> str:
        return (
            f"CategoricalDataset({self.name!r}, {self.n_records} records x "
            f"{self.n_attributes} attributes)"
        )
