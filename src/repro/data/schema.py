"""Dataset schemas: the ordered collection of attribute domains.

A schema answers "are these two files protections of the same original?"
— the precondition for every pairwise measure and for the GA's crossover
operator, which swaps cell ranges between two files and is only meaningful
when both files share record count and domains.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.data.domain import CategoricalDomain
from repro.exceptions import SchemaError


def narrowest_dtype(top: int) -> str:
    """The narrowest of ``uint8`` / ``uint16`` / ``int64`` that holds ``0..top``."""
    return "uint8" if top < 1 << 8 else "uint16" if top < 1 << 16 else "int64"


class DatasetSchema:
    """Ordered, named collection of :class:`CategoricalDomain` objects."""

    __slots__ = ("domains", "_index_of", "code_dtype")

    def __init__(self, domains: Sequence[CategoricalDomain]) -> None:
        doms = tuple(domains)
        if not doms:
            raise SchemaError("a schema needs at least one attribute")
        names = [d.name for d in doms]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self.domains = doms
        self._index_of = {d.name: i for i, d in enumerate(doms)}
        #: The :func:`narrowest_dtype` that holds every code of every domain.
        self.code_dtype = narrowest_dtype(max(d.size for d in doms) - 1)

    @property
    def n_attributes(self) -> int:
        """Number of attributes in the schema."""
        return len(self.domains)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in column order."""
        return tuple(d.name for d in self.domains)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Domain sizes in column order."""
        return tuple(d.size for d in self.domains)

    def index_of(self, name: str) -> int:
        """Column index of attribute ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index_of[name]
        except KeyError:
            raise SchemaError(f"attribute {name!r} not in schema {self.attribute_names}") from None

    def domain(self, key: int | str) -> CategoricalDomain:
        """Domain for a column index or attribute name."""
        if isinstance(key, str):
            return self.domains[self.index_of(key)]
        if not 0 <= key < len(self.domains):
            raise SchemaError(f"column index {key} out of range (0..{len(self.domains) - 1})")
        return self.domains[key]

    def subset(self, names: Sequence[str]) -> "DatasetSchema":
        """Schema restricted to ``names``, in the given order."""
        return DatasetSchema([self.domain(name) for name in names])

    def require_compatible(self, other: "DatasetSchema") -> None:
        """Raise :class:`SchemaError` unless both schemas are identical."""
        if other is self:
            # Every candidate shares its original's schema object.
            return
        if self.attribute_names != other.attribute_names:
            raise SchemaError(
                f"attribute names differ: {self.attribute_names} vs {other.attribute_names}"
            )
        for mine, theirs in zip(self.domains, other.domains):
            if mine != theirs:
                raise SchemaError(f"domain mismatch for attribute {mine.name!r}")

    def __iter__(self) -> Iterator[CategoricalDomain]:
        return iter(self.domains)

    def __len__(self) -> int:
        return len(self.domains)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetSchema):
            return NotImplemented
        return self.domains == other.domains

    def __hash__(self) -> int:
        return hash(self.domains)

    def __repr__(self) -> str:
        return f"DatasetSchema({', '.join(self.attribute_names)})"
