"""Registry of the paper's four evaluation datasets."""

from __future__ import annotations

from repro.data.dataset import CategoricalDataset
from repro.datasets.adult import ADULT_SPEC, load_adult
from repro.datasets.flare import FLARE_SPEC, load_flare
from repro.datasets.german import GERMAN_SPEC, load_german
from repro.datasets.housing import HOUSING_SPEC, load_housing
from repro.datasets.synthetic import SyntheticSpec
from repro.exceptions import ExperimentError

PAPER_SPECS: dict[str, SyntheticSpec] = {
    "housing": HOUSING_SPEC,
    "german": GERMAN_SPEC,
    "flare": FLARE_SPEC,
    "adult": ADULT_SPEC,
}

_LOADERS = {
    "housing": load_housing,
    "german": load_german,
    "flare": load_flare,
    "adult": load_adult,
}


def dataset_names() -> tuple[str, ...]:
    """Names of the paper's datasets, in paper order."""
    return tuple(PAPER_SPECS)


#: Every original loaded in this process, by name.
_LOADED: dict[str, CategoricalDataset] = {}


def load_dataset(name: str) -> CategoricalDataset:
    """Load one of the paper's datasets by name.

    Each original is built once per process and shared: it is
    deterministic and read-only, and candidates built from it share its
    schema object, so a later run's compatibility checks stay identity
    hits.  Racing first loads may build twice; the first stored wins.
    """
    loaded = _LOADED.get(name)
    if loaded is not None:
        return loaded
    try:
        loader = _LOADERS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown dataset {name!r}; available: {', '.join(PAPER_SPECS)}"
        ) from None
    return _LOADED.setdefault(name, loader())


def protected_attributes(name: str) -> tuple[str, ...]:
    """The attributes the paper protects for dataset ``name``."""
    try:
        return PAPER_SPECS[name].protected_attributes
    except KeyError:
        raise ExperimentError(
            f"unknown dataset {name!r}; available: {', '.join(PAPER_SPECS)}"
        ) from None
