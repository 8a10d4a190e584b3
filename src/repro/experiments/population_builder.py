"""Initial populations of protections — the paper's §3 setup.

For each dataset the paper builds a population of protected files by
sweeping the parameters of six state-of-the-art methods:

=========  ====  ======  =====  =====
method     housing  german  flare  adult
=========  ====  ======  =====  =====
microagg    72      72     72     48
bottom       6       4      4      6
top          6       4      4      6
recoding     6       4      4      6
rankswap    11      11     11     11
PRAM         9       9      9      9
total      110     104    104     86
=========  ====  ======  =====  =====

The paper gives the counts but not the exact parameter grids; we use the
natural sweeps below (documented in DESIGN.md):

* microaggregation — ``k = 2..9`` crossed with 9 partition variants
  (univariate, the 6 joint permutations of the protected attributes and
  2 reduced joint sorts); Adult uses 6 variants (univariate + 5 joint).
* bottom / top coding — collapsed-tail fractions from 10% upward.
* global recoding — generalization levels crossed with mode / median
  group representatives.
* rank swapping — ``p = 1..11`` percent.
* PRAM — five basic ``theta`` values and four invariant-PRAM values.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.datasets.registry import PAPER_SPECS, protected_attributes
from repro.exceptions import ExperimentError
from repro.methods.base import ProtectionMethod
from repro.methods.global_recoding import GlobalRecoding
from repro.methods.microaggregation import Microaggregation
from repro.methods.pram import InvariantPram, Pram
from repro.methods.rank_swapping import RankSwapping
from repro.methods.top_bottom_coding import BottomCoding, TopCoding
from repro.obs import get_registry, trace
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class PopulationMix:
    """How many protections of each method family to generate."""

    microaggregation: int
    bottom_coding: int
    top_coding: int
    global_recoding: int
    rank_swapping: int
    pram: int

    @property
    def total(self) -> int:
        return (
            self.microaggregation
            + self.bottom_coding
            + self.top_coding
            + self.global_recoding
            + self.rank_swapping
            + self.pram
        )


#: The paper's per-dataset population mixes (its §3).
PAPER_MIXES: dict[str, PopulationMix] = {
    "housing": PopulationMix(72, 6, 6, 6, 11, 9),
    "german": PopulationMix(72, 4, 4, 4, 11, 9),
    "flare": PopulationMix(72, 4, 4, 4, 11, 9),
    "adult": PopulationMix(48, 6, 6, 6, 11, 9),
}


def _microaggregation_variants(attributes: Sequence[str], count: int) -> list[ProtectionMethod]:
    """``count`` microaggregation configurations: k-sweep x partition variants."""
    attrs = tuple(attributes)
    partition_variants: list[dict[str, object]] = [{"strategy": "univariate"}]
    for perm in permutations(attrs):
        partition_variants.append({"strategy": "joint", "sort_attributes": perm})
    if len(attrs) >= 2:
        partition_variants.append({"strategy": "joint", "sort_attributes": attrs[:2]})
        partition_variants.append({"strategy": "joint", "sort_attributes": attrs[-2:]})

    # Deterministic grid, k-major over partition variants: with the
    # paper's counts this is k = 2..9 x 9 variants (72) for three-attribute
    # datasets and k = 2..9 x 6 variants (48) for Adult.  Prefer a variant
    # count that divides the total so the grid is balanced in k.
    methods: list[ProtectionMethod] = []
    if count % 8 == 0 and 1 <= count // 8 <= len(partition_variants):
        # The paper's grids sweep k = 2..9 (8 values): 72 = 8 x 9, 48 = 8 x 6.
        n_variants = count // 8
    else:
        n_variants = max(1, min(len(partition_variants), count))
        while n_variants > 1 and count % n_variants != 0:
            n_variants -= 1
    n_k = -(-count // n_variants)  # ceil
    for k_value in range(2, 2 + n_k):
        for params in partition_variants[:n_variants]:
            if len(methods) == count:
                break
            methods.append(Microaggregation(k=k_value, **params))  # type: ignore[arg-type]
    return methods


def _tail_fractions(count: int) -> list[float]:
    return [0.10 + 0.05 * i for i in range(count)]


def _recoding_variants(count: int) -> list[ProtectionMethod]:
    grid = [
        GlobalRecoding(level=level, representative=rep)
        for level in (1, 2, 3)
        for rep in ("mode", "median")
    ]
    return grid[:count] if count <= len(grid) else grid + [
        GlobalRecoding(level=4 + i, representative="mode") for i in range(count - len(grid))
    ]


def _pram_variants(count: int) -> list[ProtectionMethod]:
    basic = [Pram(theta=t) for t in (0.05, 0.10, 0.15, 0.20, 0.25)]
    invariant = [InvariantPram(theta=t) for t in (0.10, 0.20, 0.30, 0.40)]
    grid: list[ProtectionMethod] = basic + invariant
    while len(grid) < count:
        grid.append(Pram(theta=0.30 + 0.05 * (len(grid) - 9)))
    return grid[:count]


def build_method_suite(attributes: Sequence[str], mix: PopulationMix) -> list[ProtectionMethod]:
    """The configured method list realizing ``mix`` (order: paper's listing)."""
    methods: list[ProtectionMethod] = []
    methods.extend(_microaggregation_variants(attributes, mix.microaggregation))
    methods.extend(BottomCoding(fraction=f) for f in _tail_fractions(mix.bottom_coding))
    methods.extend(TopCoding(fraction=f) for f in _tail_fractions(mix.top_coding))
    methods.extend(_recoding_variants(mix.global_recoding))
    methods.extend(RankSwapping(p=p) for p in range(1, mix.rank_swapping + 1))
    methods.extend(_pram_variants(mix.pram))
    return methods


#: The last integer-seeded build, as ``(key, protections)``.  A worker
#: running several jobs (or island members) on one dataset asks for the
#: same population each time; the build is deterministic, so one entry
#: serves them all.  It is replaced by a single assignment, so racing
#: threads can at worst build twice, never read a mismatched entry.
_MEMO: tuple[tuple, tuple[CategoricalDataset, ...]] | None = None


def _memo_key(
    original: CategoricalDataset,
    attributes: tuple[str, ...],
    mix: PopulationMix,
    seed: object,
) -> tuple | None:
    """Everything the build's output depends on; ``None`` if not memoizable.

    Only integer seeds qualify: ``None`` draws fresh OS entropy and a
    ``Generator`` carries state the caller goes on to use.
    """
    if not isinstance(seed, (int, np.integer)):
        return None
    return (original.fingerprint(), original.schema, original.name, attributes, mix, int(seed))


def build_initial_population(
    original: CategoricalDataset,
    dataset_name: str | None = None,
    attributes: Sequence[str] | None = None,
    mix: PopulationMix | None = None,
    seed: int | np.random.Generator | None = 0,
) -> list[CategoricalDataset]:
    """Generate the paper's initial protection population for ``original``.

    Either ``dataset_name`` (one of the paper's four, supplying both the
    protected attributes and the mix) or explicit ``attributes`` (+
    optional ``mix``, defaulting to the Flare/German mix) must be given.

    Integer-seeded builds are memoized in-process (one entry): a repeat
    call returns a new list of the same read-only datasets.
    """
    global _MEMO
    if dataset_name is not None:
        if dataset_name not in PAPER_SPECS:
            raise ExperimentError(
                f"unknown dataset {dataset_name!r}; available: {', '.join(PAPER_SPECS)}"
            )
        attributes = attributes or protected_attributes(dataset_name)
        mix = mix or PAPER_MIXES[dataset_name]
    if attributes is None:
        raise ExperimentError("need dataset_name or explicit attributes")
    attributes = tuple(attributes)
    mix = mix or PAPER_MIXES["flare"]

    started = time.perf_counter()
    key = _memo_key(original, attributes, mix, seed)
    entry = _MEMO
    hit = key is not None and entry is not None and entry[0] == key
    with trace.span("repro.population.build", dataset=original.name, memo_hit=hit):
        if hit:
            protections = entry[1]
        else:
            rng = as_generator(seed)
            protections = tuple(
                method.protect(
                    original,
                    attributes,
                    seed=rng,
                    name=f"{original.name}#{index:03d}:{method.describe()}",
                )
                for index, method in enumerate(build_method_suite(attributes, mix))
            )
            if key is not None:
                _MEMO = (key, protections)
    registry = get_registry()
    if registry.enabled:
        registry.observe("repro_population_build_seconds", time.perf_counter() - started)
    return list(protections)
