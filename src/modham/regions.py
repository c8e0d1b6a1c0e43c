"""Region geometry on the chain; ``region_mask`` is the diagonal of the cutting projection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import IndexOutOfRange, InvalidParameter


@dataclass(frozen=True)
class Region:
    """A sorted set of site indices defining the standard subspace."""

    sites: tuple

    def __init__(self, sites: Iterable[int]):
        try:
            sites = tuple(sites)
        except TypeError:
            raise InvalidParameter(f"region sites must be an iterable, got {sites!r}") from None
        for s in sites:  # inline: a region is built per restriction
            if type(s) is not int and not isinstance(s, np.integer):
                raise InvalidParameter(f"region site must be an integer, got {s!r}")
        sites = tuple(map(int, sites))
        if any(s < 0 for s in sites):
            raise InvalidParameter(f"negative site index in region: {sites}")
        if len(set(sites)) != len(sites):
            raise InvalidParameter(f"duplicate site indices in region: {sites}")
        object.__setattr__(self, "sites", tuple(sorted(sites)))

    def __len__(self) -> int:
        return len(self.sites)

    @classmethod
    def interval(cls, start: int, length: int) -> "Region":
        start, length = _index("interval start", start), _index("interval length", length)
        if length < 0:
            raise InvalidParameter(f"interval length must be non-negative: {length}")
        return cls(range(start, start + length))

    @classmethod
    def half(cls, n_sites: int) -> "Region":
        return cls(range(_index("n_sites", n_sites) // 2))

    def complement(self, n_sites: int) -> "Region":
        inside = set(self.sites)
        return Region(s for s in range(n_sites) if s not in inside)

    def indices(self) -> np.ndarray:
        return np.asarray(self.sites, dtype=int)


def _index(name: str, value) -> int:
    """``value`` as an int; :class:`InvalidParameter` unless it is an int or
    numpy integer (a bool's type is bool), never a float or a string that rounds to one."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    return int(value)


def validate_region(region: Region, n_sites: int):
    if len(region) and region.sites[-1] >= n_sites:
        raise IndexOutOfRange(
            f"region site {region.sites[-1]} outside lattice of {n_sites} sites"
        )


def region_mask(region: Region, n_sites: int) -> np.ndarray:
    """Boolean 2n mask selecting the region on both phase-space blocks."""
    validate_region(region, n_sites)
    site_mask = np.zeros(n_sites, dtype=bool)
    site_mask[region.indices()] = True
    return np.concatenate([site_mask, site_mask])


def phase_space_indices(region: Region, n_sites: int) -> np.ndarray:
    """Row indices of the region inside 2n-dimensional phase space."""
    validate_region(region, n_sites)
    idx = region.indices()
    return np.concatenate([idx, n_sites + idx])
