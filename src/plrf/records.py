"""Provenance-carrying result records shared across modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InvalidInput, _as_index
from .spectral import SlopeFit

__all__ = ["SpectrumEstimate", "RunSummary"]


@dataclass(frozen=True)
class SpectrumEstimate:
    """A descending eigenvalue vector plus the provenance that produced it.

    `dims`, `samples` and `seed` must be integers.
    """

    eigenvalues: np.ndarray
    dims: tuple[int, ...]
    samples: int  # Monte Carlo sample count; 0 for exact/population routes
    activation: str
    seed: int
    meta: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        eig = np.array(self.eigenvalues, dtype=float)
        if eig.ndim != 1:
            raise InvalidInput(f"eigenvalues must be a vector, got shape {eig.shape}")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "dims", tuple(_as_index(d, f"dims[{t}]") for t, d in enumerate(self.dims)))
        for name in ("samples", "seed"):
            object.__setattr__(self, name, _as_index(getattr(self, name), name))


@dataclass(frozen=True)
class RunSummary:
    """The one record of a CLI run; `data` renders it as one JSON object.

    `params` and `results` map names to str, int, float, bool or None.
    `params` holds effective values (after defaults and clamping), `seed` is
    None where the subcommand reads none, and `fits` has one entry per slope
    fit actually computed, with the range it used.
    """

    command: str
    params: Mapping[str, object]
    seed: int | None
    fits: tuple[SlopeFit, ...]
    results: Mapping[str, object]
    warnings: tuple[str, ...]
    elapsed_ms: int
    version: str
