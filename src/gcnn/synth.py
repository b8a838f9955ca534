"""Synthetic grouped time series for experiments and tests.

Each group follows its own AR(1) driver; member series are the driver
plus independent observation noise, so within-group correlation is high
and across-group correlation is near zero.  A final "target" series
tracks group 1's driver, which makes the target predictable from one
group only and gives grouping methods something real to find.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesDataset
from .errors import ConfigError

__all__ = ["SynthSpec", "generate"]

TARGET_NAME = "target"


@dataclass
class SynthSpec:
    n_groups: int = 3
    per_group: int = 4
    length: int = 400
    phi: float = 0.6
    member_noise: float = 0.2
    target_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 1 or self.per_group < 1:
            raise ConfigError("need at least one group with one member")
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        if not 0.0 <= self.phi < 1.0:
            raise ConfigError(f"phi must be in [0, 1) for stationarity, got {self.phi}")


def generate(spec: SynthSpec | None = None) -> TimeSeriesDataset:
    """Dataset of n_groups*per_group member series plus one target series.

    Series ``g{G}s{J}`` belongs to group G; ``target`` follows group 1's
    driver with its own small noise.  Drivers start from their stationary
    distribution, so there is no burn-in transient.
    """
    spec = spec or SynthSpec()
    rng = np.random.default_rng(spec.seed)
    stationary_std = 1.0 / np.sqrt(1.0 - spec.phi * spec.phi)
    drivers = np.empty((spec.n_groups, spec.length))
    drivers[:, 0] = rng.standard_normal(spec.n_groups) * stationary_std
    shocks = rng.standard_normal((spec.n_groups, spec.length))
    for t in range(1, spec.length):
        drivers[:, t] = spec.phi * drivers[:, t - 1] + shocks[:, t]

    names = [f"g{g + 1}s{j + 1}" for g in range(spec.n_groups) for j in range(spec.per_group)]
    names.append(TARGET_NAME)
    members = len(names) - 1
    values = np.empty((len(names), spec.length))
    for i, row in enumerate(values):
        # drawn in place: noise * z, then + driver, the bits of driver + noise * z
        rng.standard_normal(out=row)
        row *= spec.member_noise if i < members else spec.target_noise
        row += drivers[i // spec.per_group if i < members else 0]
    return TimeSeriesDataset(names=names, times=np.arange(spec.length, dtype=np.float64), values=values)
