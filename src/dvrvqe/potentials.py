"""Potential-energy models evaluated on DVR grids.

Energies in hartree, distances in bohr. The Morse convention places the
zero of energy at dissociation, V(r_e) = -D_e, so bound-state energies
come out negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HarmonicPotential:
    force_constant: float
    center: float = 0.0

    def __call__(self, x):
        return 0.5 * self.force_constant * (np.asarray(x, dtype=float) - self.center) ** 2

    def frequency(self, mass: float) -> float:
        """Harmonic angular frequency omega = sqrt(k_f / m)."""
        return np.sqrt(self.force_constant / mass)


@dataclass(frozen=True)
class MorsePotential:
    well_depth: float     # D_e
    range_param: float    # a_m
    equilibrium: float    # r_e

    def __call__(self, x):
        y = 1.0 - np.exp(-self.range_param * (np.asarray(x, dtype=float) - self.equilibrium))
        return self.well_depth * (y * y - 1.0)

    def frequency(self, mass: float) -> float:
        return self.range_param * np.sqrt(2.0 * self.well_depth / mass)

    def level(self, v: int, mass: float) -> float:
        """Analytic bound-state energy E_v measured from dissociation."""
        w = self.frequency(mass)
        vh = v + 0.5
        return -self.well_depth + w * vh - (w * vh) ** 2 / (4.0 * self.well_depth)


@dataclass(frozen=True)
class TabulatedPotential:
    """Piecewise-linear interpolation of sorted (x, V) samples; no extrapolation."""

    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if x.ndim != 1 or x.shape != v.shape or x.size < 2:
            raise ValueError("tabulated potential needs matching 1D x and V arrays with >= 2 samples")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated x and V values must be finite")
        if not np.all(np.diff(x) > 0):
            raise ValueError("tabulated x values must be strictly increasing")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    def __call__(self, x):
        xq = np.asarray(x, dtype=float)
        bad = (xq < self.x[0]) | (xq > self.x[-1])
        if np.any(bad):
            offending = float(np.atleast_1d(xq)[np.atleast_1d(bad)][0])
            raise ValueError(
                f"grid point x={offending!r} outside tabulated range"
                f" [{self.x[0]}, {self.x[-1]}]"
            )
        return np.interp(xq, self.x, self.v)


def load_tabulated(path) -> TabulatedPotential:
    """Read a two-column whitespace-separated table (x bohr, V hartree).

    Lines starting with '#' are ignored.
    """
    xs, vs = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            xs.append(float(parts[0]))
            vs.append(float(parts[1]))
    return TabulatedPotential(np.array(xs), np.array(vs))


def potential_on_grid(potential, grid) -> np.ndarray:
    """V(x_i) over the grid points."""
    values = np.asarray(potential(grid.points), dtype=float)
    values.setflags(write=False)
    return values
