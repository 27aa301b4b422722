"""Uniform-grid DVR construction: grids, kinetic matrices, band profiles.

Three grid variants are supported, each with an analytic kinetic-energy
matrix on equally spaced points:

* ``infinite``       x on (-inf, inf), points x_min + j*dx, j = 0..2^n-1
* ``half-infinite``  x on (0, inf), points j*dx, j = 1..2^n (x=0 excluded)
* ``finite``         x on (a, b), N = 2^n+1 divisions, interior points only

The point count is always 2^n so that grid indices map directly onto
n-qubit computational basis states (number encoding).

Off-diagonal kinetic elements take the form f(|i-j|) + g(i+j) with
0-based matrix indices; ``BandProfile`` stores d, f, g with the kinetic
scale E_T = hbar^2/(2 m dx^2) already folded in; ``BandProfile.truncated``
defines what an (s, r) truncation keeps.

This module needs numpy alone: ``BandProfile.to_matrix`` gathers its
Toeplitz part from a window view, so ``assemble``, ``decompose`` and
``full_plan`` run without importing scipy, which would cost a fresh CLI
process more time than most tasks compute.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

VARIANTS = ("infinite", "half-infinite", "finite")


@dataclass(frozen=True)
class GridSpec:
    """An equally spaced DVR grid with 2^n points."""

    variant: str
    n_qubits: int
    mass: float
    points: np.ndarray
    dx: float
    kinetic_scale: float  # E_T = hbar^2 / (2 m dx^2), hartree

    @property
    def n_points(self) -> int:
        return 2 ** self.n_qubits


@dataclass(frozen=True)
class BandProfile:
    """Diagonal, band and anti-diagonal values of a kinetic matrix.

    f is indexed by k = |i-j| (entry 0 unused, kept zero); g is indexed by
    k = i+j over the full realized range [0, 2^(n+1)-2]. For variants whose
    raw anti-diagonal term carries a (-1)^(i-j) sign, that sign is folded
    into g(i+j), which is well defined because i-j and i+j share parity.
    """

    n_qubits: int
    d: np.ndarray
    f: np.ndarray
    g: np.ndarray
    kinetic_scale: float

    def to_matrix(self, diagonal: np.ndarray | None = None) -> np.ndarray:
        """Dense matrix: Toeplitz f(|i-j|) plus Hankel g(i+j) off the diagonal,
        and ``diagonal`` on it, d (the kinetic matrix) when none is given."""
        n_pts = 2 ** self.n_qubits
        window = np.lib.stride_tricks.sliding_window_view
        # Entry (i, j) of the window view of v = f(N-1..1), f(0..N-1) is
        # v[i + j]; with its rows reversed it is v[N-1-i+j] = f(|i-j|), the
        # Toeplitz matrix. Row i of the window view of g is g[i : i + N], the
        # Hankel matrix g(i+j) without an N x N temporary.
        mat = window(np.concatenate([self.f[:0:-1], self.f]), n_pts)[::-1].copy()
        mat += window(self.g, n_pts)
        np.fill_diagonal(mat, self.d if diagonal is None else diagonal)
        return mat

    def truncated(self, s: int, r: int, streamlined: bool = False) -> BandProfile:
        """The profile of T^(s,r): f(k) kept for k < s, g(k) on the
        anti-diagonals ``retained_antidiagonals`` keeps, and 0 elsewhere;
        d and kinetic_scale are unchanged. Needs s >= 0 and 0 <= r <= 2^n."""
        n_pts = 2 ** self.n_qubits
        if s < 0 or not 0 <= r <= n_pts:
            raise ValueError(f"need s >= 0 and r in [0, {n_pts}], got s={s}, r={r}")
        return dataclasses.replace(
            self,
            f=np.where(np.arange(n_pts) < s, self.f, 0.0),
            g=np.where(retained_antidiagonals(self.n_qubits, r, streamlined), self.g, 0.0),
        )


def retained_antidiagonals(n_qubits: int, r: int, streamlined: bool = False) -> np.ndarray:
    """Boolean mask over k = i+j of the anti-diagonals a width-r truncation keeps:
    the first r (k < r, the top-left corner) and, unless streamlined, the
    mirrored last r (k > 2^(n+1)-2-r, the bottom-right corner)."""
    n_pts = 2 ** n_qubits
    kept = np.zeros(2 * n_pts - 1, dtype=bool)
    kept[:r] = True
    if not streamlined:
        kept[2 * n_pts - 1 - r :] = True
    return kept


def build_grid(variant, params, n_qubits, mass) -> GridSpec:
    """Build a GridSpec.

    ``params`` holds the variant-specific geometry: {'a','b'} for finite,
    {'x_min','dx'} for infinite, {'dx'} for half-infinite. Mass is in
    electron masses. Raises ValueError unless dx > 0, E_T is finite and
    > 0, and every grid point is finite; what overflows on the way warns
    nothing, since these checks reject it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown grid variant {variant!r}; expected one of {VARIANTS}")
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")

    n_pts = 2 ** n_qubits
    if variant == "finite":
        a, b = float(params["a"]), float(params["b"])
        if b <= a:
            raise ValueError(f"finite grid needs b > a, got a={a}, b={b}")
        origin, dx, first = a, (b - a) / (n_pts + 1), 1
    else:
        dx = float(params["dx"])
        origin, first = (0.0, 1) if variant == "half-infinite" else (float(params["x_min"]), 0)
    if not dx > 0:
        raise ValueError(f"grid spacing must be positive, got dx={dx}")
    with np.errstate(over="ignore", invalid="ignore"):
        points = origin + dx * np.arange(first, first + n_pts)
        denominator = 2.0 * mass * dx * dx  # 0 where m dx^2 underflows, inf where it overflows
        e_t = 1.0 / denominator if denominator else math.inf
    if not 0.0 < e_t < math.inf:
        raise ValueError(
            f"kinetic scale E_T = 1 / (2 m dx^2) {'overflows' if e_t else 'underflows to 0'} for m={mass}, dx={dx}"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError(f"grid points overflow for dx={dx}")
    points.setflags(write=False)
    return GridSpec(variant, n_qubits, float(mass), points, dx, e_t)


def band_profile(grid: GridSpec) -> BandProfile:
    """Compute (d, f, g) for the grid's kinetic matrix."""
    n = grid.n_qubits
    n_pts = 2 ** n
    e_t = grid.kinetic_scale
    i1 = np.arange(1, n_pts + 1)        # 1-based physical index
    k_band = np.arange(n_pts, dtype=float)      # |i-j|, entry 0 unused
    k_anti = np.arange(2 * n_pts - 1, dtype=float)  # i+j

    sign_band = (-1.0) ** k_band
    sign_anti = (-1.0) ** k_anti

    if grid.variant == "infinite":
        d = np.full(n_pts, e_t * np.pi**2 / 3.0)
        f = np.zeros(n_pts)
        f[1:] = e_t * sign_band[1:] * 2.0 / k_band[1:] ** 2
        g = np.zeros(2 * n_pts - 1)
    elif grid.variant == "half-infinite":
        d = e_t * (np.pi**2 / 3.0 - 1.0 / (2.0 * i1**2))
        f = np.zeros(n_pts)
        f[1:] = e_t * sign_band[1:] * 2.0 / k_band[1:] ** 2
        # raw term -2/(iota+iota')^2 with iota+iota' = (i+j)+2
        g = -e_t * sign_anti * 2.0 / (k_anti + 2.0) ** 2
    else:
        big_n = n_pts + 1
        scale = e_t * np.pi**2 / (2.0 * big_n**2)
        d = scale * ((2.0 * big_n**2 + 1.0) / 3.0 - 1.0 / np.sin(np.pi * i1 / big_n) ** 2)
        f = np.zeros(n_pts)
        f[1:] = scale * sign_band[1:] / np.sin(np.pi * k_band[1:] / (2.0 * big_n)) ** 2
        g = -scale * sign_anti / np.sin(np.pi * (k_anti + 2.0) / (2.0 * big_n)) ** 2

    for arr in (d, f, g):
        arr.setflags(write=False)
    return BandProfile(n, d, f, g, e_t)


def tail_sums(profile: BandProfile, s: int, r: int) -> tuple[float, float]:
    """Exact tail sums (F_s, G_r), s in [1, 2^n]: the sums of |f(k)| and
    |g(k)| that ``profile.truncated(s, r)`` drops. They cover the two-corner
    truncation only; a streamlined one also drops the bottom-right corner."""
    n_pts = 2 ** profile.n_qubits
    if not 1 <= s <= n_pts:
        raise ValueError(f"s must be in [1, {n_pts}], got {s}")
    kept = profile.truncated(s, r)
    return float(np.sum(np.abs(profile.f - kept.f))), float(np.sum(np.abs(profile.g - kept.g)))
