"""DVR Hamiltonian assembly, band truncation and classical benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from .errors import InvariantViolationError
from .grids import BandProfile, GridSpec, band_profile, tail_sums
from .potentials import potential_on_grid

# lowest_levels uses shift-invert Lanczos from 1024 points, while the grid
# has at least 64 points per level asked for, and dense eigvalsh
# otherwise. Measured on one core with OpenBLAS, Morse H, 8 levels, dense
# against shift-invert: 17 ms against 19 ms at 512 points, 0.14 s against
# 0.07 s at 1024, 7.8 s against 2.0 s at 4096. At 2048 points shift-invert
# still wins at 32 levels (0.55 s against 0.9 s) and loses at 128 (1.3 s).
SHIFT_INVERT_MIN_POINTS = 1024
SHIFT_INVERT_POINTS_PER_LEVEL = 64


@dataclass(frozen=True)
class DvrHamiltonian:
    grid: GridSpec
    potential_diag: np.ndarray
    full: np.ndarray
    profile: BandProfile  # kinetic part only; the potential folds into d

    @property
    def n_qubits(self) -> int:
        return self.grid.n_qubits

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def kinetic(self) -> np.ndarray:
        """Dense kinetic matrix, rebuilt from the band profile on each access."""
        return self.profile.to_matrix()


def assemble(grid: GridSpec, potential=None) -> DvrHamiltonian:
    """Build H = T + diag(V) on the grid. ``potential=None`` means V = 0."""
    profile = band_profile(grid)
    if potential is None:
        v = np.zeros(grid.n_points)
    else:
        v = potential_on_grid(potential, grid)
    full = profile.to_matrix()
    np.fill_diagonal(full, profile.d + v)
    for arr in (v, full):
        arr.setflags(write=False)
    return DvrHamiltonian(grid, v, full, profile)


def retained_antidiagonals(n_qubits: int, r: int, streamlined: bool = False) -> np.ndarray:
    """Indices k = i+j of the anti-diagonals kept by a width-r truncation.

    Keeps the first r anti-diagonals (k = 0..r-1) and, unless streamlined,
    the mirrored last r (k = 2^(n+1)-1-r .. 2^(n+1)-2).
    """
    n_pts = 2 ** n_qubits
    kept = np.zeros(2 * n_pts - 1, dtype=bool)
    r = min(r, 2 * n_pts - 1)
    kept[:r] = True
    if not streamlined and r > 0:
        kept[2 * n_pts - 1 - r :] = True
    return kept


def truncate(h: DvrHamiltonian, s: int, r: int, streamlined: bool = False) -> np.ndarray:
    """Kinetic truncation T^(s,r) + diag(V).

    The band part f(|i-j|) is kept for |i-j| < s and the anti-diagonal
    part g(i+j) where i+j falls in the retained window of width r; the
    two conditions act on their own terms, matching the band/anti-diagonal
    operator decomposition a measurement plan assembles. The diagonal
    (including the potential) is always kept; s=1, r=0 degenerates to a
    diagonal-only kinetic part.
    """
    if s < 0 or r < 0:
        raise ValueError(f"s and r must be non-negative, got s={s}, r={r}")
    n_pts = h.n_points
    idx = np.arange(n_pts)
    diff = np.abs(idx[:, None] - idx[None, :])
    summ = idx[:, None] + idx[None, :]
    kept_anti = retained_antidiagonals(h.n_qubits, r, streamlined)
    profile = h.profile
    out = np.where(diff < s, profile.f[diff], 0.0) + np.where(kept_anti[summ], profile.g[summ], 0.0)
    np.fill_diagonal(out, np.diag(h.full))
    return out


def truncation_error_bound(profile: BandProfile, s: int, r: int) -> float:
    """Upper bound 2*F_s + G_r on |<psi|(T - T^(s,r))|psi>| for unit psi."""
    f_tail, g_tail = tail_sums(profile, s, r)
    return 2.0 * f_tail + g_tail


def classical_spectrum(matrix: np.ndarray, count: int | None = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a symmetric matrix, ascending."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    scale = max(np.max(np.abs(matrix)), 1.0)
    if np.max(np.abs(matrix - matrix.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    vals = scipy.linalg.eigvalsh(matrix)
    if count is not None:
        vals = vals[:count]
    return vals


def lowest_levels(h: DvrHamiltonian, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of H, ascending.

    Grids below SHIFT_INVERT_MIN_POINTS, or with fewer than
    SHIFT_INVERT_POINTS_PER_LEVEL points per level, use dense
    ``classical_spectrum``. Otherwise H - sigma*I with sigma = min V
    is Cholesky-factored and Lanczos (ARPACK) finds the largest eigenvalues
    of its inverse. The kinetic matrix is positive definite for every grid
    variant, so sigma lies below the spectrum; a failed factorization
    means it does not, and raises InvariantViolationError.
    """
    n_pts = h.n_points
    if not 1 <= count <= n_pts:
        raise ValueError(f"count must be in [1, {n_pts}], got {count}")
    if n_pts < SHIFT_INVERT_MIN_POINTS or count * SHIFT_INVERT_POINTS_PER_LEVEL > n_pts:
        return classical_spectrum(h.full, count)

    sigma = float(np.min(h.potential_diag))
    # H is symmetric, so copying its transpose gives H in Fortran order,
    # which LAPACK factors and solves with in place instead of copying.
    shifted = np.array(h.full.T)
    shifted.flat[:: n_pts + 1] -= sigma
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"H - min(V) is not positive definite: {exc}") from exc
    inverse = LinearOperator(
        (n_pts, n_pts), matvec=lambda x: scipy.linalg.cho_solve(factor, x, check_finite=False), dtype=float
    )
    # A fixed random start vector keeps the result reproducible and, unlike
    # a constant one, overlaps both parities of a symmetric potential.
    start = np.random.default_rng(0).standard_normal(n_pts)
    mu = eigsh(inverse, k=count, which="LA", tol=0, v0=start, return_eigenvectors=False)
    return np.sort(sigma + 1.0 / mu)
