"""DVR Hamiltonian assembly, band truncation and classical benchmarks.

``truncate`` is the dense form of ``BandProfile.truncated``, the definition.

The dense eigensolve runs on numpy. Only LOBPCG, from MATRIX_FREE_MIN_POINTS
up, imports scipy, at first use: ``scipy.linalg`` in its coarse start and
preconditioner, ``scipy.fft`` in the matvec and the coarse start. The imports
cost a fresh process several tenths of a second, more than most tasks compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# retained_antidiagonals is imported here for callers that read it from this module.
from .grids import BandProfile, GridSpec, band_profile, build_grid, retained_antidiagonals, tail_sums
from .potentials import potential_on_grid

# lowest_levels runs LOBPCG on the FFT matvec from MATRIX_FREE_MIN_POINTS up
# and dense eigvalsh below, or when more levels are asked for than
# 16 (N/1024)^1.5. That count was the crossover for scipy's lobpcg; the
# LOBPCG here beats dense on README Morse H well past it (README,
# "Crossover") but loses on a random tabulated potential at 2048 points
# and 120 levels, so the rule stays.
MATRIX_FREE_MIN_POINTS = 1024
# Band half-width s of the LOBPCG preconditioner, |i-j| < s.
PRECONDITIONER_BANDS = 32
# LOBPCG stops when every residual |Hx - lambda x| is below this times max|H|;
# rounding in the FFT matvec sits near 1e-14 times max|H|.
RESIDUAL_TOL = 1e-11
LOBPCG_MAX_ITER = 500


@dataclass(frozen=True)
class DvrHamiltonian:
    grid: GridSpec
    potential_diag: np.ndarray
    profile: BandProfile  # kinetic part only; the potential folds into d

    @property
    def n_qubits(self) -> int:
        return self.grid.n_qubits

    @property
    def n_points(self) -> int:
        return self.grid.n_points

    @property
    def diagonal(self) -> np.ndarray:
        """d + V, the diagonal of H."""
        return self.profile.d + self.potential_diag

    @cached_property
    def full(self) -> np.ndarray:
        """Dense read-only H, built on first access and kept."""
        full = self.profile.to_matrix(self.diagonal)
        full.setflags(write=False)
        return full

    @cached_property
    def _fft_kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        from scipy.fft import rfft

        n_pts = self.n_points
        f, g = self.profile.f, self.profile.g
        # Toeplitz f(|i-j|) is the leading block of the 2N circulant with
        # first column f(0..N-1), 0, f(N-1..1).
        toeplitz = rfft(np.concatenate([f, [0.0], f[:0:-1]]))
        # Hankel g(i+j) is entry 2N-2-i of the linear convolution of reversed
        # g with x, which a 2N circulant holds unaliased. Reading the entries
        # in reverse, y[-i-2], is exp(2 pi i k 2/2N) conj(Y[k]) for real y.
        k = np.arange(n_pts + 1)
        hankel = np.exp(2j * np.pi * k / n_pts) * np.conj(rfft(g[::-1], n=2 * n_pts))
        # full writes d + V over f(0) + g(2i) on the diagonal.
        diagonal = self.diagonal - f[0] - g[::2]
        return toeplitz[:, None], hankel[:, None], diagonal[:, None]

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """H @ block for an (N, m) block, without forming H: O(N log N) per column."""
        from scipy.fft import irfft, rfft

        toeplitz, hankel, diagonal = self._fft_kernels
        spectrum = rfft(block, n=2 * self.n_points, axis=0)
        out = irfft(toeplitz * spectrum + hankel * np.conj(spectrum), n=2 * self.n_points, axis=0)
        out = out[: self.n_points]
        out += diagonal * block
        return out


def assemble(grid: GridSpec, potential=None) -> DvrHamiltonian:
    """H = T + diag(V) on the grid as its band profile and V; ``potential=None``
    means V = 0. The dense matrix ``full`` is built on first access."""
    profile = band_profile(grid)
    if potential is None:
        v = np.zeros(grid.n_points)
    else:
        v = potential_on_grid(potential, grid)
    v.setflags(write=False)
    return DvrHamiltonian(grid, v, profile)


def truncate(h: DvrHamiltonian, s: int, r: int, streamlined: bool = False) -> np.ndarray:
    """Kinetic truncation T^(s,r) + diag(V): the dense matrix of
    ``h.profile.truncated(s, r, streamlined)`` with the diagonal d + V, which
    is always kept; s=1, r=0 leaves a diagonal-only kinetic part."""
    return h.profile.truncated(s, r, streamlined).to_matrix(h.diagonal)


def truncation_error_bound(profile: BandProfile, s: int, r: int) -> float:
    """Upper bound 2*F_s + G_r on |<psi|(T - T^(s,r))|psi>| for unit psi and
    the two-corner truncation. A streamlined one can exceed it: 1.16e-4 against
    1.04e-4 hartree on the finite README Morse grid at n=3, s=8, r=4."""
    f_tail, g_tail = tail_sums(profile, s, r)
    return 2.0 * f_tail + g_tail


def classical_spectrum(matrix: np.ndarray, count: int | None = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a symmetric matrix, ascending."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must not contain infs or NaNs")
    scale = max(np.max(np.abs(matrix)), 1.0)
    if np.max(np.abs(matrix - matrix.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    vals = np.linalg.eigvalsh(matrix)
    if count is not None:
        vals = vals[:count]
    return vals


def lowest_levels(h: DvrHamiltonian, count: int) -> np.ndarray:
    """The ``count`` lowest eigenvalues of H, ascending.

    Dense ``classical_spectrum`` on grids below MATRIX_FREE_MIN_POINTS or
    when ``count`` is above the crossover (see ``dense_is_faster``).
    Otherwise block LOBPCG (Knyazev 2001) on ``h.matmat``, which never
    forms H: max(count + 4, 1.5 count) vectors from ``_coarse_start``, each
    iteration adding the preconditioned residuals and the last directions
    of the columns not yet converged (soft locking, Duersch et al. 2018),
    orthonormalized by ``_orthonormalize``. It stops when the first
    ``count`` residuals are below RESIDUAL_TOL * max|H|; a failed
    factorization of ``_band_preconditioner``, or no convergence in
    LOBPCG_MAX_ITER iterations, raises LinAlgError.
    """
    n_pts = h.n_points
    if not 1 <= count <= n_pts:
        raise ValueError(f"count must be in [1, {n_pts}], got {count}")
    if dense_is_faster(n_pts, count):
        return classical_spectrum(h.full, count)

    tol = RESIDUAL_TOL * _max_entry_bound(h)
    size = max(count + 4, -(-3 * count // 2))
    preconditioner = _band_preconditioner(h)
    basis = _orthonormalize(_coarse_start(h, size), np.empty((n_pts, 0)))
    products, directions = h.matmat(basis), basis[:, :0]
    for iteration in range(LOBPCG_MAX_ITER + 1):
        gram = basis.T @ products
        values, vectors = np.linalg.eigh(0.5 * (gram + gram.T))
        values, vectors = values[:size], vectors[:, :size]
        block, products = basis @ vectors, products @ vectors
        residuals = products - block * values
        norms = np.linalg.norm(residuals, axis=0)
        worst = float(np.max(norms[:count]))
        if worst <= tol or iteration == LOBPCG_MAX_ITER:
            break
        active = norms > tol
        # On the first pass directions is empty and P is zero columns, which the SVQB drops.
        steps = np.hstack([preconditioner(residuals[:, active]), directions @ vectors[size:, active]])
        directions = _orthonormalize(steps, block)
        basis = np.hstack([block, directions])
        products = np.hstack([products, h.matmat(directions)])
    if not worst <= tol:
        raise np.linalg.LinAlgError(
            f"LOBPCG did not converge in {LOBPCG_MAX_ITER} iterations:"
            f" residual {worst:.3g} above the tolerance {tol:.3g}"
        )
    return values[:count]


def _orthonormalize(block: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``block`` projected off the orthonormal columns of ``basis`` and
    orthonormalized by SVQB (Stathopoulos & Wu 2002), in two passes. A pass
    scales each column by its norm before the projection and maps the block
    by the eigenvectors of its Gram matrix over the square roots of their
    eigenvalues, dropping those below 1e-12 of the largest: the directions
    that depend on the others or on ``basis``, zero columns among them. An
    empty block comes back unchanged."""
    for _ in range(2):
        scale = 1.0 / np.sqrt(np.sum(block**2, axis=0) + np.finfo(float).tiny)
        block = block - basis @ (basis.T @ block)
        gram = block.T @ block
        values, vectors = np.linalg.eigh(gram * scale * scale[:, None])
        keep = values > 1e-12 * values.max(initial=0.0)
        block = block @ (scale[:, None] * vectors[:, keep] / np.sqrt(values[keep]))
    return block


def _coarse_start(h: DvrHamiltonian, size: int) -> np.ndarray:
    """The lowest ``size`` eigenvectors of H on a coarse finite grid, lifted to h's grid.

    The coarse grid spans (x_0 - dx, x_{N-1} + dx), the box of the finite
    variant and the box that encloses the other two, with 2^nc points,
    nc = min(n - 1, max(7, bit_length(8 size - 1))), and V interpolated
    onto it. The finite-interval DVR is the particle-in-a-box sine basis
    sampled on the grid, so DST-I takes grid values to sine coefficients;
    zero-padding those to N and transforming back gives the start block.
    """
    import scipy.linalg
    from scipy.fft import dst, idst

    grid = h.grid
    n_coarse = min(grid.n_qubits - 1, max(7, (8 * size - 1).bit_length()))
    box = {"a": grid.points[0] - grid.dx, "b": grid.points[-1] + grid.dx}
    coarse = build_grid("finite", box, n_coarse, grid.mass)
    profile = band_profile(coarse)
    matrix = profile.to_matrix(profile.d + np.interp(coarse.points, grid.points, h.potential_diag))
    _, vectors = scipy.linalg.eigh(matrix, subset_by_index=[0, size - 1], driver="evr")
    return idst(dst(vectors, type=1, axis=0), type=1, n=h.n_points, axis=0)


def dense_is_faster(n_points: int, count: int) -> bool:
    """Whether dense eigvalsh beats LOBPCG for ``count`` levels of N points:
    below MATRIX_FREE_MIN_POINTS, or above 16 (N/1024)^1.5 levels."""
    return n_points < MATRIX_FREE_MIN_POINTS or count**2 * 1024**3 > 256 * n_points**3


def _max_entry_bound(h: DvrHamiltonian) -> float:
    """max|d + V| or max|f| + max|g|, whichever is larger: max|H| within a factor 2."""
    profile = h.profile
    return max(float(np.max(np.abs(h.diagonal))), float(np.max(np.abs(profile.f)) + np.max(np.abs(profile.g))))


def _band_preconditioner(h: DvrHamiltonian):
    """Banded Cholesky solve with P, the band |i-j| < PRECONDITIONER_BANDS of H.

    The dropped alternating tail would leave P indefinite, so the row sums
    of the dropped entries, H 1 - P 1, are added to its diagonal (as in
    full_plan's diagonal compensation), and P is shifted by -min(V) so that
    a negative potential keeps it positive definite.
    """
    import scipy.linalg

    n_pts = h.n_points
    profile = h.profile
    bands = min(PRECONDITIONER_BANDS, n_pts)
    # Lower banded storage: row k holds H[i + k, i] = f(k) + g(2i + k).
    band = np.zeros((bands, n_pts))
    band[0] = h.diagonal
    row_sums = h.diagonal.copy()
    for k in range(1, bands):
        band[k, : n_pts - k] = profile.f[k] + profile.g[k : 2 * n_pts - k : 2]
        row_sums[: n_pts - k] += band[k, : n_pts - k]
        row_sums[k:] += band[k, : n_pts - k]
    band[0] += h.matmat(np.ones((n_pts, 1)))[:, 0] - row_sums - np.min(h.potential_diag)
    try:
        factor = scipy.linalg.cholesky_banded(band, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"the banded LOBPCG preconditioner is not positive definite: {exc}") from exc
    return lambda block: scipy.linalg.cho_solve_banded((factor, True), block, check_finite=False)
