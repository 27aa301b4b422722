import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrvqe import (
    HarmonicPotential,
    MorsePotential,
    TabulatedPotential,
    assemble,
    build_grid,
    classical_spectrum,
    truncate,
    truncation_error_bound,
)
from dvrvqe import hamiltonian
from dvrvqe.ansatz import linear_ansatz
from dvrvqe.constants import HARTREE_TO_INV_CM
from dvrvqe.grids import VARIANTS, tail_sums
from dvrvqe.hamiltonian import (
    MATRIX_FREE_MIN_POINTS,
    dense_is_faster,
    lowest_levels,
    retained_antidiagonals,
)
from dvrvqe.pauli import decompose
from dvrvqe.search import SearchConfig, greedy_search
from dvrvqe.vqe import ObjectiveConfig, OptimizerConfig, excited_states, gradient, minimize, objective

from conftest import DIATOMIC_MASS, DIATOMIC_MORSE, MASS, MORSE, random_state


def test_zero_potential_gives_pure_kinetic():
    grid = build_grid("infinite", {"x_min": 0.0, "dx": 0.5}, 3, 1.0)
    h = assemble(grid)
    assert np.array_equal(h.full, h.profile.to_matrix())
    assert np.all(h.potential_diag == 0.0)


def test_full_is_kinetic_plus_potential(morse16_radial):
    h = morse16_radial
    assert np.array_equal(h.full, h.profile.to_matrix() + np.diag(h.potential_diag))
    assert not h.full.flags.writeable
    assert h.full is h.full


def test_symmetry_and_dimension(morse16_radial):
    h = morse16_radial
    assert h.full.shape == (16, 16)
    assert np.max(np.abs(h.full - h.full.T)) <= 1e-14 * np.max(np.abs(h.full))


def test_harmonic_levels_n6():
    mass, k_f = 500.0, 0.25
    harm = HarmonicPotential(k_f, center=0.0)
    omega = harm.frequency(mass)
    span = 7.0 * np.sqrt(11.0 / (mass * omega))  # several classical turning points
    grid = build_grid("infinite", {"x_min": -span / 2, "dx": span / 63}, 6, mass)
    h = assemble(grid, harm)
    levels = classical_spectrum(h.full, 6)
    expected = omega * (np.arange(6) + 0.5)
    assert np.max(np.abs(levels / expected - 1.0)) < 1e-6


def test_morse_levels_converged_grid():
    grid = build_grid("infinite", {"x_min": 1.0, "dx": 8.0 / 511}, 9, MASS)
    h = assemble(grid, MORSE)
    levels = classical_spectrum(h.full, 6)
    expected = np.array([MORSE.level(v, MASS) for v in range(6)])
    worst_cm1 = np.max(np.abs(levels - expected)) * HARTREE_TO_INV_CM
    assert worst_cm1 < 0.01


@pytest.mark.parametrize("n", range(2, 7))
def test_finite_lattice_spectrum_exact(n):
    grid = build_grid("finite", {"a": 0.0, "b": 1.0}, n, 0.5)
    h = assemble(grid)
    levels = classical_spectrum(h.full)
    expected = np.pi**2 * np.arange(1, 2**n + 1) ** 2
    assert np.max(np.abs(levels / expected - 1.0)) < 1e-10


def test_classical_spectrum_tiny_cases():
    assert np.allclose(classical_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0])
    with pytest.raises(ValueError):
        classical_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        classical_spectrum(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_classical_spectrum_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        classical_spectrum(np.array([[0.0, bad], [bad, 0.0]]))


def _bad_matrices():
    """(matrix, message) of each fault the shared Hamiltonian check rejects."""
    good = np.diag([1.0, 2.0, 3.0, 4.0]) + 0.5
    nan, infs, skew = good.copy(), good.copy(), good.copy()
    nan[1, 2] = nan[2, 1] = np.nan
    infs[0, 1] = infs[1, 0] = np.inf
    infs[2, 3] = infs[3, 2] = -np.inf
    skew[0, 3] += 1e-9 * np.max(np.abs(good))
    return {
        "non-square": (good[:, :2], "expected a square matrix, got shape (4, 2)"),
        "nan": (nan, "matrix must not contain infs or NaNs"),
        "inf": (infs, "matrix must not contain infs or NaNs"),
        "asymmetric": (skew, "matrix is not symmetric"),
    }


_TWO_QUBITS = linear_ansatz(2, 1)
_SHORT_RUN = OptimizerConfig(max_iter=5, restarts=1)
_DENSE_ENTRY_POINTS = {
    "classical_spectrum": classical_spectrum,
    "decompose": decompose,
    "greedy_search": lambda m: greedy_search(m, SearchConfig(n_blocks=1)),
    "excited_states": lambda m: excited_states(_TWO_QUBITS, m, 1, _SHORT_RUN),
    "objective": lambda m: objective(np.zeros(_TWO_QUBITS.n_params), _TWO_QUBITS.circuit(), ObjectiveConfig(m)),
    "gradient": lambda m: gradient(np.zeros(_TWO_QUBITS.n_params), _TWO_QUBITS.circuit(), ObjectiveConfig(m)),
    "minimize": lambda m: minimize(_TWO_QUBITS, ObjectiveConfig(m), _SHORT_RUN),
}


@pytest.mark.parametrize("fault", list(_bad_matrices()))
@pytest.mark.parametrize("entry", list(_DENSE_ENTRY_POINTS))
def test_every_dense_entry_point_rejects_a_bad_matrix(entry, fault):
    matrix, message = _bad_matrices()[fault]
    with pytest.raises(ValueError) as info:
        _DENSE_ENTRY_POINTS[entry](matrix)
    assert str(info.value) == message


def _dense_verdict(matrix):
    """The message of the whole-matrix form of the check, or None."""
    if not np.all(np.isfinite(matrix)):
        return "matrix must not contain infs or NaNs"
    if np.max(np.abs(matrix - matrix.T)) > 1e-12 * max(np.max(np.abs(matrix)), 1.0):
        return "matrix is not symmetric"
    return None


@given(
    size=st.integers(1, 200),
    fault=st.sampled_from(["nan", "inf", "above", "below", "none"]),
    where=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=129, fault="above", where=(128 / 129, 63 / 129), seed=0)
@example(size=129, fault="nan", where=(128 / 129, 128 / 129), seed=0)
@example(size=128, fault="above", where=(64 / 128, 63 / 128), seed=1)
@example(size=65, fault="below", where=(0.0, 64 / 65), seed=2)
@settings(max_examples=60, deadline=None)
def test_panelled_check_agrees_with_the_dense_check(size, fault, where, seed):
    """One bad entry anywhere, panel edges included, gets the verdict the
    whole-matrix form gives; an asymmetry just below the tolerance passes."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((size, size))
    matrix = matrix + matrix.T
    i, j = (int(w * size) for w in where)
    scale = max(np.max(np.abs(matrix)), 1.0)
    if fault in ("nan", "inf"):
        matrix[i, j] = np.nan if fault == "nan" else -np.inf
    elif fault != "none" and i != j:
        matrix[i, j] += (2e-12 if fault == "above" else 0.5e-12) * scale
    expected = _dense_verdict(matrix)
    if expected is None:
        assert hamiltonian._symmetric_matrix(matrix) is matrix
    else:
        with pytest.raises(ValueError, match=expected):
            hamiltonian._symmetric_matrix(matrix)


def test_symmetric_matrix_check_allocates_no_dense_temporary():
    """At 1024 points, where H takes 8 MiB, the check allocates below 2 MiB;
    the whole-matrix form allocated two 8 MiB temporaries."""
    grid = build_grid("finite", {"a": 2.55, "b": 4.55}, 10, DIATOMIC_MASS)
    matrix = assemble(grid, DIATOMIC_MORSE).full
    tracemalloc.start()
    try:
        hamiltonian._symmetric_matrix(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


class TestTruncate:
    def test_full_retention_is_identity(self, morse16_radial):
        h = morse16_radial
        assert np.allclose(truncate(h, 16, 16), h.full, atol=1e-15)

    def test_diagonal_only(self, morse16_radial):
        h = morse16_radial
        t = truncate(h, 1, 0)
        assert np.allclose(t, np.diag(np.diag(h.full)))

    def test_s1_keeps_g_part(self, morse16_radial):
        h = morse16_radial
        t = truncate(h, 1, 2)
        assert t[0, 1] == pytest.approx(h.profile.g[1], abs=1e-15)

    def test_streamlined_drops_outer_corner(self, morse16_radial):
        h = morse16_radial
        t = truncate(h, 1, 2, streamlined=True)
        assert t[0, 1] == pytest.approx(h.profile.g[1], abs=1e-15)
        assert t[15, 14] == 0.0

    def test_spectral_error_within_bound(self, morse16_radial):
        h = morse16_radial
        rng = np.random.default_rng(42)
        for s, r in ((2, 1), (4, 2), (8, 4)):
            t = truncate(h, s, r)
            bound = truncation_error_bound(h.profile, s, r)
            for _ in range(100):
                psi = random_state(rng, 16)
                error = abs(np.vdot(psi, (h.full - t) @ psi).real)
                assert error <= bound + 1e-12


class TestTruncationErrorBound:
    def test_equals_tail_sums(self, morse16_radial):
        profile = morse16_radial.profile
        f_tail, g_tail = tail_sums(profile, 2, 3)
        assert truncation_error_bound(profile, 2, 3) == pytest.approx(2 * f_tail + g_tail)

    def test_full_retention_zero(self, morse16_radial):
        profile = morse16_radial.profile
        assert truncation_error_bound(profile, 16, 16) == 0.0

    def test_infinite_case_doubles_f2(self):
        profile = assemble(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 4, 0.5)).profile
        f2, _ = tail_sums(profile, 2, 1)
        assert truncation_error_bound(profile, 2, 1) == pytest.approx(2.0 * f2)


def test_retained_antidiagonals_windows():
    kept = retained_antidiagonals(3, 2)
    assert set(np.flatnonzero(kept)) == {0, 1, 13, 14}
    kept = retained_antidiagonals(3, 2, streamlined=True)
    assert set(np.flatnonzero(kept)) == {0, 1}
    assert np.all(retained_antidiagonals(3, 8))
    assert not np.any(retained_antidiagonals(3, 0))


def test_eigenvalue_deviation_monotone_in_s():
    """Truncation eigenvalues approach the exact ones as bands are added.

    Checked on the infinite-lattice Morse Hamiltonian; truncations of the
    variants with anti-diagonal structure show small non-monotone blips.
    """
    grid = build_grid("infinite", {"x_min": 1.6, "dx": (4.5 - 1.6) / 15}, 4, MASS)
    h = assemble(grid, MORSE)
    exact = classical_spectrum(h.full)
    for r in (1, 4, 16):
        deviations = []
        for s in range(1, 17):
            approx = classical_spectrum(truncate(h, s, r))
            deviations.append(np.max(np.abs(approx - exact)))
        assert all(b <= a + 1e-12 for a, b in zip(deviations, deviations[1:]))


POTENTIAL_KINDS = ("morse", "harmonic", "tabulated")


def random_potential(kind, rng):
    if kind == "morse":
        return MorsePotential(rng.uniform(0.01, 0.2), rng.uniform(0.5, 2.0), rng.uniform(2.0, 3.5))
    if kind == "harmonic":
        return HarmonicPotential(rng.uniform(0.01, 1.0), rng.uniform(2.0, 4.0))
    x = np.linspace(0.0, 6.0, int(rng.integers(2, 40)))
    return TabulatedPotential(x, rng.uniform(-0.1, 0.1, x.size))


def grid_on(variant, n):
    params = {"a": 1.2, "b": 5.5, "x_min": 1.2, "dx": 4.3 / 2**n}
    return build_grid(variant, params, n, MASS)


def every_variant_and_kind(n):
    """One explicit example per grid variant and potential kind at n qubits, on top of the drawn ones."""

    def decorate(test):
        for i, (variant, kind) in enumerate(itertools.product(VARIANTS, POTENTIAL_KINDS)):
            test = example(variant=variant, kind=kind, n=n, count=1 + 7 * i % 16, seed=i)(test)
        return test

    return decorate


def record_matmat(monkeypatch):
    """Record calls to DvrHamiltonian.matmat; the returned list gets each call's column count."""
    calls = []
    matmat = hamiltonian.DvrHamiltonian.matmat

    def recorded(self, block):
        calls.append(block.shape[1])
        return matmat(self, block)

    monkeypatch.setattr(hamiltonian.DvrHamiltonian, "matmat", recorded)
    return calls


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    kind=st.sampled_from(POTENTIAL_KINDS),
    n=st.integers(1, 8),
    columns=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmat_matches_dense(variant, kind, n, columns, seed):
    """The FFT matvec reproduces H, the diagonal d that replaces f(0) + g(2i) included."""
    rng = np.random.default_rng(seed)
    h = assemble(grid_on(variant, n), random_potential(kind, rng))
    block = rng.standard_normal((h.n_points, columns))
    product = h.matmat(block)
    assert product.shape == block.shape
    assert np.max(np.abs(product - h.full @ block)) <= 1e-13 * np.max(np.abs(h.full))


def test_orthonormalize_drops_dependent_directions():
    rng = np.random.default_rng(7)
    basis = np.linalg.qr(rng.standard_normal((64, 4)))[0]
    fresh = rng.standard_normal((64, 4)) * [1e-9, 1.0, 1e6, 1e-5]
    dependent = [np.zeros(64), 3.0 * basis[:, 1], fresh[:, :3] @ [1.0, 2.0, 3.0]]
    # Mostly in the span of basis, so its fresh part carries rounding of about
    # 1e-11 relative, and one projection would leave it that far off orthogonal.
    nearly_in_basis = fresh[:, 3] + basis @ [1.0, 2.0, 3.0, 4.0]
    block = np.column_stack([fresh[:, 0], *dependent, fresh[:, 1:3], nearly_in_basis])
    out = hamiltonian._orthonormalize(block, basis)
    assert out.shape == (64, 4)
    assert np.max(np.abs(out.T @ out - np.eye(4))) <= 1e-14
    assert np.max(np.abs(basis.T @ out)) <= 1e-14
    projected = fresh - basis @ (basis.T @ fresh)
    projected /= np.linalg.norm(projected, axis=0)
    assert np.max(np.abs(projected - out @ (out.T @ projected))) <= 1e-10
    assert hamiltonian._orthonormalize(np.empty((64, 0)), basis).shape == (64, 0)


class TestLowestLevels:
    # The smallest grid and the largest count that take the matrix-free path.
    N_QUBITS = MATRIX_FREE_MIN_POINTS.bit_length() - 1
    MAX_COUNT = 16

    @settings(max_examples=6, deadline=None)
    @every_variant_and_kind(N_QUBITS)
    @example(variant="finite", kind="morse", n=N_QUBITS + 1, count=45, seed=0)  # the crossover at 2048 points
    @given(
        variant=st.sampled_from(VARIANTS),
        kind=st.sampled_from(POTENTIAL_KINDS),
        n=st.just(N_QUBITS),
        count=st.integers(1, MAX_COUNT),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lobpcg_matches_dense(self, variant, kind, n, count, seed):
        h = assemble(grid_on(variant, n), random_potential(kind, np.random.default_rng(seed)))
        levels = lowest_levels(h, count)
        assert "full" not in vars(h)
        dense = classical_spectrum(h.full, count)
        assert levels.shape == (count,)
        assert np.max(np.abs(levels - dense)) <= 1e-12 * np.max(np.abs(h.full))

    def test_no_dense_h_at_4096_points(self):
        h = assemble(grid_on("finite", 12), MORSE)
        levels = lowest_levels(h, 8)
        assert "full" not in vars(h)
        expected = [MORSE.level(v, MASS) for v in range(8)]
        assert np.max(np.abs(levels - expected)) * HARTREE_TO_INV_CM < 0.01

    def test_coarse_start_converges_in_one_iteration(self, monkeypatch):
        """README Morse at 4096 points: the preconditioner's row sums, the start block and one iteration."""
        calls = record_matmat(monkeypatch)
        h = assemble(build_grid("finite", {"a": 2.55, "b": 4.55}, 12, DIATOMIC_MASS), DIATOMIC_MORSE)
        lowest_levels(h, 8)
        assert len(calls) <= 3
        assert "full" not in vars(h)

    @pytest.mark.parametrize(
        "kind, seed, count",
        [("tabulated", 180439260, 2), ("morse", 822985565, 14), ("harmonic", 74845286, 16)],
        ids=["tabulated", "morse", "harmonic"],
    )
    def test_half_infinite_cases_converge_in_one_run(self, monkeypatch, kind, seed, count):
        """Cases on which scipy's lobpcg stalled or broke down, from a random or the coarse start."""
        calls = record_matmat(monkeypatch)
        h = assemble(grid_on("half-infinite", 11), random_potential(kind, np.random.default_rng(seed)))
        levels = lowest_levels(h, count)
        assert len(calls) <= 16
        dense = classical_spectrum(h.full, count)
        assert np.max(np.abs(levels - dense)) <= 1e-12 * np.max(np.abs(h.full))

    @settings(max_examples=6, deadline=None)
    @every_variant_and_kind(N_QUBITS)
    @given(
        variant=st.sampled_from(VARIANTS),
        kind=st.sampled_from(POTENTIAL_KINDS),
        n=st.integers(N_QUBITS, N_QUBITS + 1),
        count=st.integers(1, MAX_COUNT),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_coarse_start_columns_are_orthogonal(self, variant, kind, n, count, seed):
        """So the start never has dependent columns that LOBPCG would have to refill."""
        h = assemble(grid_on(variant, n), random_potential(kind, np.random.default_rng(seed)))
        size = max(count + 4, -(-3 * count // 2))
        start = hamiltonian._coarse_start(h, size)
        unit = start / np.linalg.norm(start, axis=0)
        assert np.max(np.abs(unit.T @ unit - np.eye(size))) <= 1e-12

    def test_crossover(self):
        assert dense_is_faster(MATRIX_FREE_MIN_POINTS // 2, 1)
        for n_points, largest in ((1024, 16), (2048, 45), (4096, 128)):
            assert not dense_is_faster(n_points, largest)
            assert dense_is_faster(n_points, largest + 1)

    def test_dense_path_is_classical_spectrum(self, morse16_radial):
        assert np.array_equal(lowest_levels(morse16_radial, 16), classical_spectrum(morse16_radial.full))
        h = assemble(grid_on("finite", self.N_QUBITS), MORSE)
        assert np.array_equal(lowest_levels(h, self.MAX_COUNT + 1), classical_spectrum(h.full, self.MAX_COUNT + 1))

    def test_failed_factorization_raises(self):
        h = assemble(grid_on("finite", self.N_QUBITS), MORSE)
        sunk = dataclasses.replace(h, profile=dataclasses.replace(h.profile, d=h.profile.d - 1e3 * np.max(h.profile.d)))
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            lowest_levels(sunk, 1)

    def test_unconverged_residual_raises(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "LOBPCG_MAX_ITER", 2)
        h = assemble(grid_on("finite", self.N_QUBITS), MORSE)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 2 iterations"):
            lowest_levels(h, 8)

    @pytest.mark.parametrize("count", [0, -2, 17])
    def test_count_out_of_range(self, morse16_radial, count):
        with pytest.raises(ValueError, match="count"):
            lowest_levels(morse16_radial, count)
