import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
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
from dvrvqe.constants import HARTREE_TO_INV_CM
from dvrvqe.errors import InvariantViolationError
from dvrvqe.grids import tail_sums
from dvrvqe.hamiltonian import (
    SHIFT_INVERT_MIN_POINTS,
    SHIFT_INVERT_POINTS_PER_LEVEL,
    lowest_levels,
    retained_antidiagonals,
)

from conftest import MASS, MORSE, random_state


def test_zero_potential_gives_pure_kinetic():
    grid = build_grid("infinite", {"x_min": 0.0, "dx": 0.5}, 3, 1.0)
    h = assemble(grid)
    assert np.array_equal(h.full, h.kinetic)
    assert np.all(h.potential_diag == 0.0)


def test_full_is_kinetic_plus_potential(morse16_radial):
    h = morse16_radial
    assert np.array_equal(h.full, h.kinetic + np.diag(h.potential_diag))
    assert not h.full.flags.writeable


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


class TestLowestLevels:
    # The smallest grid and the largest count that take the shift-invert path.
    N_QUBITS = SHIFT_INVERT_MIN_POINTS.bit_length() - 1
    MAX_COUNT = SHIFT_INVERT_MIN_POINTS // SHIFT_INVERT_POINTS_PER_LEVEL

    @staticmethod
    def grid(variant, n):
        params = {"a": 1.2, "b": 5.5, "x_min": 1.2, "dx": 4.3 / 2**n}
        return build_grid(variant, params, n, MASS)

    @settings(max_examples=12, deadline=None)
    @given(
        variant=st.sampled_from(["infinite", "half-infinite", "finite"]),
        kind=st.sampled_from(["morse", "harmonic", "tabulated"]),
        count=st.integers(1, MAX_COUNT),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shift_invert_matches_dense(self, variant, kind, count, seed):
        rng = np.random.default_rng(seed)
        if kind == "morse":
            potential = MorsePotential(rng.uniform(0.01, 0.2), rng.uniform(0.5, 2.0), rng.uniform(2.0, 3.5))
        elif kind == "harmonic":
            potential = HarmonicPotential(rng.uniform(0.01, 1.0), rng.uniform(2.0, 4.0))
        else:
            x = np.linspace(0.0, 6.0, int(rng.integers(2, 40)))
            potential = TabulatedPotential(x, rng.uniform(-0.1, 0.1, x.size))
        h = assemble(self.grid(variant, self.N_QUBITS), potential)
        levels = lowest_levels(h, count)
        dense = classical_spectrum(h.full, count)
        assert levels.shape == (count,)
        assert np.max(np.abs(levels - dense)) <= 1e-12 * np.max(np.abs(h.full))

    def test_dense_path_is_classical_spectrum(self, morse16_radial):
        assert np.array_equal(lowest_levels(morse16_radial, 16), classical_spectrum(morse16_radial.full))
        h = assemble(self.grid("finite", self.N_QUBITS), MORSE)
        assert np.array_equal(lowest_levels(h, self.MAX_COUNT + 1), classical_spectrum(h.full, self.MAX_COUNT + 1))

    def test_shift_above_the_spectrum_raises(self):
        h = assemble(self.grid("finite", self.N_QUBITS), MORSE)
        lifted = dataclasses.replace(h, potential_diag=h.potential_diag + 1.0)
        with pytest.raises(InvariantViolationError, match="not positive definite"):
            lowest_levels(lifted, 1)

    @pytest.mark.parametrize("count", [0, -2, 17])
    def test_count_out_of_range(self, morse16_radial, count):
        with pytest.raises(ValueError, match="count"):
            lowest_levels(morse16_radial, count)
