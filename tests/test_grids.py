from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrvqe.grids import VARIANTS, band_profile, build_grid, tail_sums


def sine_basis_kinetic(n_pts, a, b, mass):
    """Finite-interval kinetic matrix via the sine-transform diagonalization.

    Independent oracle: the DVR matrix is the orthogonal sine transform of
    diag(pi^2 k^2 hbar^2 / (2 m (b-a)^2)).
    """
    big_n = n_pts + 1
    j = np.arange(1, n_pts + 1)
    u = np.sqrt(2.0 / big_n) * np.sin(np.pi * np.outer(j, j) / big_n)
    eigenvalues = np.pi**2 * j**2 / (2.0 * mass * (b - a) ** 2)
    return u @ np.diag(eigenvalues) @ u.T


def kinetic_direct(grid):
    """Element-wise closed-form kinetic matrix, independent of the band profile."""
    n_pts = 2 ** grid.n_qubits
    e_t = grid.kinetic_scale
    i = np.arange(n_pts)[:, None]
    j = np.arange(n_pts)[None, :]
    sign = (-1.0) ** (i - j)
    if grid.variant == "infinite":
        with np.errstate(divide="ignore"):
            t = e_t * sign * 2.0 / np.where(i == j, 1.0, (i - j).astype(float)) ** 2
        np.fill_diagonal(t, e_t * np.pi**2 / 3.0)
    elif grid.variant == "half-infinite":
        ii, jj = i + 1, j + 1  # 1-based physical indices
        with np.errstate(divide="ignore"):
            off = 2.0 / np.where(ii == jj, 1.0, (ii - jj).astype(float)) ** 2 - 2.0 / (ii + jj) ** 2
        t = e_t * sign * off
        diag = e_t * (np.pi**2 / 3.0 - 1.0 / (2.0 * np.arange(1, n_pts + 1) ** 2))
        np.fill_diagonal(t, diag)
    else:
        big_n = n_pts + 1
        scale = e_t * np.pi**2 / (2.0 * big_n**2)
        ii, jj = i + 1, j + 1
        with np.errstate(divide="ignore"):
            off = (
                1.0 / np.sin(np.pi * np.where(ii == jj, 1, ii - jj) / (2.0 * big_n)) ** 2
                - 1.0 / np.sin(np.pi * (ii + jj) / (2.0 * big_n)) ** 2
            )
        t = scale * sign * off
        diag = scale * (
            (2.0 * big_n**2 + 1.0) / 3.0
            - 1.0 / np.sin(np.pi * np.arange(1, n_pts + 1) / big_n) ** 2
        )
        np.fill_diagonal(t, diag)
    return t


class TestBuildGrid:
    def test_finite_interior_points(self):
        grid = build_grid("finite", {"a": 0.0, "b": 1.0}, 2, 0.5)
        assert np.allclose(grid.points, [0.2, 0.4, 0.6, 0.8])
        assert grid.dx == pytest.approx(0.2)

    def test_infinite_points_and_scale(self):
        grid = build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 1, 0.5)
        assert np.allclose(grid.points, [0.0, 1.0])
        assert grid.kinetic_scale == pytest.approx(1.0)

    def test_half_infinite_starts_at_dx(self):
        grid = build_grid("half-infinite", {"dx": 0.05}, 5, 35000.0)
        assert grid.n_points == 32
        assert grid.points[0] == pytest.approx(0.05)

    @pytest.mark.parametrize("variant,params", [
        ("finite", {"a": 1.0, "b": 1.0}),
        ("finite", {"a": 2.0, "b": 1.0}),
        ("infinite", {"x_min": 0.0, "dx": 0.0}),
        ("half-infinite", {"dx": -0.1}),
    ])
    def test_bad_geometry_rejected(self, variant, params):
        with pytest.raises(ValueError):
            build_grid(variant, params, 3, 1.0)

    def test_bad_mass_and_qubits(self):
        with pytest.raises(ValueError):
            build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 3, 0.0)
        with pytest.raises(ValueError):
            build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 0, 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            build_grid("chebyshev", {}, 3, 1.0)

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": -3.0, "dx": 0.25}),
        ("half-infinite", {"dx": 0.25}),
        ("finite", {"a": -1.0, "b": 2.0}),
    ])
    def test_uniform_increasing_points(self, variant, params):
        grid = build_grid(variant, params, 4, 1.0)
        spacing = np.diff(grid.points)
        assert np.all(spacing > 0)
        assert np.allclose(spacing, grid.dx)


class TestKineticMatrix:
    def test_infinite_n1_closed_form(self):
        grid = build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 1, 0.5)
        t = band_profile(grid).to_matrix()
        expected = np.array([[np.pi**2 / 3.0, -2.0], [-2.0, np.pi**2 / 3.0]])
        assert np.allclose(t, expected, atol=1e-14)

    def test_half_infinite_element(self):
        grid = build_grid("half-infinite", {"dx": 1.0}, 2, 0.5)
        t = band_profile(grid).to_matrix()
        # physical indices (1, 2): (-1) * (2/1 - 2/9)
        assert t[0, 1] == pytest.approx(-16.0 / 9.0, abs=1e-14)

    def test_finite_single_point_matches_sine_eigenvalue(self):
        # One interior point on [0, 1]: T = [pi^2] for hbar^2/2m = 1.
        oracle = sine_basis_kinetic(1, 0.0, 1.0, 0.5)
        assert oracle[0, 0] == pytest.approx(np.pi**2, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_finite_matches_sine_oracle(self, n):
        grid = build_grid("finite", {"a": -0.5, "b": 2.0}, n, 1.3)
        t = band_profile(grid).to_matrix()
        oracle = sine_basis_kinetic(2**n, -0.5, 2.0, 1.3)
        assert np.max(np.abs(t - oracle)) < 1e-10 * np.max(np.abs(t))

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": 0.0, "dx": 0.3}),
        ("half-infinite", {"dx": 0.3}),
        ("finite", {"a": 0.0, "b": 3.0}),
    ])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_symmetry_all_variants(self, variant, params, n):
        t = band_profile(build_grid(variant, params, n, 2.0)).to_matrix()
        assert np.max(np.abs(t - t.T)) <= 1e-14 * np.max(np.abs(t))


class TestBandProfile:
    def test_infinite_band_values(self):
        profile = band_profile(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 2, 0.5))
        assert np.allclose(profile.f[1:4], [-2.0, 0.5, -2.0 / 9.0], atol=1e-15)
        assert np.all(profile.g == 0.0)

    def test_half_infinite_g_from_matrix_residual(self):
        grid = build_grid("half-infinite", {"dx": 1.0}, 3, 0.5)
        profile = band_profile(grid)
        t = band_profile(grid).to_matrix()
        # residual after subtracting the band part must depend only on i+j
        n_pts = 8
        residual = {}
        for i in range(n_pts):
            for j in range(n_pts):
                if i == j:
                    continue
                value = t[i, j] - profile.f[abs(i - j)]
                assert residual.setdefault(i + j, value) == pytest.approx(value, abs=1e-15)
        assert residual[1] == pytest.approx(2.0 / 9.0, abs=1e-15)
        for k_sum, value in residual.items():
            assert profile.g[k_sum] == pytest.approx(value, abs=1e-15)

    def test_finite_profile_is_sine_shaped(self):
        grid = build_grid("finite", {"a": 0.0, "b": 1.0}, 3, 0.5)
        profile = band_profile(grid)
        big_n = 9
        scale = grid.kinetic_scale * np.pi**2 / (2.0 * big_n**2)
        for k in range(1, 8):
            expected = scale * (-1.0) ** k / np.sin(np.pi * k / (2 * big_n)) ** 2
            assert profile.f[k] == pytest.approx(expected, rel=1e-13)
        for k_sum in range(15):
            expected = -scale * (-1.0) ** k_sum / np.sin(np.pi * (k_sum + 2) / (2 * big_n)) ** 2
            assert profile.g[k_sum] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": -2.0, "dx": 0.21}),
        ("half-infinite", {"dx": 0.17}),
        ("finite", {"a": 0.3, "b": 2.9}),
    ])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_reconstruction_exact(self, variant, params, n):
        grid = build_grid(variant, params, n, 1.7)
        direct = kinetic_direct(grid)
        assert np.max(np.abs(band_profile(grid).to_matrix() - direct)) <= 1e-14 * np.max(np.abs(direct))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(VARIANTS),
        st.integers(1, 8),
        st.floats(0.05, 3.0),
        st.floats(-5.0, 5.0),
        st.floats(0.1, 1e5),
    )
    def test_to_matrix_equals_scipy_toeplitz_plus_hankel(self, variant, n, width, start, mass):
        params = {"a": start, "b": start + width, "x_min": start, "dx": width / 2**n}
        profile = band_profile(build_grid(variant, params, n, mass))
        expected = scipy.linalg.toeplitz(profile.f) + np.lib.stride_tricks.sliding_window_view(profile.g, 2**n)
        np.fill_diagonal(expected, profile.d)
        assert np.array_equal(profile.to_matrix(), expected)

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": -2.0, "dx": 0.21}),
        ("half-infinite", {"dx": 0.17}),
        ("finite", {"a": 0.3, "b": 2.9}),
    ])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_to_matrix_writes_the_given_diagonal(self, variant, params, n):
        """The diagonal is d unless one is given; every off-diagonal entry is
        the same bits either way."""
        profile = band_profile(build_grid(variant, params, n, 1.7))
        diagonal = np.random.default_rng(n).standard_normal(2**n)
        default, given = profile.to_matrix(), profile.to_matrix(diagonal)
        assert np.array_equal(np.diag(default), profile.d)
        assert np.array_equal(np.diag(given), diagonal)
        off = ~np.eye(2**n, dtype=bool)
        assert np.array_equal(given[off], default[off])


class TestTailSums:
    def test_infinite_f2_direct_sum(self):
        profile = band_profile(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 4, 0.5))
        f2, _ = tail_sums(profile, 2, 1)
        direct = 2.0 * sum(1.0 / k**2 for k in range(2, 16))
        assert f2 == pytest.approx(direct, rel=1e-14)
        assert f2 < 1.5

    def test_single_term_tail(self):
        n = 4
        profile = band_profile(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, n, 0.5))
        f_last, _ = tail_sums(profile, 2**n - 1, 1)
        assert f_last == pytest.approx(2.0 / (2**n - 1) ** 2, rel=1e-14)

    def test_infinite_g_tail_vanishes(self):
        profile = band_profile(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 4, 0.5))
        for r in range(0, 17):
            assert tail_sums(profile, 1, r)[1] == 0.0


class TestTruncated:
    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": 0.0, "dx": 1.0}),
        ("half-infinite", {"dx": 0.17}),
        ("finite", {"a": 0.3, "b": 2.9}),
    ])
    def test_window_and_tail_sums(self, variant, params):
        """Every (s, r, streamlined) keeps f(k) for k < s and g(k) for k < r,
        and unless streamlined for k > 2N-2-r, bit for bit, with 0 elsewhere;
        tail_sums adds up the rest, against the slice sums of the dropped
        terms. Out-of-range s or r is rejected."""
        for n in range(1, 7):
            profile = band_profile(build_grid(variant, params, n, 0.5))
            n_pts = 2**n
            k_band, k_anti = np.arange(n_pts), np.arange(2 * n_pts - 1)
            for s, r, streamlined in product(range(n_pts + 2), range(n_pts + 1), (False, True)):
                kept = profile.truncated(s, r, streamlined)
                assert kept.d is profile.d and kept.kinetic_scale == profile.kinetic_scale
                band = k_band < s
                anti = (k_anti < r) | (not streamlined and k_anti > 2 * n_pts - 2 - r)
                assert np.array_equal(kept.f[band], profile.f[band]) and np.all(kept.f[~band] == 0.0)
                assert np.array_equal(kept.g[anti], profile.g[anti]) and np.all(kept.g[~anti] == 0.0)
                if 1 <= s <= n_pts and not streamlined:
                    f_tail, g_tail = tail_sums(profile, s, r)
                    f_oracle = np.sum(np.abs(profile.f[s:]))
                    g_oracle = np.sum(np.abs(profile.g[r : 2 * n_pts - 1 - r]))
                    assert abs(f_tail - f_oracle) <= 1e-14 * f_oracle
                    assert abs(g_tail - g_oracle) <= 1e-14 * g_oracle
            for s, r in ((-1, 1), (1, -1), (1, n_pts + 1)):
                with pytest.raises(ValueError):
                    profile.truncated(s, r)
            for s, r in ((0, 1), (n_pts + 1, 1), (1, -1), (1, n_pts + 1)):
                with pytest.raises(ValueError):
                    tail_sums(profile, s, r)


class TestDecayBounds:
    """Numeric checks of the decay inequalities behind the truncation."""

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": 0.0, "dx": 1.0}),
        ("half-infinite", {"dx": 1.0}),
    ])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_band_tail_bound(self, variant, params, n):
        profile = band_profile(build_grid(variant, params, n, 0.5))
        e_t = profile.kinetic_scale
        for s in range(2, 2**n):
            f_tail, _ = tail_sums(profile, s, 1)
            assert f_tail < 3.0 * e_t / s

    @pytest.mark.parametrize("big_n", [4, 16, 65, 256, 1025])
    def test_finite_lattice_cot_bound(self, big_n):
        k = np.arange(1, big_n)
        inv_sin2 = 1.0 / np.sin(np.pi * k / (2.0 * big_n)) ** 2
        # suffix sums over k = s..N-1 against (2N/pi) cot(pi (s-1) / 2N)
        suffix = np.cumsum(inv_sin2[::-1])[::-1]
        for s in range(2, big_n):
            bound = (2.0 * big_n / np.pi) / np.tan(np.pi * (s - 1) / (2.0 * big_n))
            assert suffix[s - 1] < bound

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sin_symmetry_identity(self, n):
        big_n = 2**n
        k_all = np.arange(1, 2 * big_n)
        inv_sin2 = 1.0 / np.sin(np.pi * k_all / (2.0 * big_n)) ** 2
        for r in range(1, big_n):
            left = np.sum(inv_sin2[r - 1 : 2 * big_n - r])
            right = 1.0 + 2.0 * np.sum(inv_sin2[r - 1 : big_n - 1])
            assert left == pytest.approx(right, rel=1e-9)
