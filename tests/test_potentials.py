import numpy as np
import pytest

from dvrvqe import build_grid
from dvrvqe.potentials import (
    HarmonicPotential,
    MorsePotential,
    TabulatedPotential,
    load_tabulated,
    potential_on_grid,
)


def test_morse_minimum_and_asymptote():
    morse = MorsePotential(0.07, 1.0, 2.5)
    assert morse(2.5) == pytest.approx(-0.07)
    assert morse(60.0) == pytest.approx(0.0, abs=1e-12)


def test_harmonic_zero_at_center():
    harm = HarmonicPotential(force_constant=0.3, center=1.1)
    assert harm(1.1) == 0.0
    assert harm(2.1) == pytest.approx(0.15)


def test_tabulated_linear_interpolation():
    pot = TabulatedPotential(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert pot(0.5) == pytest.approx(1.0)


def test_tabulated_rejects_unsorted():
    with pytest.raises(ValueError):
        TabulatedPotential(np.array([0.0, 0.0, 1.0]), np.zeros(3))


def test_tabulated_out_of_range_names_point():
    pot = TabulatedPotential(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="1.5"):
        pot(np.array([0.5, 1.5]))


def test_potential_on_grid_matches_pointwise():
    grid = build_grid("finite", {"a": 2.0, "b": 3.0}, 3, 1000.0)
    morse = MorsePotential(0.07, 1.0, 2.5)
    values = potential_on_grid(morse, grid)
    assert np.allclose(values, [morse(x) for x in grid.points])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_potential_rejected():
    grid = build_grid("infinite", {"x_min": -1000.0, "dx": 1.0}, 2, 1000.0)
    with pytest.raises(ValueError, match="V is not finite at grid point x=-1000.0"):
        potential_on_grid(MorsePotential(0.07, 1.35, 3.2), grid)


def test_grid_point_outside_tabulation_rejected():
    grid = build_grid("finite", {"a": 0.0, "b": 4.0}, 3, 1000.0)
    pot = TabulatedPotential(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        potential_on_grid(pot, grid)


def test_load_tabulated_skips_comments(tmp_path):
    table = tmp_path / "pot.dat"
    table.write_text("# x  V\n0.0  0.0\n\n1.0  2.0\n# trailing\n")
    pot = load_tabulated(table)
    assert pot(0.25) == pytest.approx(0.5)


def test_load_tabulated_rejects_extra_columns(tmp_path):
    table = tmp_path / "pot.dat"
    table.write_text("0.0 0.0 7.0\n")
    with pytest.raises(ValueError, match="two columns"):
        load_tabulated(table)


def test_morse_analytic_levels_decreasing_spacing():
    morse = MorsePotential(0.07, 1.0, 2.5)
    levels = [morse.level(v, 2000.0) for v in range(6)]
    gaps = np.diff(levels)
    assert np.all(gaps > 0)
    assert np.all(np.diff(gaps) < 0)  # anharmonic compression
