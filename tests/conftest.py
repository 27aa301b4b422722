import numpy as np
import pytest

from dvrvqe import assemble, build_grid, simulator
from dvrvqe.constants import AMU_TO_ELECTRON_MASS
from dvrvqe.potentials import MorsePotential

# Shared model system: Morse well in atomic units, deep enough for a dozen
# bound states with a reduced mass of 2000 electron masses.
MORSE = MorsePotential(well_depth=0.07, range_param=1.0, equilibrium=2.5)
MASS = 2000.0

# Diatomic-scale system: 26 amu reduced mass and a deep well whose level
# spacing (~509 1/cm) and depth (~15000 1/cm) match a chromium-dimer-like
# ground electronic state.
DIATOMIC_MORSE = MorsePotential(well_depth=0.07, range_param=1.35, equilibrium=3.2)
DIATOMIC_MASS = 26.0 * AMU_TO_ELECTRON_MASS

# Van-der-Waals-scale system: shallow anharmonic well supporting levels
# around -150 to -75 1/cm, like an atom-molecule complex.
VDW_MORSE = MorsePotential(well_depth=0.0008, range_param=1.0, equilibrium=7.5)
VDW_MASS = 18.0 * AMU_TO_ELECTRON_MASS


@pytest.fixture(scope="session")
def morse16():
    """16-point Morse Hamiltonian on a well-centered finite grid."""
    grid = build_grid("finite", {"a": 1.5, "b": 4.6}, 4, MASS)
    return assemble(grid, MORSE)


@pytest.fixture(scope="session")
def morse16_radial():
    """16-point Morse Hamiltonian on a half-infinite (radial) grid."""
    grid = build_grid("half-infinite", {"dx": 0.22}, 4, MASS)
    return assemble(grid, MORSE)


@pytest.fixture(scope="session")
def morse32():
    """32-point Morse Hamiltonian on a half-infinite (radial) grid."""
    grid = build_grid("half-infinite", {"dx": 0.11}, 5, MASS)
    return assemble(grid, MORSE)


@pytest.fixture(scope="session")
def diatomic16():
    """16-point diatomic-scale Morse Hamiltonian spanning the well."""
    grid = build_grid("finite", {"a": 2.55, "b": 4.55}, 4, DIATOMIC_MASS)
    return assemble(grid, DIATOMIC_MORSE)


@pytest.fixture(scope="session")
def vdw32():
    """32-point van-der-Waals-scale Morse Hamiltonian."""
    grid = build_grid("finite", {"a": 6.4, "b": 12.4}, 5, VDW_MASS)
    return assemble(grid, VDW_MORSE)


def random_state(rng, dim, complex_valued=True):
    vec = rng.standard_normal(dim)
    if complex_valued:
        vec = vec + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


@pytest.fixture
def lowered(monkeypatch):
    """Every circuit batch passed to simulator._lower, in call order; the
    list keeps the circuits alive, so their ids stay distinct."""
    batches, real_lower = [], simulator._lower
    monkeypatch.setattr(simulator, "_lower", lambda circuits: batches.append(circuits) or real_lower(circuits))
    return batches
