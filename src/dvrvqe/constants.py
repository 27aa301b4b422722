"""Physical constants and unit conversions.

Everything internal is in atomic units (hbar = 1, energies in hartree,
lengths in bohr, masses in electron masses). These factors are the only
place unit conversions are defined.
"""

HARTREE_TO_INV_CM = 219474.6313632
AMU_TO_ELECTRON_MASS = 1822.888486209


def amu_to_me(mass):
    return mass * AMU_TO_ELECTRON_MASS
