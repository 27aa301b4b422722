"""DVR + simulated-VQE toolkit for 1D vibrational spectra."""

__version__ = "0.1.0"

from .constants import HARTREE_TO_INV_CM, AMU_TO_ELECTRON_MASS
from .grids import GridSpec, BandProfile, build_grid, band_profile, retained_antidiagonals, tail_sums
from .potentials import (
    HarmonicPotential,
    MorsePotential,
    TabulatedPotential,
    load_tabulated,
    potential_on_grid,
)
from .hamiltonian import (
    DvrHamiltonian,
    assemble,
    classical_spectrum,
    lowest_levels,
    truncate,
    truncation_error_bound,
)
from .pauli import PauliSum, decompose, reconstruct, term_count
from .circuits import Circuit, Gate, load_circuit, save_circuit
from .simulator import run, overlap_sq
from .measurement import (
    MeasBasis,
    MeasurementPlan,
    TruncationSpec,
    antidiag_plan,
    band_plan,
    evaluate_exact,
    evaluate_sampled,
    full_plan,
    load_plan,
    plan_complexity,
)
from .ansatz import AnsatzSpec, empty_ansatz, linear_ansatz
from .vqe import (
    ObjectiveConfig,
    OptimizerConfig,
    VqeResult,
    excited_states,
    gradient,
    minimize,
    objective,
)
from .search import SearchConfig, SearchResult, greedy_search

__all__ = [
    "HARTREE_TO_INV_CM",
    "AMU_TO_ELECTRON_MASS",
    "GridSpec",
    "BandProfile",
    "build_grid",
    "band_profile",
    "tail_sums",
    "HarmonicPotential",
    "MorsePotential",
    "TabulatedPotential",
    "load_tabulated",
    "potential_on_grid",
    "DvrHamiltonian",
    "assemble",
    "classical_spectrum",
    "lowest_levels",
    "retained_antidiagonals",
    "truncate",
    "truncation_error_bound",
    "PauliSum",
    "decompose",
    "reconstruct",
    "term_count",
    "Circuit",
    "Gate",
    "load_circuit",
    "save_circuit",
    "run",
    "overlap_sq",
    "MeasBasis",
    "MeasurementPlan",
    "TruncationSpec",
    "antidiag_plan",
    "band_plan",
    "evaluate_exact",
    "evaluate_sampled",
    "full_plan",
    "load_plan",
    "plan_complexity",
    "AnsatzSpec",
    "empty_ansatz",
    "linear_ansatz",
    "ObjectiveConfig",
    "OptimizerConfig",
    "VqeResult",
    "excited_states",
    "gradient",
    "minimize",
    "objective",
    "SearchConfig",
    "SearchResult",
    "greedy_search",
]
