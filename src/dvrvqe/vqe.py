"""Variational minimization of <psi(phi)|H|psi(phi)> with overlap deflation.

Excited states are reached by re-minimizing with penalty terms
beta_i * |<psi_i|psi(phi)>|^2 against the previously found states; the
beta weights come from the Gershgorin upper bound of H so that
beta_i >= E_{i+1} - E_i always holds.

The objective is <psi|M|psi> with M = H + sum_i beta_i |psi_i><psi_i|.
Its gradient is the adjoint gradient of simulator.adjoint_gradient: one
forward simulation gives psi and M psi, one backward pass gives every
slot's derivative, exactly, for any number of gates per slot. L-BFGS-B
takes the value and the gradient from that single evaluation, and the
trace row and final result at a point it evaluated reuse its state, the
x0 row that of L-BFGS-B's first call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .ansatz import AnsatzSpec
from .circuits import Circuit
from .pauli import PauliSum, reconstruct
from .simulator import adjoint_gradient, overlap_sq, run


@dataclass(frozen=True)
class ObjectiveConfig:
    hamiltonian: object                     # dense real symmetric ndarray; a PauliSum is expanded once
    deflation: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        for _, beta in self.deflation:
            if beta <= 0:
                raise ValueError(f"deflation weights must be positive, got {beta}")
        if isinstance(self.hamiltonian, PauliSum):
            object.__setattr__(self, "hamiltonian", reconstruct(self.hamiltonian))


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "lbfgs"                   # 'lbfgs' (L-BFGS-B, adjoint gradients) or 'simplex' (Nelder-Mead)
    gradient_tol: float = 1e-8
    objective_tol: float = 1e-12
    max_iter: int = 2000
    restarts: int = 5
    seed: tuple[int, ...] | int = 0
    init_scale: float = 0.1

    def __post_init__(self):
        if self.method not in ("lbfgs", "simplex"):
            raise ValueError(f"unknown optimizer method {self.method!r}")
        if self.gradient_tol <= 0 or self.objective_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError(f"max_iter and restarts must be >= 1, got {self.max_iter} and {self.restarts}")

    def seed_tuple(self) -> tuple[int, ...]:
        return (self.seed,) if isinstance(self.seed, int) else tuple(self.seed)


@dataclass(frozen=True)
class VqeResult:
    energy: float
    params: np.ndarray
    trace: tuple[tuple[int, float, float], ...]   # (iteration, objective, energy)
    converged: bool
    overlaps: tuple[float, ...] = ()


def _as_circuit(ansatz) -> Circuit:
    return ansatz.circuit() if isinstance(ansatz, AnsatzSpec) else ansatz


def energy_of(state: np.ndarray, hamiltonian: np.ndarray) -> float:
    """<psi|H|psi> for a dense symmetric H."""
    return float(np.vdot(state, hamiltonian @ state).real)


def _energy_and_objective(state: np.ndarray, config: ObjectiveConfig) -> tuple[float, float]:
    energy = energy_of(state, config.hamiltonian)
    return energy, energy + sum(beta * overlap_sq(ref, state) for ref, beta in config.deflation)


def objective(params, circuit: Circuit, config: ObjectiveConfig) -> float:
    """<H> plus the weighted squared overlaps with the deflation references."""
    return _energy_and_objective(run(circuit, params), config)[1]


def _evaluate(params, circuit: Circuit, config: ObjectiveConfig):
    """(state, energy, objective, gradient) from one forward and one backward pass.

    A real psi sees only the real part of M, so lambda = Re(M) psi.
    """
    state = run(circuit, params)
    costate = config.hamiltonian @ state
    for ref, beta in config.deflation:
        costate = costate + beta * (np.vdot(ref, state) * ref).real
    energy, value = _energy_and_objective(state, config)
    return state, energy, value, adjoint_gradient(circuit, params, state, costate)


def objective_and_gradient(params, circuit: Circuit, config: ObjectiveConfig) -> tuple[float, np.ndarray]:
    """The objective and its gradient from one forward and one backward pass."""
    return _evaluate(params, circuit, config)[2:]


def gradient(params, circuit: Circuit, config: ObjectiveConfig) -> np.ndarray:
    """Adjoint gradient of the objective; see objective_and_gradient."""
    return objective_and_gradient(params, circuit, config)[1]


def gershgorin_upper(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    radii = np.sum(np.abs(matrix), axis=1) - np.abs(np.diag(matrix))
    return float(np.max(np.diag(matrix) + radii))


def _single_run(circuit, config, opt, x0):
    trace = []
    last = {}  # x, state and (energy, objective) of the last point L-BFGS-B evaluated

    def lbfgs_objective(x):
        state, energy, value, grad = _evaluate(x, circuit, config)
        last.update(x=np.array(x), state=state, values=(energy, value))
        if not trace:  # the first call is at x0, whose trace row reads this evaluation
            record(x0)
        return value, grad

    def simulate(x):
        """State and (energy, objective) at x; no new simulation at the last evaluated point."""
        if last and np.array_equal(x, last["x"]):
            return last["state"], last["values"]
        state = run(circuit, x)
        return state, _energy_and_objective(state, config)

    def record(xk):
        energy, obj = simulate(xk)[1]
        trace.append((len(trace), obj, energy))

    if opt.method == "lbfgs":
        fun, args, jac, method = lbfgs_objective, (), True, "L-BFGS-B"
        options = {"maxiter": opt.max_iter, "gtol": opt.gradient_tol, "ftol": opt.objective_tol}
    else:
        record(x0)
        fun, args, jac, method = objective, (circuit, config), None, "Nelder-Mead"
        options = {"maxiter": opt.max_iter, "fatol": opt.objective_tol, "xatol": 1e-10}
    res = scipy.optimize.minimize(
        fun, x0, args=args, jac=jac, method=method, callback=record, options=options,
    )
    state, (energy, _) = simulate(res.x)
    overlaps = tuple(overlap_sq(ref, state) for ref, _ in config.deflation)
    converged = bool(res.status == 0)
    return VqeResult(energy, np.asarray(res.x), tuple(trace), converged, overlaps), float(res.fun)


def minimize(ansatz, config: ObjectiveConfig, opt: OptimizerConfig, x0=None) -> VqeResult:
    """Best VQE result over restarts; deterministic for a given seed.

    ``x0`` warm-starts a single run and bypasses the random restarts.
    Exhausting the iteration budget is reported through converged=False,
    not an exception.
    """
    circuit = _as_circuit(ansatz)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (circuit.n_slots,):
            raise ValueError(f"x0 length {x0.shape} does not match {circuit.n_slots} slots")
        return _single_run(circuit, config, opt, x0)[0]

    best = None
    best_key = None
    for restart in range(opt.restarts):
        rng = np.random.default_rng((*opt.seed_tuple(), restart))
        start = rng.uniform(-opt.init_scale, opt.init_scale, circuit.n_slots)
        result, fun = _single_run(circuit, config, opt, start)
        key = (fun, restart)
        if best is None or key < best_key:
            best, best_key = result, key
    return best


def excited_states(ansatz, hamiltonian, v_max: int, opt: OptimizerConfig, beta_margin: float = 1.1):
    """Sequential deflation: solve v=0, penalize its state, re-solve, ...

    beta_v = beta_margin * (Gershgorin upper bound - E_v), which dominates
    every gap E_{v+1} - E_v.
    """
    if v_max < 0:
        raise ValueError(f"v_max must be >= 0, got {v_max}")
    hamiltonian = np.asarray(hamiltonian, dtype=float)
    upper = gershgorin_upper(hamiltonian)
    circuit = _as_circuit(ansatz)

    results = []
    deflation: list[tuple[np.ndarray, float]] = []
    for v in range(v_max + 1):
        config = ObjectiveConfig(hamiltonian, tuple(deflation))
        result = minimize(circuit, config, replace(opt, seed=(*opt.seed_tuple(), v)))
        results.append(result)
        beta = beta_margin * max(upper - result.energy, 1e-6)
        deflation.append((run(circuit, result.params), beta))
    return results

