"""Variational minimization of <psi(phi)|H|psi(phi)> with overlap deflation.

Excited states are reached by re-minimizing with penalty terms
beta_i * |<psi_i|psi(phi)>|^2 against the previously found states; the
beta weights come from the Gershgorin upper bound of H so that
beta_i >= E_{i+1} - E_i always holds.

The objective is <psi|M|psi> with M = H + sum_i beta_i |psi_i><psi_i|.
Its gradient is the adjoint gradient of simulator.adjoint_gradient: one
forward simulation gives psi and M psi, one backward pass gives every
slot's derivative, exactly, for any number of gates per slot. An
evaluation makes the slot rotations once and hands them to both passes,
which run on the circuit's own kernel buffers and take every RY term in
one batched dot (simulator._Kernel); so one circuit object must not be
optimized from two threads at once. Every value, the energy, the
objective and M psi, comes from ``_values``. L-BFGS-B takes the value
and the gradient from that single evaluation, and the trace row and
final result at a point it evaluated reuse its state, the x0 row that of
L-BFGS-B's first call.

``scipy.optimize`` is imported at first use, in ``_single_run``: it loads
most of scipy, which costs a fresh process several tenths of a second,
and tasks that import this module without optimizing should not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzSpec
from .circuits import Circuit
from .simulator import _kernel, _rotations, overlap_sq, run

GRADIENT_TOL = 1e-8    # L-BFGS-B gtol
OBJECTIVE_TOL = 1e-12  # L-BFGS-B ftol
BETA_MARGIN = 1.1      # deflation weight over the Gershgorin gap bound


@dataclass(frozen=True)
class ObjectiveConfig:
    hamiltonian: np.ndarray                 # dense real symmetric
    deflation: tuple[tuple[np.ndarray, float], ...] = ()

    def __post_init__(self):
        for _, beta in self.deflation:
            if beta <= 0:
                raise ValueError(f"deflation weights must be positive, got {beta}")


@dataclass(frozen=True)
class OptimizerConfig:
    """L-BFGS-B on adjoint gradients, from ``restarts`` seeded uniform starts
    in [-init_scale, init_scale]."""

    max_iter: int = 2000
    restarts: int = 5
    seed: tuple[int, ...] | int = 0
    init_scale: float = 0.1

    def __post_init__(self):
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


def _values(state: np.ndarray, config: ObjectiveConfig) -> tuple[float, float, np.ndarray]:
    """(energy, objective, costate) of a real state.

    A real psi sees only the real part of M, so the costate is
    lambda = Re(M) psi. The energy is <psi|H psi> and the penalties reuse
    each <ref|psi> of the costate, summed from 0 in deflation order.
    """
    costate = config.hamiltonian @ state
    energy = float(np.vdot(state, costate).real)
    penalty = 0
    for ref, beta in config.deflation:
        overlap = np.vdot(ref, state)
        costate = costate + beta * (overlap * ref).real
        penalty = penalty + beta * float(abs(overlap) ** 2)
    return energy, energy + penalty, costate


def objective(params, circuit: Circuit, config: ObjectiveConfig) -> float:
    """<H> plus the weighted squared overlaps with the deflation references."""
    return _values(run(circuit, params), config)[1]


def _evaluate(params, circuit: Circuit, config: ObjectiveConfig):
    """(state, energy, objective, gradient) from one forward and one backward
    pass on the circuit's kernel; the rotations are made once for both."""
    rotations, kernel = _rotations(circuit, params), _kernel(circuit)
    state = kernel.forward(rotations)
    energy, value, costate = _values(state, config)
    return state, energy, value, kernel.backward(rotations, state, costate)


def gradient(params, circuit: Circuit, config: ObjectiveConfig) -> np.ndarray:
    """Adjoint gradient of the objective."""
    return _evaluate(params, circuit, config)[3]


def gershgorin_upper(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    radii = np.sum(np.abs(matrix), axis=1) - np.abs(np.diag(matrix))
    return float(np.max(np.diag(matrix) + radii))


def _single_run(circuit, config, opt, x0):
    import scipy.optimize

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
        return state, _values(state, config)[:2]

    def record(xk):
        energy, obj = simulate(xk)[1]
        trace.append((len(trace), obj, energy))

    res = scipy.optimize.minimize(
        lbfgs_objective, x0, jac=True, method="L-BFGS-B", callback=record,
        options={"maxiter": opt.max_iter, "gtol": GRADIENT_TOL, "ftol": OBJECTIVE_TOL},
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


def excited_states(ansatz, hamiltonian, v_max: int, opt: OptimizerConfig):
    """Sequential deflation: solve v=0, penalize its state, re-solve, ...

    beta_v = BETA_MARGIN * (Gershgorin upper bound - E_v), which dominates
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
        beta = BETA_MARGIN * max(upper - result.energy, 1e-6)
        deflation.append((run(circuit, result.params), beta))
    return results

