"""Greedy compositional search for entangler layouts.

Starting from RY-only layers, every unused CNOT(q, p) in every block is
trialled each step with a warm-started VQE run; the candidate with the
lowest energy is committed (ties break lexicographically on (block, q, p)).
Snapshots of the layout are taken the first time the ground-state error
against the same-size classical spectrum drops below each threshold,
yielding the C_1 / C_0.01 style circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzSpec, empty_ansatz
from .constants import HARTREE_TO_INV_CM
from .hamiltonian import classical_spectrum
from .vqe import ObjectiveConfig, OptimizerConfig, VqeResult, minimize

PLATEAU_IMPROVEMENT = 1e-10  # hartree; stop when a full sweep gains less
COMMIT_RESTARTS = 3  # fresh starts tried besides the warm start on each commit
JITTER_SCALE = 0.01  # standard deviation of a candidate's warm-start jitter


@dataclass(frozen=True)
class SearchConfig:
    n_blocks: int
    thresholds: tuple[float, ...] = (1.0, 0.01)   # cm^-1, strictly decreasing
    max_entanglers: int = 20
    candidate_budget: int = 200
    full_budget: int = 2000
    restarts_initial: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be >= 1, got {self.n_blocks}")
        if self.max_entanglers < 0 or self.candidate_budget < 1:
            raise ValueError(
                f"max_entanglers must be >= 0 and candidate_budget >= 1, "
                f"got {self.max_entanglers} and {self.candidate_budget}"
            )
        thresholds = tuple(float(t) for t in self.thresholds)
        if not thresholds or any(t <= 0 for t in thresholds):
            raise ValueError("thresholds must be positive")
        if list(thresholds) != sorted(thresholds, reverse=True) or len(set(thresholds)) != len(thresholds):
            raise ValueError("thresholds must be strictly decreasing")
        object.__setattr__(self, "thresholds", thresholds)


@dataclass(frozen=True)
class SearchStep:
    step: int
    block: int
    ctrl: int
    tgt: int
    energy: float
    error_cm1: float


@dataclass(frozen=True)
class Snapshot:
    ansatz: AnsatzSpec
    energy: float
    params: np.ndarray
    step: int


@dataclass
class SearchTrace:
    reference_energy: float
    steps: list[SearchStep] = field(default_factory=list)


@dataclass(frozen=True)
class SearchResult:
    snapshots: dict[float, Snapshot | None]
    trace: SearchTrace
    final_ansatz: AnsatzSpec
    final: VqeResult


def candidate_evaluation(base_ansatz: AnsatzSpec, candidate, warm_params, budget: int,
                         config: ObjectiveConfig) -> tuple[float, np.ndarray]:
    """Energy after appending one candidate CNOT and re-optimizing from
    ``warm_params`` for at most ``budget`` iterations.

    The new gate adds no parameter slots, so the incumbent's parameters fit
    the trial as they are; greedy_search adds the warm start's jitter.
    """
    block, ctrl, tgt = candidate
    trial = base_ansatz.with_entangler(block, ctrl, tgt)
    result = minimize(trial, config, OptimizerConfig(max_iter=budget, restarts=1), x0=warm_params)
    return result.energy, result.params


def greedy_search(h_matrix: np.ndarray, config: SearchConfig) -> SearchResult:
    h_matrix = np.asarray(h_matrix, dtype=float)
    n_pts = h_matrix.shape[0]
    n_qubits = n_pts.bit_length() - 1
    if 2 ** n_qubits != n_pts:
        raise ValueError(f"Hamiltonian dimension {n_pts} is not a power of two")
    reference = float(classical_spectrum(h_matrix, 1)[0])
    objective_config = ObjectiveConfig(h_matrix)
    min_threshold = min(config.thresholds)

    ansatz = empty_ansatz(n_qubits, config.n_blocks)
    incumbent = minimize(
        ansatz,
        objective_config,
        OptimizerConfig(
            max_iter=config.full_budget,
            restarts=config.restarts_initial,
            seed=(config.seed, 0),
        ),
    )
    trace = SearchTrace(reference)
    snapshots: dict[float, Snapshot | None] = {t: None for t in config.thresholds}

    def error_cm1(energy: float) -> float:
        return (energy - reference) * HARTREE_TO_INV_CM

    def record(step: int, gate, result: VqeResult):
        block, ctrl, tgt = gate if gate else (-1, -1, -1)
        err = error_cm1(result.energy)
        trace.steps.append(SearchStep(step, block, ctrl, tgt, result.energy, err))
        for threshold in config.thresholds:
            if snapshots[threshold] is None and err < threshold:
                snapshots[threshold] = Snapshot(ansatz, result.energy, result.params, step)

    record(0, None, incumbent)
    used: set[tuple[int, int, int]] = set()
    step = 0
    while (
        error_cm1(incumbent.energy) >= min_threshold
        and ansatz.n_entanglers < config.max_entanglers
    ):
        step += 1
        candidates = [  # in (block, q, p) order, the tie-break order
            (d, q, p)
            for d in range(config.n_blocks)
            for q in range(n_qubits)
            for p in range(q + 1, n_qubits)
            if (d, q, p) not in used
        ]
        if not candidates:
            break
        best_gate = None
        best_energy = None
        best_params = None
        for gate in candidates:
            # A small seeded jitter of the warm start, so that the greedy
            # signal is about the gate, not the optimizer's starting point.
            rng = np.random.default_rng((config.seed, step, *gate))
            warm = incumbent.params + JITTER_SCALE * rng.standard_normal(incumbent.params.size)
            energy, params = candidate_evaluation(ansatz, gate, warm, config.candidate_budget, objective_config)
            if best_energy is None or energy < best_energy:
                best_gate, best_energy, best_params = gate, energy, params
        if best_energy > incumbent.energy - PLATEAU_IMPROVEMENT:
            break
        block, ctrl, tgt = best_gate
        ansatz = ansatz.with_entangler(block, ctrl, tgt)
        used.add(best_gate)
        # Full-budget re-optimization of the committed layout: warm start from
        # the winning candidate plus a few fresh restarts to escape its basin.
        incumbent = minimize(
            ansatz,
            objective_config,
            OptimizerConfig(max_iter=config.full_budget, restarts=1, seed=(config.seed, step)),
            x0=best_params,
        )
        fresh = minimize(
            ansatz,
            objective_config,
            OptimizerConfig(max_iter=config.full_budget, restarts=COMMIT_RESTARTS, seed=(config.seed, step, 1)),
        )
        if fresh.energy < incumbent.energy:
            incumbent = fresh
        record(step, best_gate, incumbent)

    return SearchResult(snapshots, trace, ansatz, incumbent)

