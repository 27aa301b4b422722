"""Greedy compositional search for entangler layouts.

Starting from RY-only layers, every unused CNOT(q, p) in every block is
trialled each step with a warm-started VQE run, the candidates of a step
in lockstep on a kernel that lives for that call (vqe.minimize_rows); the
candidate with the lowest energy is committed (ties break
lexicographically on (block, q, p)).
Snapshots of the layout are taken the first time the ground-state error
against the same-size classical spectrum drops below each threshold,
yielding the C_1 / C_0.01 style circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, empty_ansatz
from .constants import HARTREE_TO_INV_CM
from .grids import _integer
from .hamiltonian import _symmetric_matrix, classical_spectrum
from .vqe import ObjectiveConfig, OptimizerConfig, VqeResult, _best, minimize, minimize_rows

PLATEAU_IMPROVEMENT = 1e-10  # hartree; stop when a full sweep gains less
COMMIT_RESTARTS = 3  # fresh starts tried besides the warm start on each commit
JITTER_SCALE = 0.01  # standard deviation of a candidate's warm-start jitter


@dataclass(frozen=True)
class SearchConfig:
    n_blocks: int
    thresholds: tuple[float, ...] = (1.0, 0.01)   # cm^-1, finite and strictly decreasing
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
        if not np.isfinite(thresholds).all():
            raise ValueError(f"thresholds must be finite, got {thresholds}")
        if list(thresholds) != sorted(thresholds, reverse=True) or len(set(thresholds)) != len(thresholds):
            raise ValueError("thresholds must be strictly decreasing")
        seed = _integer(self.seed, "seed")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "seed", seed)


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


@dataclass(frozen=True)
class SearchResult:
    snapshots: dict[float, Snapshot | None]
    reference_energy: float             # lowest eigenvalue of H
    steps: tuple[SearchStep, ...]       # the start (step 0), then one per commit
    final_ansatz: AnsatzSpec


def candidate_evaluation(base_ansatz: AnsatzSpec, candidates, warm_params, budget: int,
                         config: ObjectiveConfig) -> list[tuple[float, np.ndarray]]:
    """(energy, params) of each candidate (block, ctrl, tgt) CNOT appended
    to ``base_ansatz``, re-optimized from its row of ``warm_params`` for at
    most ``budget`` iterations; the candidates run in lockstep
    (minimize_rows), and each gets the result it gets alone.

    The new gate adds no parameter slots, so the incumbent's parameters fit
    the trial as they are; greedy_search adds the warm start's jitter.
    """
    circuits = [base_ansatz.with_entangler(*gate).circuit() for gate in candidates]
    return [(result.energy, result.params) for result, _ in minimize_rows(circuits, config, budget, warm_params)]


def greedy_search(h_matrix: np.ndarray, config: SearchConfig) -> SearchResult:
    h_matrix = _symmetric_matrix(h_matrix)
    n_pts = len(h_matrix)
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
    steps: list[SearchStep] = []
    snapshots: dict[float, Snapshot | None] = {t: None for t in config.thresholds}

    def error_cm1(energy: float) -> float:
        return (energy - reference) * HARTREE_TO_INV_CM

    def record(step: int, gate, result: VqeResult):
        block, ctrl, tgt = gate if gate else (-1, -1, -1)
        err = error_cm1(result.energy)
        steps.append(SearchStep(step, block, ctrl, tgt, result.energy, err))
        for threshold in config.thresholds:
            if snapshots[threshold] is None and err < threshold:
                snapshots[threshold] = Snapshot(ansatz, result.energy)

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
        # A small seeded jitter of each warm start, so that the greedy
        # signal is about the gate, not the optimizer's starting point.
        warm = [
            incumbent.params
            + JITTER_SCALE * np.random.default_rng((config.seed, step, *gate)).standard_normal(incumbent.params.size)
            for gate in candidates
        ]
        trials = candidate_evaluation(ansatz, candidates, warm, config.candidate_budget, objective_config)
        best = min(range(len(candidates)), key=lambda k: (trials[k][0], k))
        best_gate, (best_energy, best_params) = candidates[best], trials[best]
        if best_energy > incumbent.energy - PLATEAU_IMPROVEMENT:
            break
        ansatz = ansatz.with_entangler(*best_gate)
        used.add(best_gate)
        # Full-budget re-optimization of the committed layout, in lockstep:
        # warm start from the winning candidate plus a few fresh restarts to
        # escape its basin.
        circuit = ansatz.circuit()
        fresh_starts = OptimizerConfig(restarts=COMMIT_RESTARTS, seed=(config.seed, step, 1)).starts(circuit.n_slots)
        # With no deflation each row's final objective is its energy, and a
        # tie goes to the warm start, row 0.
        incumbent = _best(minimize_rows(
            [circuit] * (1 + COMMIT_RESTARTS), objective_config, config.full_budget, [best_params, *fresh_starts]
        ))
        record(step, best_gate, incumbent)

    return SearchResult(snapshots, reference, tuple(steps), ansatz)

