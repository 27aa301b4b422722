import numpy as np
import pytest

from dvrvqe import simulator, vqe
from dvrvqe.ansatz import empty_ansatz
from dvrvqe.search import (
    SearchConfig,
    candidate_evaluation,
    greedy_search,
)
from dvrvqe.vqe import ObjectiveConfig, OptimizerConfig, minimize, minimize_rows

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])


@pytest.fixture(scope="module")
def bell_hamiltonian():
    """Ground state is the (|00> + |11>)/sqrt(2) Bell state at energy -2."""
    return -np.kron(PAULI_X, PAULI_X) - np.kron(PAULI_Z, PAULI_Z)


def test_diagonal_h_needs_no_entanglers():
    h = np.diag([0.0, 3.0, 1.0, 2.0])
    result = greedy_search(h, SearchConfig(n_blocks=2, thresholds=(1.0, 0.01), seed=5))
    for snap in result.snapshots.values():
        assert snap is not None
        assert snap.ansatz.n_entanglers == 0


def test_bell_ground_needs_entangler(bell_hamiltonian):
    # Exhaustive product-state check: real product states cap at <XX> + <ZZ>
    # with each term at most 1 but not jointly at the Bell value -2.
    circuit = empty_ansatz(2, 2).circuit()
    starts = np.random.default_rng(1).uniform(-np.pi, np.pi, (20, circuit.n_slots))
    products = minimize_rows([circuit] * len(starts), ObjectiveConfig(bell_hamiltonian), 2000, starts)
    assert min(result.energy for result, _ in products) > -2.0 + 0.5
    result = greedy_search(bell_hamiltonian, SearchConfig(n_blocks=2, thresholds=(1.0,), seed=5))
    snap = result.snapshots[1.0]
    assert snap is not None
    assert snap.ansatz.n_entanglers >= 1
    assert snap.energy == pytest.approx(-2.0, abs=1e-6)


@pytest.fixture(scope="module")
def diatomic_search(diatomic16):
    return greedy_search(diatomic16.full, SearchConfig(n_blocks=3, thresholds=(1.0, 0.01), seed=7))


def test_morse16_c1_within_5_entanglers(diatomic_search):
    c1 = diatomic_search.snapshots[1.0]
    assert c1 is not None
    assert c1.ansatz.n_entanglers <= 5


def test_snapshot_nesting(diatomic_search):
    c1, c001 = diatomic_search.snapshots[1.0], diatomic_search.snapshots[0.01]
    assert c1 is not None and c001 is not None
    for block_c1, block_c001 in zip(c1.ansatz.entanglers, c001.ansatz.entanglers):
        assert set(block_c1) <= set(block_c001)


def test_trace_monotone_and_unique_gates(diatomic_search):
    result = diatomic_search
    energies = [step.energy for step in result.steps]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    gates = [(s.block, s.ctrl, s.tgt) for s in result.steps if s.block >= 0]
    assert len(gates) == len(set(gates))


def test_determinism(bell_hamiltonian):
    config = SearchConfig(n_blocks=2, thresholds=(1.0,), seed=42)
    r1 = greedy_search(bell_hamiltonian, config)
    r2 = greedy_search(bell_hamiltonian, config)
    assert [s.energy for s in r1.steps] == [s.energy for s in r2.steps]
    assert r1.final_ansatz == r2.final_ansatz


def test_candidate_evaluation_inert_gate():
    # A CNOT whose control stays on |0> acts as identity: energy unchanged.
    h = np.diag([0.0, 1.0, 2.0, 3.0])
    base = empty_ansatz(2, 1)
    config = ObjectiveConfig(h)
    incumbent = minimize(base, config, OptimizerConfig(max_iter=500, restarts=3, seed=2))
    assert incumbent.energy == pytest.approx(0.0, abs=1e-10)
    ((energy, _),) = candidate_evaluation(base, [(0, 0, 1)], [incumbent.params], 500, config)
    assert energy <= incumbent.energy + 1e-9


def test_candidate_evaluation_never_worse_morse(diatomic16):
    config = ObjectiveConfig(diatomic16.full)
    base = empty_ansatz(4, 2)
    incumbent = minimize(base, config, OptimizerConfig(max_iter=1500, restarts=3, seed=3))
    gates = ((0, 0, 1), (0, 2, 3), (1, 1, 2))
    trials = candidate_evaluation(base, gates, [incumbent.params] * len(gates), 400, config)
    assert len(trials) == len(gates)
    for energy, _ in trials:
        assert energy <= incumbent.energy + 1e-9


def test_candidates_in_one_batch_equal_each_alone(diatomic16):
    """Candidates in different blocks lower to one op sequence, with identity
    permutations for empty blocks; each gets the bits it gets alone."""
    config = ObjectiveConfig(diatomic16.full)
    base = empty_ansatz(4, 2).with_entangler(1, 0, 1)
    gates = [(0, 0, 1), (0, 1, 3), (1, 2, 3), (1, 1, 2)]
    warm = np.random.default_rng(6).uniform(-0.5, 0.5, (len(gates), base.n_params))
    batched = candidate_evaluation(base, gates, warm, 60, config)
    for gate, start, (energy, params) in zip(gates, warm, batched):
        ((alone_energy, alone_params),) = candidate_evaluation(base, [gate], [start], 60, config)
        assert energy == alone_energy
        assert np.array_equal(params, alone_params)


def test_batches_split_by_bytes_change_no_bit(diatomic16, monkeypatch):
    """Candidates split into batches of at most two rows, by a BATCH_BYTES
    of two kernel rows, get the bits they get in one batch."""
    config = ObjectiveConfig(diatomic16.full)
    base = empty_ansatz(4, 2).with_entangler(1, 0, 1)
    gates = [(0, 0, 1), (0, 1, 3), (1, 2, 3), (1, 1, 2), (0, 2, 3)]
    warm = np.random.default_rng(7).uniform(-0.5, 0.5, (len(gates), base.n_params))
    whole = candidate_evaluation(base, gates, warm, 60, config)
    kernel = simulator._Kernel(tuple(base.with_entangler(*gate).circuit() for gate in gates))
    monkeypatch.setattr(vqe, "BATCH_BYTES", 2 * kernel.row_bytes() + 1)
    batches, real_lockstep = [], vqe._lockstep

    def counted_lockstep(kernel, kernel_rows, *args):
        batches.append(kernel_rows)
        return real_lockstep(kernel, kernel_rows, *args)

    monkeypatch.setattr(vqe, "_lockstep", counted_lockstep)
    split = candidate_evaluation(base, gates, warm, 60, config)
    assert batches == [(0, 1), (2, 3), (4,)]
    for (energy, params), (split_energy, split_params) in zip(whole, split):
        assert energy == split_energy
        assert np.array_equal(params, split_params)


def test_plateau_stops_without_a_commit():
    """The product ground state of a diagonal H leaves the error just above
    0, over a 1e-30 threshold, and no CNOT can lower it."""
    result = greedy_search(np.diag([0.0, 3.0, 1.0, 2.0]), SearchConfig(n_blocks=1, thresholds=(1e-30,), seed=5))
    assert [step.step for step in result.steps] == [0]
    assert 1e-30 <= result.steps[0].error_cm1 < 1e-6  # so the search tried the CNOT
    assert result.final_ansatz.n_entanglers == 0
    assert result.snapshots == {1e-30: None}


def test_runs_out_of_candidates(bell_hamiltonian):
    """Two qubits in one block have one CNOT to try. With one iteration per
    optimization the commit stays far from the Bell energy, so the search
    goes on and finds no candidate left."""
    config = SearchConfig(n_blocks=1, thresholds=(1.0,), full_budget=1, candidate_budget=1, seed=0)
    result = greedy_search(bell_hamiltonian, config)
    assert [(s.step, s.block, s.ctrl, s.tgt) for s in result.steps] == [(0, -1, -1, -1), (1, 0, 0, 1)]
    assert result.steps[1].energy < result.steps[0].energy - 0.5
    assert result.steps[1].error_cm1 > 1000.0
    assert result.final_ansatz.n_entanglers == 1
    assert result.snapshots == {1.0: None}


def test_max_entanglers_cap():
    rng = np.random.default_rng(8)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    config = SearchConfig(n_blocks=2, thresholds=(1e-6,), max_entanglers=2, seed=4)
    result = greedy_search(h, config)
    assert result.final_ansatz.n_entanglers <= 2


def test_thresholds_validation():
    with pytest.raises(ValueError):
        SearchConfig(n_blocks=1, thresholds=(0.01, 1.0))
    with pytest.raises(ValueError):
        SearchConfig(n_blocks=1, thresholds=())
    with pytest.raises(ValueError):
        SearchConfig(n_blocks=0)
    with pytest.raises(ValueError, match="max_entanglers"):
        SearchConfig(n_blocks=1, max_entanglers=-1)
    with pytest.raises(ValueError, match="candidate_budget"):
        SearchConfig(n_blocks=1, candidate_budget=0)


def test_search_config_rejects_non_finite_thresholds_and_bad_seeds():
    for thresholds in ((float("nan"),), (float("inf"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            SearchConfig(n_blocks=1, thresholds=thresholds)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SearchConfig(n_blocks=1, seed=-1)
    with pytest.raises(TypeError, match="seed must be an integer"):
        SearchConfig(n_blocks=1, seed=1.5)
    assert SearchConfig(n_blocks=1, seed=np.int64(2)) == SearchConfig(n_blocks=1, seed=2)


def test_non_power_of_two_rejected():
    with pytest.raises(ValueError):
        greedy_search(np.eye(6), SearchConfig(n_blocks=1))
