import warnings

import numpy as np
import pytest

from dvrvqe.circuits import (
    Circuit,
    Gate,
    cnot,
    format_circuit,
    hadamard,
    parse_circuit,
    pauli_x,
    ry,
)
from dvrvqe.simulator import apply_circuit, overlap_sq, run, sample_counts
from dvrvqe.vqe import energy_of

from conftest import random_state


class TestCircuitContainer:
    def test_rejects_bad_qubits(self):
        with pytest.raises(ValueError):
            Circuit(2, (hadamard(2),), 0)
        with pytest.raises(ValueError):
            Circuit(2, (ry(0, 0),), 0)  # slot out of range
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(ValueError, match="at least one qubit"):
            parse_circuit("qubits 0 slots 0\n")

    def test_rejects_cnot_on_one_qubit(self):
        with pytest.raises(ValueError, match="control and target must differ"):
            Circuit(2, (Gate("cnot", 1, 1),), 0)
        with pytest.raises(ValueError, match="control and target must differ"):
            parse_circuit("qubits 2 slots 0\nx 0\ncnot 1 1\n")

    def test_inverse_reverses_gates(self):
        circuit = Circuit(2, (hadamard(0), cnot(0, 1), pauli_x(1)), 0)
        inverse = circuit.inverse()
        assert [g.kind for g in inverse.gates] == ["x", "cnot", "h"]
        with pytest.raises(ValueError):
            Circuit(1, (ry(0, 0),), 1).inverse()


class TestRun:
    def test_empty_circuit(self):
        state = run(Circuit(2, (), 0))
        assert state[0] == 1.0 and np.all(state[1:] == 0.0)

    def test_bell_state(self):
        state = run(Circuit(2, (hadamard(0), cnot(0, 1)), 0))
        expected = np.zeros(4)
        expected[[0, 3]] = 1.0 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_ry_pi_flips(self):
        state = run(Circuit(1, (ry(0, 0),), 1), [np.pi])
        assert abs(state[1]) == pytest.approx(1.0)
        assert state[1].real == pytest.approx(1.0)  # no global phase for RY

    def test_ry_convention(self):
        theta = 0.73
        state = run(Circuit(1, (ry(0, 0),), 1), [theta])
        assert state[0] == pytest.approx(np.cos(theta / 2))
        assert state[1] == pytest.approx(np.sin(theta / 2))

    def test_param_length_checked(self):
        with pytest.raises(ValueError):
            run(Circuit(1, (ry(0, 0),), 1), [0.1, 0.2])

    def test_state_shape_checked(self):
        circuit = Circuit(2, (hadamard(0),), 0)
        for shape in ((8,), (8, 3), (4, 3, 2)):
            with pytest.raises(ValueError, match="does not match 2 qubits"):
                apply_circuit(circuit, np.ones(shape))

    def test_x_on_qubit0_is_msb_flip(self):
        for n in (2, 3, 4):
            state = run(Circuit(n, (pauli_x(0),), 0))
            assert state[2 ** (n - 1)] == 1.0

    def test_norm_preserved_random_circuit(self):
        rng = np.random.default_rng(0)
        gates = []
        n = 4
        for _ in range(30):
            choice = rng.integers(4)
            q = int(rng.integers(n))
            if choice == 0:
                gates.append(hadamard(q))
            elif choice == 1:
                gates.append(pauli_x(q))
            elif choice == 2:
                p = int(rng.integers(n - 1))
                gates.append(cnot(q, p if p < q else p + 1))
            else:
                gates.append(ry(q, len([g for g in gates if g.kind == "ry"])))
        n_slots = sum(1 for g in gates if g.kind == "ry")
        circuit = Circuit(n, tuple(gates), n_slots)
        state = run(circuit, rng.uniform(-np.pi, np.pi, n_slots))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_gate_involutions(self):
        rng = np.random.default_rng(1)
        psi = random_state(rng, 8)
        for gates in [(hadamard(1), hadamard(1)), (cnot(0, 2), cnot(0, 2)),
                      (pauli_x(2), pauli_x(2))]:
            out = apply_circuit(Circuit(3, gates, 0), psi)
            assert np.allclose(out, psi, atol=1e-12)

    def test_dtypes(self):
        circuit = Circuit(2, (hadamard(0), ry(1, 0), cnot(0, 1), pauli_x(1)), 1)
        assert run(circuit, [0.4]).dtype == np.float64
        psi = random_state(np.random.default_rng(6), 4)
        out = apply_circuit(circuit, psi, [0.4])
        assert out.dtype == np.complex128
        assert np.allclose(out.real, apply_circuit(circuit, psi.real, [0.4]), atol=1e-15)
        assert np.allclose(out.imag, apply_circuit(circuit, psi.imag, [0.4]), atol=1e-15)

    def test_ry_addition(self):
        rng = np.random.default_rng(2)
        t1, t2 = rng.uniform(-np.pi, np.pi, 2)
        two = run(Circuit(1, (ry(0, 0), ry(0, 1)), 2), [t1, t2])
        one = run(Circuit(1, (ry(0, 0),), 1), [t1 + t2])
        assert np.allclose(two, one, atol=1e-12)


class TestExpectationDense:
    def test_ground_basis_state(self):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((4, 4))
        matrix = matrix + matrix.T
        state = np.zeros(4)
        state[0] = 1.0
        assert energy_of(state, matrix) == pytest.approx(matrix[0, 0])

    def test_eigenvector(self):
        state = np.array([1.0, 1.0]) / np.sqrt(2)
        assert energy_of(state, np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            energy_of(np.zeros(2), np.zeros((4, 4)))


class TestOverlap:
    def test_identical(self):
        rng = np.random.default_rng(4)
        psi = random_state(rng, 8)
        assert overlap_sq(psi, psi) == pytest.approx(1.0)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        assert overlap_sq(a, b) == 0.0

    def test_ry_closed_form(self):
        theta = 1.234
        zero = np.array([1.0, 0.0])
        rotated = run(Circuit(1, (ry(0, 0),), 1), [theta])
        assert overlap_sq(zero, rotated) == pytest.approx(np.cos(theta / 2) ** 2)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            overlap_sq(np.zeros(2), np.zeros(4))


class TestSampling:
    def test_bell_outcomes_only(self):
        state = run(Circuit(2, (hadamard(0), cnot(0, 1)), 0))
        counts = sample_counts(state, None, 500, 0)
        assert counts[1] == 0 and counts[2] == 0
        assert counts[0] + counts[3] == 500

    def test_h_analysis_within_binomial(self):
        state = np.array([1.0, 0.0])
        shots = 100_000
        counts = sample_counts(state, Circuit(1, (hadamard(0),), 0), shots, 123)
        sigma = np.sqrt(0.25 * shots)
        assert abs(counts[0] - shots / 2) < 5 * sigma

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 8)
        a = sample_counts(psi, None, 1000, 42)
        b = sample_counts(psi, None, 1000, 42)
        assert np.array_equal(a, b)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample_counts(np.array([1.0, 0.0]), None, 0, 1)

    def test_zero_norm_state_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero-norm"):
                sample_counts(np.zeros(4), Circuit(2, (hadamard(0),), 0), 10, 1)


class TestCircuitText:
    def test_format_and_parse_roundtrip(self):
        circuit = Circuit(3, (ry(0, 0), cnot(0, 2), hadamard(1), pauli_x(2), ry(1, 1)), 2)
        text = format_circuit(circuit)
        assert text.splitlines()[0] == "qubits 3 slots 2"
        parsed = parse_circuit(text)
        assert parsed == circuit

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_circuit("qubits 2\nh 0\n")
        with pytest.raises(ValueError):
            parse_circuit("qubits 2 slots 0\nt 0\n")
        with pytest.raises(ValueError):
            parse_circuit("")

    def test_parse_example(self):
        circuit = parse_circuit("qubits 2 slots 1\nry 1 0\ncnot 0 1\n")
        assert circuit.n_qubits == 2
        assert circuit.gates[0].kind == "ry"
        assert circuit.gates[1].other == 1
