"""Property tests of the simulator and the VQE gradient against dense oracles.

Circuits are random over {RY, CNOT, H, X} on up to four qubits. The
``shared`` strategy lets several RY gates use one slot; the unshared one
gives every RY gate its own slot.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvrvqe.circuits import Circuit, cnot, hadamard, pauli_x, ry
from dvrvqe.simulator import _compile, analysis_rows, apply_circuit, run
from dvrvqe.vqe import ObjectiveConfig, gradient, objective

from conftest import random_state

SETTINGS = settings(max_examples=60, deadline=None)
I2 = np.eye(2)
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def on_qubits(n, factors):
    """Kronecker product with ``factors[q]`` on qubit q (qubit 0 leftmost) and I elsewhere."""
    return reduce(np.kron, [factors.get(q, I2) for q in range(n)])


def dense_gate(n, gate, params):
    if gate.kind == "cnot":
        return on_qubits(n, {gate.qubit: P0}) + on_qubits(n, {gate.qubit: P1, gate.other: X})
    if gate.kind == "ry":
        c, s = np.cos(params[gate.other] / 2), np.sin(params[gate.other] / 2)
        return on_qubits(n, {gate.qubit: np.array([[c, -s], [s, c]])})
    return on_qubits(n, {gate.qubit: H if gate.kind == "h" else X})


def dense_unitary(circuit, params):
    n = circuit.n_qubits
    return reduce(lambda u, g: dense_gate(n, g, params) @ u, circuit.gates, np.eye(2 ** n))


def half_differences(params, circuit, config, step):
    """[f(theta + step e_j) - f(theta - step e_j)] / 2 for every slot j.

    With step = pi/2 this is the parameter-shift gradient, exact when every
    slot has one RY gate; with a small step, divided by it, central differences.
    """
    return np.array([
        0.5 * (objective(params + shift, circuit, config) - objective(params - shift, circuit, config))
        for shift in step * np.eye(params.size)
    ])


@st.composite
def circuits(draw, shared=True):
    n = draw(st.integers(1, 4))
    n_slots = draw(st.integers(1, 3)) if shared else 0
    kinds = ("ry", "h", "x", "cnot") if n > 1 else ("ry", "h", "x")
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        q = draw(st.integers(0, n - 1))
        if kind == "cnot":
            t = draw(st.integers(0, n - 2))
            gates.append(cnot(q, t + (t >= q)))
        elif kind == "ry":
            if shared:
                gates.append(ry(q, draw(st.integers(0, n_slots - 1))))
            else:
                gates.append(ry(q, n_slots))
                n_slots += 1
        else:
            gates.append(hadamard(q) if kind == "h" else pauli_x(q))
    circuit = Circuit(n, tuple(gates), n_slots)
    params = np.array(draw(st.lists(
        st.floats(-np.pi, np.pi), min_size=n_slots, max_size=n_slots
    )), dtype=float)
    return circuit, params


@st.composite
def objectives(draw, n):
    """A random symmetric H with up to two deflation references (real or complex)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = 2 ** n
    a = rng.standard_normal((dim, dim))
    deflation = tuple(
        (random_state(rng, dim, complex_valued=draw(st.booleans())), draw(st.floats(0.1, 5.0)))
        for _ in range(draw(st.integers(0, 2)))
    )
    return ObjectiveConfig((a + a.T) / 2, deflation)


@SETTINGS
@given(circuits(), st.integers(0, 2**32 - 1))
def test_run_and_apply_match_dense_product(case, seed):
    """run, apply_circuit on one state and on a (2^n, 3) batch of column states."""
    circuit, params = case
    unitary = dense_unitary(circuit, params)
    state = run(circuit, params)
    assert state.dtype == np.float64
    assert np.allclose(state, unitary[:, 0], atol=1e-12)
    rng = np.random.default_rng(seed)
    psi = random_state(rng, 2 ** circuit.n_qubits)
    assert np.allclose(apply_circuit(circuit, psi, params), unitary @ psi, atol=1e-12)
    batch = rng.standard_normal((2 ** circuit.n_qubits, 3))
    assert np.allclose(apply_circuit(circuit, batch, params), unitary @ batch, atol=1e-12)


@SETTINGS
@given(st.data())
def test_gradient_matches_central_differences(data):
    circuit, params = data.draw(circuits(shared=True))
    config = data.draw(objectives(circuit.n_qubits))
    numeric = half_differences(params, circuit, config, 1e-6) / 1e-6
    assert np.allclose(gradient(params, circuit, config), numeric, atol=1e-6)


@SETTINGS
@given(st.data())
def test_gradient_matches_parameter_shift_on_unshared_slots(data):
    circuit, params = data.draw(circuits(shared=False))
    config = data.draw(objectives(circuit.n_qubits))
    oracle = half_differences(params, circuit, config, np.pi / 2)
    assert np.allclose(gradient(params, circuit, config), oracle, rtol=0, atol=1e-12)


@SETTINGS
@given(circuits(shared=False))
def test_analysis_rows_match_dense_product(case):
    """Row lists of parameter-free circuits, repeated H on one qubit (merged columns) included."""
    circuit, _ = case
    circuit = Circuit(circuit.n_qubits, tuple(g for g in circuit.gates if g.kind != "ry"))
    cols, vals = analysis_rows(circuit)
    dim = 2 ** circuit.n_qubits
    assert cols.shape == vals.shape and cols.shape[0] == dim and cols.shape[1] <= 2 * dim
    matrix = np.zeros((dim, dim))
    np.add.at(matrix, (np.arange(dim)[:, None], cols), vals)
    assert np.allclose(matrix, dense_unitary(circuit, []), rtol=0, atol=1e-12)


def test_analysis_rows_merge_repeated_hadamards():
    circuit = Circuit(2, (hadamard(0),) * 41)
    cols, vals = analysis_rows(circuit)
    assert cols.shape[1] <= 4
    matrix = np.zeros((4, 4))
    np.add.at(matrix, (np.arange(4)[:, None], cols), vals)
    assert np.allclose(matrix, dense_unitary(Circuit(2, (hadamard(0),)), []), rtol=0, atol=1e-12)


def test_analysis_rows_reject_slots():
    with pytest.raises(ValueError, match="no ry gates"):
        analysis_rows(Circuit(2, (hadamard(0), ry(1, 0)), 1))


# cnot(0, 1) cnot(1, 0) x(2) cnot(2, 0) compiles to one permutation that is
# not its own inverse, so a backward pass that undid it with the forward
# permutation would give a wrong gradient.
PERMUTATION_RUN = (cnot(0, 1), cnot(1, 0), pauli_x(2), cnot(2, 0))


def ry_layer(first_slot):
    return tuple(ry(q, first_slot + q) for q in range(3))


def test_fused_permutation_run_matches_dense_and_differences():
    circuit = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    ops = _compile(circuit)
    assert [kind for kind, _, _ in ops] == ["ry"] * 3 + ["perm"] + ["ry"] * 3
    forward, inverse = ops[3][1]
    assert not np.array_equal(forward[forward], np.arange(8))
    assert np.array_equal(forward[inverse], np.arange(8))

    rng = np.random.default_rng(21)
    params = rng.uniform(-np.pi, np.pi, 6)
    a = rng.standard_normal((8, 8))
    config = ObjectiveConfig(a + a.T, ((random_state(rng, 8), 1.5),))
    numeric = half_differences(params, circuit, config, 1e-6) / 1e-6
    assert np.allclose(gradient(params, circuit, config), numeric, rtol=0, atol=1e-6)

    unitary = dense_unitary(circuit, params)
    batch = rng.standard_normal((8, 3))
    assert np.allclose(run(circuit, params), unitary[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(apply_circuit(circuit, batch, params), unitary @ batch, rtol=0, atol=1e-12)

    analysis = Circuit(3, (hadamard(1),) + PERMUTATION_RUN + (hadamard(0),))
    cols, vals = analysis_rows(analysis)
    matrix = np.zeros((8, 8))
    np.add.at(matrix, (np.arange(8)[:, None], cols), vals)
    assert np.allclose(matrix, dense_unitary(analysis, []), rtol=0, atol=1e-12)


def test_compile_once_per_circuit_object():
    circuit = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    twin = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    ops = _compile(circuit)
    for params in np.random.default_rng(22).uniform(-1, 1, (3, 6)):
        run(circuit, params)
        assert _compile(circuit) is ops
    assert circuit == twin and hash(circuit) == hash(twin) and repr(circuit) == repr(twin)
    assert _compile(twin) is not ops
