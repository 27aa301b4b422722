"""Property tests of the simulator and the VQE gradient against dense oracles.

Circuits are random over {RY, CNOT, H, X} on up to four qubits (six
where no dense matrix is built). The ``shared`` strategy lets several RY
gates use one slot; the unshared one gives every RY gate its own slot.
"""

import weakref
from dataclasses import fields
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrvqe.circuits import Circuit, cnot, hadamard, pauli_x, ry
from dvrvqe.simulator import (
    _Kernel,
    _rotations,
    _steps,
    adjoint_gradient,
    analysis_rows,
    apply_circuit,
    run,
)
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


def dense_gradient(circuit, params, matrix):
    """2 psi^T M dpsi/dtheta_s, the derivative of each RY gate of slot s taken
    as a dense product with dRY/dtheta in the gate's place."""
    n = circuit.n_qubits
    gates = [dense_gate(n, g, params) for g in circuit.gates]
    apply = lambda matrices, vector: reduce(lambda v, u: u @ v, matrices, vector)
    zero = np.eye(2 ** n)[:, 0]
    psi = apply(gates, zero)
    grad = np.zeros(circuit.n_slots)
    for j, g in enumerate(circuit.gates):
        if g.kind == "ry":
            c, s = np.cos(params[g.other] / 2), np.sin(params[g.other] / 2)
            derivative = on_qubits(n, {g.qubit: 0.5 * np.array([[-s, -c], [c, -s]])})
            grad[g.other] += 2 * psi @ matrix @ apply(gates[j + 1:], derivative @ apply(gates[:j], zero))
    return grad


@st.composite
def circuits(draw, shared=True, max_qubits=4, max_gates=14):
    n = draw(st.integers(1, max_qubits))
    n_slots = draw(st.integers(1, 3)) if shared else 0
    kinds = ("ry", "h", "x", "cnot") if n > 1 else ("ry", "h", "x")
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=max_gates)):
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
@given(circuits(max_qubits=6, max_gates=24))
def test_run_equals_apply_circuit_bit_for_bit(case):
    """A one-row kernel's forward pass does the arithmetic of run and of
    apply_circuit on |0...0>; VqeResult.state relies on it."""
    circuit, params = case
    zero = np.zeros(2 ** circuit.n_qubits)
    zero[0] = 1.0
    state = run(circuit, params)
    assert np.array_equal(state, apply_circuit(circuit, zero, params))
    assert np.array_equal(_Kernel((circuit,)).forward((0,), _rotations(params[None]))[0], state)


@SETTINGS
@given(circuits(), st.integers(0, 2**32 - 1))
@example((Circuit(2, (ry(0, 0), hadamard(1), ry(1, 0), cnot(0, 1), pauli_x(1), ry(0, 1), hadamard(0), ry(1, 0)), 2),
          np.array([0.7, -1.9])), 5)
def test_adjoint_gradient_matches_dense_oracle(case, seed):
    """H gates, fused permutation runs and slots shared by several gates."""
    circuit, params = case
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 ** circuit.n_qubits,) * 2)
    matrix = (a + a.T) / 2
    state = run(circuit, params)
    oracle = dense_gradient(circuit, params, matrix)
    scale = max(np.abs(oracle).max(initial=0.0), 1.0)
    assert np.allclose(adjoint_gradient(circuit, params, state, matrix @ state), oracle, rtol=0, atol=1e-12 * scale)


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


@st.composite
def analysis_cases(draw):
    """A parameter-free circuit and a subset of its outcomes: possibly empty,
    possibly repeated, in any order."""
    circuit, _ = draw(circuits(shared=False))
    circuit = Circuit(circuit.n_qubits, tuple(g for g in circuit.gates if g.kind != "ry"))
    outcomes = draw(st.lists(st.integers(0, 2 ** circuit.n_qubits - 1), max_size=2 ** circuit.n_qubits + 2))
    return circuit, outcomes


@SETTINGS
@given(analysis_cases())
@example((Circuit(2, (hadamard(0),) * 3 + (pauli_x(1), hadamard(0), cnot(0, 1), hadamard(0))), [3, 0, 3]))
@example((Circuit(3, (hadamard(1), cnot(0, 1), cnot(1, 0), pauli_x(2), cnot(2, 0), hadamard(0))), list(range(8))))
@example((Circuit(3, (hadamard(1),) * 2), []))
def test_analysis_rows_match_dense_product(case):
    """Rows of an outcome subset, with repeated H on one qubit and fused
    permutation runs, equal apply_circuit's rows of the identity bit for bit
    and the dense product's to rounding; columns never repeat within a row."""
    circuit, outcomes = case
    dim = 2 ** circuit.n_qubits
    cols, vals = analysis_rows(circuit, outcomes)
    assert cols.shape == vals.shape and cols.shape[0] == len(outcomes) and cols.shape[1] <= dim
    assert all(len(set(row)) == len(row) for row in cols.tolist())
    rows = np.zeros((len(outcomes), dim))
    np.put_along_axis(rows, cols, vals, axis=1)
    assert np.array_equal(rows, apply_circuit(circuit, np.eye(dim))[outcomes])
    assert np.allclose(rows, dense_unitary(circuit, [])[outcomes], rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("outcome", [-1, 4, 5])
def test_analysis_rows_reject_outcomes_outside_the_basis(outcome):
    with pytest.raises(ValueError, match=r"outcomes must lie in \[0, 4\) for 2 qubits"):
        analysis_rows(Circuit(2, (hadamard(0), cnot(0, 1))), [0, outcome])


# cnot(0, 1) cnot(1, 0) x(2) cnot(2, 0) lowers to one permutation that is
# not its own inverse, so a backward pass that undid it with the forward
# permutation would give a wrong gradient.
PERMUTATION_RUN = (cnot(0, 1), cnot(1, 0), pauli_x(2), cnot(2, 0))


def ry_layer(first_slot):
    return tuple(ry(q, first_slot + q) for q in range(3))


def test_fused_permutation_run_matches_dense_and_differences():
    circuit = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    steps = _steps(circuit)
    assert [kind for kind, _, _ in steps] == ["ry"] * 3 + ["perm"] + ["ry"] * 3
    (forward,), (inverse,) = steps[3][1]
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


def test_compile_once_per_circuit_object(lowered):
    """A circuit object is lowered once, on its first call, and keeps its
    steps and nothing else; run, apply_circuit, adjoint_gradient, objective
    and gradient all read them."""
    circuit = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    twin = Circuit(3, ry_layer(0) + PERMUTATION_RUN + ry_layer(3), 6)
    rng = np.random.default_rng(22)
    a = rng.standard_normal((8, 8))
    config = ObjectiveConfig(a + a.T)
    for params in rng.uniform(-1, 1, (3, 6)):
        state = run(circuit, params)
        apply_circuit(circuit, np.eye(8), params)
        adjoint_gradient(circuit, params, state, state)
        objective(params, circuit, config)
        gradient(params, circuit, config)
    assert [[id(c) for c in batch] for batch in lowered] == [[id(circuit)]]
    assert set(vars(circuit)) - {f.name for f in fields(Circuit)} == {"_steps"}
    assert circuit == twin and hash(circuit) == hash(twin) and repr(circuit) == repr(twin)
    assert _steps(twin) is not _steps(circuit) and len(lowered) == 2


def test_kernel_buffers_alias_no_result_or_input():
    """A second run or adjoint_gradient on the same circuit object leaves the
    arrays the first calls returned, and the state and costate they were
    given, as they were."""
    circuit = Circuit(3, ry_layer(0) + PERMUTATION_RUN + (hadamard(1),) + ry_layer(3), 6)
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 8))
    matrix = a + a.T
    first, second = rng.uniform(-np.pi, np.pi, (2, 6))
    state = run(circuit, first)
    costate = matrix @ state
    grad = adjoint_gradient(circuit, first, state, costate)
    kept = [array.copy() for array in (state, costate, grad)]
    for params in (second, first):
        other = run(circuit, params)
        adjoint_gradient(circuit, params, other, matrix @ other)
        assert not np.shares_memory(other, state)
    assert all(np.array_equal(array, copy) for array, copy in zip((state, costate, grad), kept))
    assert np.array_equal(run(circuit, first), state)
    assert np.array_equal(adjoint_gradient(circuit, first, state, costate), grad)


@pytest.mark.parametrize("seed", range(4))
def test_gradient_bits_do_not_depend_on_memory_layout(seed):
    """Strided views of psi and lambda give the bits of contiguous copies, and
    an RY layer's terms keep their bits when a fused CNOT/X run follows it:
    un-applying the run gives back the very pair the layer alone gets."""
    layer = tuple(ry(q, q) for q in range(4))
    permutation = Circuit(4, (cnot(0, 1), cnot(1, 0), pauli_x(2), cnot(2, 3), cnot(3, 0)))
    alone, followed = Circuit(4, layer, 4), Circuit(4, layer + permutation.gates, 4)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-np.pi, np.pi, 4)
    psi, lam = rng.standard_normal((2, 16))
    grad = adjoint_gradient(alone, params, psi, lam)
    moved = [apply_circuit(permutation, v) for v in (psi, lam)]
    assert np.array_equal(adjoint_gradient(followed, params, *moved), grad)
    big = np.zeros((2, 32))
    big[:, ::2] = moved
    assert np.array_equal(adjoint_gradient(followed, params, big[0, ::2], big[1, ::2]), grad)
    big[:, ::2] = psi, lam
    assert np.array_equal(adjoint_gradient(alone, params, big[0, ::2], big[1, ::2]), grad)


@st.composite
def batches(draw):
    """1-6 circuits on up to six qubits that share their RY and H gates and
    differ in the CNOT/X runs between them, and batch rows that run them:
    each row a circuit index, in any order and possibly repeated, with its
    own parameters."""
    n = draw(st.integers(1, 6))
    n_slots = draw(st.integers(1, 3))
    fixed = draw(st.lists(
        st.tuples(st.sampled_from(("ry", "h")), st.integers(0, n - 1), st.integers(0, n_slots - 1)), max_size=10,
    ))
    circuits = []
    for _ in range(draw(st.integers(1, 6))):
        gates = []
        for k in range(len(fixed) + 1):
            for _ in range(draw(st.integers(0, 2))):
                q = draw(st.integers(0, n - 1))
                if n > 1 and draw(st.booleans()):
                    t = draw(st.integers(0, n - 2))
                    gates.append(cnot(q, t + (t >= q)))
                else:
                    gates.append(pauli_x(q))
            if k < len(fixed):
                kind, q, slot = fixed[k]
                gates.append(ry(q, slot) if kind == "ry" else hadamard(q))
        circuits.append(Circuit(n, tuple(gates), n_slots))
    rows = tuple(draw(st.lists(st.integers(0, len(circuits) - 1), min_size=1, max_size=6)))
    params = np.array(draw(st.lists(
        st.floats(-np.pi, np.pi), min_size=len(rows) * n_slots, max_size=len(rows) * n_slots,
    ))).reshape(len(rows), n_slots)
    return circuits, rows, params


@SETTINGS
@given(batches(), st.integers(0, 2**32 - 1))
def test_batched_rows_equal_each_row_alone(case, seed):
    """Every row of a batched forward and backward pass, with identity
    permutations where a circuit has no CNOT/X run, equals the row's circuit
    run alone, bit for bit; so does a second, smaller batch on the same kernel."""
    circuits, rows, params = case
    kernel = _Kernel(tuple(circuits))
    costates = np.random.default_rng(seed).standard_normal((len(rows), 2 ** circuits[0].n_qubits))
    for batch in (list(range(len(rows))), list(range(len(rows)))[1::2]):
        if not batch:
            continue
        rotations = _rotations(params[batch])
        states = kernel.forward(tuple(rows[r] for r in batch), rotations)
        grads = kernel.backward(tuple(rows[r] for r in batch), rotations, states, costates[batch])
        for k, r in enumerate(batch):
            circuit = circuits[rows[r]]
            assert np.array_equal(states[k], run(circuit, params[r]))
            assert np.array_equal(grads[k], adjoint_gradient(circuit, params[r], states[k], costates[r]))


def test_batched_circuits_must_share_their_ry_and_h_gates():
    with pytest.raises(ValueError, match="only in their CNOT and X gates"):
        _Kernel((Circuit(2, (ry(0, 0), cnot(0, 1)), 1), Circuit(2, (ry(1, 0),), 1)))
    with pytest.raises(ValueError, match="same qubit and slot counts"):
        _Kernel((Circuit(2, (ry(0, 0),), 1), Circuit(2, (ry(0, 0),), 2)))


def test_apply_circuit_makes_no_state_buffers():
    """apply_circuit and run leave a fresh n=10 analysis circuit nothing but
    its steps, which hold integer permutations and no float buffer."""
    n = 10
    circuit = Circuit(n, tuple(hadamard(q) for q in range(n)) + (cnot(0, 1), cnot(3, 7), pauli_x(9)))
    state = np.random.default_rng(24).standard_normal(2 ** n)
    first = apply_circuit(circuit, state)
    steps = _steps(circuit)
    run(circuit)
    assert np.array_equal(apply_circuit(circuit, state), first) and _steps(circuit) is steps
    assert set(vars(circuit)) - {f.name for f in fields(Circuit)} == {"_steps"}
    arrays = [array for kind, arg, _ in steps if kind == "perm" for half in arg for array in half]
    assert arrays and all(array.dtype.kind == "i" for array in arrays)


def test_row_bytes_cover_the_buffers_of_a_batch():
    """The plan's forward rows and backward pairs and the three per-term
    gathers of an R-row pass take exactly R * row_bytes()."""
    circuit = Circuit(3, (ry(0, 0), cnot(0, 1), ry(1, 1), hadamard(2), ry(2, 0), pauli_x(1)), 2)
    kernel, count = _Kernel((circuit,)), 3
    rotations = _rotations(np.random.default_rng(25).uniform(-1, 1, (count, circuit.n_slots)))
    states = kernel.forward((0,) * count, rotations)
    kernel.backward((0,) * count, rotations, states, states)
    terms = 3 * count * 8 * 2 ** 3 * sum(kind == "ry" for kind, _, _ in kernel.steps)
    blocks, pairs = kernel._plan((0,) * count)[:2]
    assert blocks.nbytes + pairs.nbytes + terms == count * kernel.row_bytes()


def test_a_kernel_keeps_one_plan_sized_for_its_rows():
    """Forward and backward calls on the same rows reuse one plan; new rows,
    fewer or more, get a plan whose buffers fit exactly that many rows, and
    the buffers of the old plan are freed."""
    circuits = (
        Circuit(3, (hadamard(2), ry(0, 0), cnot(0, 1), ry(1, 1)), 2),
        Circuit(3, (hadamard(2), ry(0, 0), pauli_x(2), ry(1, 1)), 2),
    )
    kernel, rng, freed = _Kernel(circuits), np.random.default_rng(26), []
    for rows in ((0, 1, 1, 0), (1, 0), (0,), (1, 1, 0)):
        rotations = _rotations(rng.uniform(-1, 1, (len(rows), 2)))
        states = kernel.forward(rows, rotations)
        plan = kernel._last[1]
        kernel.backward(rows, rotations, states, states)
        kernel.forward(rows, rotations)
        assert kernel._last[0] == rows and kernel._last[1] is plan
        assert plan[0].shape == (2, len(rows), 8) and plan[1].shape == (3, len(rows), 2, 8)
        assert all(buffer() is None for buffer in freed)
        freed = [weakref.ref(buffer) for buffer in plan[:2]]
        del plan
