"""Exact statevector simulation of the {RY, CNOT, H, X} gate set.

Qubit 0 is the most significant index bit (circuits.py). Each circuit is
compiled once into ops on the flat state, kept on the circuit object: RY
and H act as 2x2 matrices on the (2^q, 2, 2^(n-q-1)) view, and each run of
consecutive CNOT and X gates acts as one index permutation. Every gate
is real: ``run`` returns float64 amplitudes, ``adjoint_gradient`` takes
float64 states, and ``apply_circuit`` and ``sample_counts`` keep complex
input complex and turn any other input into float64. ``apply_circuit``
also takes a (2^n, k) batch of column states. ``analysis_rows`` gives the
matrix of a parameter-free circuit as float64 row lists from the same ops.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
_J_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])  # dRY(theta)/dtheta = RY(theta) J / 2


def _compile(circuit: Circuit) -> tuple[tuple, ...]:
    """Ops (kind, arg, slot): ('ry', view shape, slot), ('h', view shape, -1)
    or ('perm', (forward, inverse), -1).

    A permutation maps new[i] = old[forward[i]]; it is the product of one
    run of consecutive CNOT and X gates, so it is in general not its own
    inverse, and old[i] = new[inverse[i]] undoes it. The ops are built on
    the first call and stored in the circuit's ``__dict__``, which the
    frozen dataclass allows and which leaves its fields, equality and hash
    as they are; no call hashes the gates.
    """
    ops = circuit.__dict__.get("_ops")
    if ops is not None:
        return ops
    n = circuit.n_qubits
    index = np.arange(2 ** n)
    ops = []
    for g in circuit.gates:
        bit = 1 << (n - 1 - g.qubit)
        if g.kind in ("ry", "h"):
            ops.append((g.kind, (2 ** g.qubit, 2, bit), g.other))
            continue
        flip = bit if g.kind == "x" else np.where(index & bit, 1 << (n - 1 - g.other), 0)
        if not ops or ops[-1][0] != "perm":
            ops.append(("perm", index, -1))
        ops[-1] = ("perm", ops[-1][1][index ^ flip], -1)
    ops = tuple((kind, (arg, np.argsort(arg)) if kind == "perm" else arg, slot) for kind, arg, slot in ops)
    circuit.__dict__["_ops"] = ops
    return ops


def _rotations(circuit: Circuit, params) -> np.ndarray:
    """RY matrices of every slot, shape (n_slots, 2, 2)."""
    params = np.asarray(params if params is not None else [], dtype=float)
    if params.shape != (circuit.n_slots,):
        raise ValueError(
            f"parameter vector length {params.shape} does not match slot count {circuit.n_slots}"
        )
    c, s = np.cos(0.5 * params), np.sin(0.5 * params)
    return np.array([[c, -s], [s, c]]).transpose(2, 0, 1)


def run(circuit: Circuit, params=None) -> np.ndarray:
    """Apply the circuit to |0...0> and return the final float64 amplitudes."""
    state = np.zeros(2 ** circuit.n_qubits)
    state[0] = 1.0
    return apply_circuit(circuit, state, params)


def apply_circuit(circuit: Circuit, state: np.ndarray, params=None) -> np.ndarray:
    """Apply the circuit's gates left-to-right to an existing state.

    ``state`` is one state of shape (2^n,) or a batch of shape (2^n, k)
    whose columns are states.
    """
    state = np.asarray(state)
    state = state.astype(np.result_type(state, float), copy=False)
    if state.ndim > 2 or state.shape[:1] != (2 ** circuit.n_qubits,):
        raise ValueError(
            f"state dimension {state.shape} does not match {circuit.n_qubits} qubits"
        )
    rotations = _rotations(circuit, params)
    for kind, arg, slot in _compile(circuit):
        if kind == "perm":
            state = state[arg[0]]
        else:
            matrix = rotations[slot] if kind == "ry" else _H_MATRIX
            state = (matrix @ state.reshape(arg[0], 2, -1)).reshape(state.shape)
    return state


def analysis_rows(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the matrix U with ``apply_circuit(circuit, psi) == U @ psi``.

    Returns (cols, vals), both of shape (2^n, w): row i of U is the sum of
    vals[i, k] at column cols[i, k], where a column may repeat. The rows are
    built from the compiled ops, never from the identity: a permutation
    reorders them, and an H on bit b makes row i the sum (row i without b)
    +- (row i with b), times 1/sqrt(2), doubling w. Once w passes 2^n the
    rows become dense (w = 2^n). Raises ValueError for a circuit with RY
    slots.
    """
    if any(g.kind == "ry" for g in circuit.gates):
        raise ValueError("an analysis circuit has no ry gates")
    n_pts = 2 ** circuit.n_qubits
    index = np.arange(n_pts)
    cols = index[:, None]
    vals = np.ones((n_pts, 1))
    for kind, arg, _ in _compile(circuit):
        if kind == "perm":
            cols, vals = cols[arg[0]], vals[arg[0]]
            continue
        bit = arg[2]
        low, high = index & ~bit, index | bit
        sign = np.where(index & bit, -_SQRT_HALF, _SQRT_HALF)[:, None]
        cols = np.hstack([cols[low], cols[high]])
        vals = np.hstack([_SQRT_HALF * vals[low], sign * vals[high]])
        if cols.shape[1] > n_pts:  # columns repeat: sum them into dense rows
            dense = np.zeros((n_pts, n_pts))
            np.add.at(dense, (index[:, None], cols), vals)
            cols, vals = np.broadcast_to(index, dense.shape), dense
    return cols, vals


def adjoint_gradient(circuit: Circuit, params, state: np.ndarray, costate: np.ndarray) -> np.ndarray:
    """Gradient of <psi|M|psi> over the slots, for psi = run(circuit, params).

    ``state`` is psi and ``costate`` is lambda = M psi for a real symmetric
    M. One backward pass un-applies each gate to both (Jones & Gacon 2020,
    arXiv:2009.02823). Since dRY/dtheta = RY J / 2, an RY gate adds
    lambda^T J psi, both taken just after the gate, to its slot; a slot
    shared by several gates gets the sum of their terms.
    """
    rotations = _rotations(circuit, params)
    grad = np.zeros(circuit.n_slots)
    pair = np.stack([state, costate])
    for kind, arg, slot in reversed(_compile(circuit)):
        if kind == "perm":
            pair = pair[:, arg[1]]
            continue
        view = pair.reshape(2, *arg)
        if kind == "ry":
            grad[slot] += np.vdot(view[1], _J_MATRIX @ view[0])
            matrix = rotations[slot]
        else:
            matrix = _H_MATRIX
        pair = (matrix.T @ view).reshape(2, -1)
    return grad


def overlap_sq(s1: np.ndarray, s2: np.ndarray) -> float:
    """|<s1|s2>|^2."""
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != s2.shape:
        raise ValueError(f"state dimensions differ: {s1.shape} vs {s2.shape}")
    return float(abs(np.vdot(s1, s2)) ** 2)


def sample_counts(state: np.ndarray, analysis_circuit: Circuit | None, shots: int, seed) -> np.ndarray:
    """Histogram of ``shots`` i.i.d. Z-basis measurements of V^dag|psi>.

    ``analysis_circuit=None`` measures the state directly. Deterministic
    for a given seed (PCG64 stream).
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if analysis_circuit is not None:
        state = apply_circuit(analysis_circuit, state)
    probs = np.abs(np.asarray(state)) ** 2
    total = probs.sum()
    if total == 0:
        raise ValueError("cannot sample a zero-norm state")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total)
