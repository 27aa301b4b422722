"""Exact statevector simulation of the {RY, CNOT, H, X} gate set.

Qubit 0 is the most significant index bit (circuits.py). Each circuit is
compiled once into ops on the flat state, kept on the circuit object: RY
and H act as 2x2 matrices on the (2^q, 2, 2^(n-q-1)) view, and each run of
consecutive CNOT and X gates acts as one index permutation. Every gate
is real: ``run`` returns float64 amplitudes, ``adjoint_gradient`` takes
float64 states, and ``apply_circuit`` and ``sample_counts`` keep complex
input complex and turn any other input into float64. ``apply_circuit``
also takes a (2^n, k) batch of column states. ``analysis_rows`` gives
chosen rows of a parameter-free circuit's matrix as float64 row lists,
each pushed backward through the gates.
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
    whose columns are states. An H gate takes each amplitude pair (a, b) to
    ((a + b) / sqrt(2), (a - b) / sqrt(2)) elementwise, so a pair of equal
    magnitudes gives (2a) / sqrt(2) and an exact 0 whether or not the BLAS
    fuses multiply-adds, and analysis_rows reproduces every entry.
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
        elif kind == "ry":
            state = (rotations[slot] @ state.reshape(arg[0], 2, -1)).reshape(state.shape)
        else:
            view = state.reshape(arg[0], 2, -1)
            pair = np.stack([view[:, 0] + view[:, 1], view[:, 0] - view[:, 1]], axis=1)
            state = (_SQRT_HALF * pair).reshape(state.shape)
    return state


def analysis_rows(circuit: Circuit, outcomes=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``outcomes`` (default all 2^n) of the matrix U with
    ``apply_circuit(circuit, psi) == U @ psi``.

    Returns (cols, vals), both of shape (len(outcomes), w): row k is the
    row e_o^T U of outcome o = outcomes[k], with vals[k, j] at column
    cols[k, j]. Each e_o is pushed backward through the gates, so no other
    row and no 2^n-entry permutation is built. X and CNOT are their own
    transposes: they flip the target bit of each column (CNOT only where
    the control bit is set). An H on bit b splits column c into c & ~b
    with +1/sqrt(2) and c | b with -+1/sqrt(2), minus when c has b.

    The row of an H, CNOT and X circuit is a stabilizer state: its
    support is a coset of one subspace shared by every row, and its
    nonzero entries have one magnitude. So at an H either no column's
    partner c ^ b is in the row, and w doubles, or every one is, and each
    pair merges into the one column where it does not cancel, halving w.
    Columns never repeat, w stays at most 2^n, and every value is exactly
    the one apply_circuit gives. Raises ValueError for a circuit with RY
    slots.
    """
    if any(g.kind == "ry" for g in circuit.gates):
        raise ValueError("an analysis circuit has no ry gates")
    n = circuit.n_qubits
    outcomes = np.arange(2 ** n) if outcomes is None else np.asarray(outcomes, dtype=np.intp)
    cols = outcomes[:, None]
    vals = np.ones(cols.shape)
    if not outcomes.size:
        return cols, vals
    for g in reversed(circuit.gates):
        bit = 1 << (n - 1 - g.qubit)
        if g.kind != "h":
            cols = cols ^ (bit if g.kind == "x" else np.where(cols & bit, 1 << (n - 1 - g.other), 0))
            continue
        if not np.any(cols[0] == cols[0, 0] ^ bit):  # one row decides for all
            sign = np.where(cols & bit, -_SQRT_HALF, _SQRT_HALF)
            cols = np.hstack([cols & ~bit, cols | bit])
            vals = np.hstack([_SQRT_HALF * vals, sign * vals])
            continue
        order = np.argsort(2 * (cols & ~bit) + ((cols & bit) > 0), axis=1)  # partners side by side
        cols = np.take_along_axis(cols, order[:, 0::2], axis=1)  # the column without b
        low, high = (np.take_along_axis(vals, order[:, k::2], axis=1) for k in (0, 1))
        plus, minus = _SQRT_HALF * (low + high), _SQRT_HALF * (low - high)
        cols = np.where(plus != 0, cols, cols | bit)
        vals = np.where(plus != 0, plus, minus)
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
