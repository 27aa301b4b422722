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

``run`` and ``adjoint_gradient`` go through a kernel built once per
circuit object and kept on it (_Kernel): the ops lowered onto views of
preallocated float64 buffers, so a forward pass writes every gate in
place and allocates only the state it returns. The backward pass keeps
the (psi, lambda) pair after every op from the first RY gate on and then
takes all RY terms in one batched dot. The buffers belong to the circuit
object, so one circuit object must not be run from two threads at once;
distinct circuit objects, even equal ones, share nothing.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


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


class _Kernel:
    """One circuit's ops lowered onto views of preallocated float64 buffers.

    The forward steps ping-pong between the two rows of ``rows``: op k
    reads row k % 2 and writes row (k + 1) % 2, with the arithmetic of
    apply_circuit, so ``forward`` equals apply_circuit on |0...0> bit for
    bit. The backward buffer ``pairs`` is made on the first backward call:
    its row r holds (psi, lambda) after op first + r, with ``first`` the
    index of the first RY op, so un-applying op k writes row k - first - 1
    from row k - first and nothing before the first RY op is un-applied.
    """

    def __init__(self, circuit: Circuit):
        self.ops = _compile(circuit)
        self.n_slots = circuit.n_slots
        self.rows = np.zeros((2, 2 ** circuit.n_qubits))
        self.steps = []
        for k, (kind, arg, slot) in enumerate(self.ops):
            src, dst = self.rows[k % 2], self.rows[1 - k % 2]
            if kind == "perm":
                self.steps.append((kind, arg[0], src, dst))
                continue
            src, dst = src.reshape(arg), dst.reshape(arg)
            if kind == "ry":
                self.steps.append((kind, slot, src, dst))
            else:
                self.steps.append((kind, None, (src[:, 0], src[:, 1]), (dst[:, 0], dst[:, 1])))
        self.result = self.rows[len(self.ops) % 2]
        self.pairs = None

    def forward(self, rotations: np.ndarray) -> np.ndarray:
        self.rows[0] = 0.0
        self.rows[0, 0] = 1.0
        for kind, arg, src, dst in self.steps:
            if kind == "ry":
                np.matmul(rotations[arg], src, out=dst)
            elif kind == "perm":
                np.take(src, arg, out=dst, mode="clip")  # indices are valid; "raise" would buffer the output
            else:
                (a, b), (plus, minus) = src, dst
                np.multiply(np.add(a, b, out=plus), _SQRT_HALF, out=plus)
                np.multiply(np.subtract(a, b, out=minus), _SQRT_HALF, out=minus)
        return self.result.copy()

    def _build_backward(self) -> None:
        ry_ops = [k for k, (kind, _, _) in enumerate(self.ops) if kind == "ry"]
        first = ry_ops[0] if ry_ops else len(self.ops) - 1
        dim = self.rows.shape[1]
        self.pairs = np.empty((len(self.ops) - first, 2, dim))
        self.back_steps = []
        for k in range(len(self.ops) - 1, first, -1):
            kind, arg, slot = self.ops[k]
            after, before = self.pairs[k - first], self.pairs[k - first - 1]
            if kind == "perm":
                self.back_steps.append((kind, arg[1], after, before))
            else:
                shape = (2, *arg)
                self.back_steps.append((kind, slot, after.reshape(shape), before.reshape(shape)))
        # J psi for the RY gate on index bit b, with dRY/dtheta = RY J / 2 and
        # J = [[0, -1], [1, 0]]: (J psi)[i] = sign[i] psi[i ^ b], sign[i] = -1
        # where i lacks b. Gates are listed last first, the order their terms
        # are added to the slots.
        index = np.arange(dim)
        rows = np.array([k - first for k in reversed(ry_ops)], dtype=np.intp)
        bits = np.array([self.ops[k][1][2] for k in reversed(ry_ops)], dtype=np.intp)[:, None]
        self.psi_flip = (2 * dim) * rows[:, None] + (index ^ bits)
        self.sign = np.where(index & bits, 1.0, -1.0)
        self.lambda_rows = rows
        self.ry_slots = np.array([self.ops[k][2] for k in reversed(ry_ops)], dtype=np.intp)

    def backward(self, rotations: np.ndarray, state: np.ndarray, costate: np.ndarray) -> np.ndarray:
        if self.pairs is None:
            self._build_backward()
        if not self.ry_slots.size:
            return np.zeros(self.n_slots)
        pairs = self.pairs
        pairs[-1, 0] = state
        pairs[-1, 1] = costate
        for kind, arg, after, before in self.back_steps:
            if kind == "perm":
                np.take(after, arg, axis=1, out=before, mode="clip")
            else:
                matrix = rotations[arg] if kind == "ry" else _H_MATRIX
                np.matmul(matrix.T, after, out=before)
        j_psi = self.sign * np.take(pairs, self.psi_flip)
        terms = np.einsum("ij,ij->i", pairs[self.lambda_rows, 1], j_psi)
        return np.bincount(self.ry_slots, weights=terms, minlength=self.n_slots)


def _kernel(circuit: Circuit) -> _Kernel:
    """The circuit's kernel, built on the first call and kept like its ops."""
    kernel = circuit.__dict__.get("_kernel")
    if kernel is None:
        kernel = circuit.__dict__["_kernel"] = _Kernel(circuit)
    return kernel


def _forward(circuit: Circuit, rotations: np.ndarray) -> np.ndarray:
    """run with the slot rotations already made by _rotations."""
    return _kernel(circuit).forward(rotations)


def _backward(circuit: Circuit, rotations: np.ndarray, state: np.ndarray, costate: np.ndarray) -> np.ndarray:
    """adjoint_gradient with the slot rotations already made by _rotations."""
    return _kernel(circuit).backward(rotations, state, costate)


def run(circuit: Circuit, params=None) -> np.ndarray:
    """Apply the circuit to |0...0> and return the final float64 amplitudes
    as a new array."""
    return _forward(circuit, _rotations(circuit, params))


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
    arXiv:2009.02823) and keeps the pair after every RY gate. Since
    dRY/dtheta = RY J / 2, an RY gate adds lambda^T J psi, both taken just
    after the gate, to its slot; all those terms are taken in one batched
    dot over contiguous rows, so the result does not depend on the inputs'
    memory layout, and a slot shared by several gates gets the sum of
    their terms, added last gate first.
    """
    return _backward(circuit, _rotations(circuit, params), state, costate)


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
