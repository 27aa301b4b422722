"""Exact statevector simulation of the {RY, CNOT, H, X} gate set.

Qubit 0 is the most significant index bit (circuits.py). A circuit batch
is lowered once, in one pass (_lower), into steps on the flat state: RY
and H act as 2x2 matrices on the (2^q, 2, 2^(n-q-1)) view, and each run
of consecutive CNOT and X gates acts as one index permutation. Every
gate is real: ``run`` returns float64 amplitudes, ``adjoint_gradient``
takes float64 states, and ``apply_circuit`` and ``sample_counts`` keep
complex input complex and turn any other input into float64.
``apply_circuit`` also takes a (2^n, k) batch of column states.
``analysis_rows`` gives chosen rows of a parameter-free circuit's matrix
as float64 row lists, each pushed backward through the gates.

A circuit object keeps only its own lowered steps, written once and then
only read, so threads may share it. ``run`` and ``apply_circuit`` are one
step loop (_apply). A kernel (_Kernel) runs a block of rows, one per
circuit of circuits that differ only in their CNOT/X runs, each row with
the bits it gets alone; it writes every gate in place into float64
buffers of its own and belongs to the one call that builds it:
``adjoint_gradient`` and each vqe.gradient or vqe.minimize_rows call.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_H_MATRIX = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])


def _param_row(circuit: Circuit, params) -> np.ndarray:
    """``params`` as a one-row (1, n_slots) float block, checked against the circuit."""
    params = np.asarray(params if params is not None else [], dtype=float)
    if params.shape != (circuit.n_slots,):
        raise ValueError(
            f"parameter vector length {params.shape} does not match slot count {circuit.n_slots}"
        )
    return params[None]


def _rotations(params: np.ndarray) -> np.ndarray:
    """RY matrices of a (rows, n_slots) parameter block, shape
    (n_slots, rows, 2, 2).

    Each row's matrices are stored (2, 2, n_slots), so a slot's matrix has
    the strides (16 n_slots, 8 n_slots) bytes in any batch; numpy's matmul
    picks its kernel by those strides, so a row gets the same bits in a
    batch of any size as alone.
    """
    rows, n_slots = params.shape
    half = 0.5 * params
    c, s = np.cos(half), np.sin(half)
    matrices = np.concatenate([c, -s, s, c], axis=1).reshape(rows, 2, 2, n_slots)
    return matrices.transpose(3, 0, 1, 2)


def _lower(circuits) -> tuple[tuple, ...]:
    """Steps (kind, arg, slot) of circuits whose gates agree but for their
    CNOT/X runs: ('ry', view shape, slot) and ('h', view shape, -1) shared
    as they are, and ('perm', (forwards, inverses), -1) with one
    permutation per circuit where any circuit has a run of consecutive CNOT
    and X gates, the identity for a circuit without a run there.

    A permutation maps new[i] = old[forward[i]]; it is the product of one
    run, so it is in general not its own inverse, and old[i] =
    new[inverse[i]] undoes it.
    """
    n, n_slots = circuits[0].n_qubits, circuits[0].n_slots
    if any((c.n_qubits, c.n_slots) != (n, n_slots) for c in circuits):
        raise ValueError("circuits of one batch need the same qubit and slot counts")
    index = np.arange(2 ** n)
    shared, gaps = None, []
    for circuit in circuits:
        gates, runs = [], [None]
        for g in circuit.gates:
            bit = 1 << (n - 1 - g.qubit)
            if g.kind in ("ry", "h"):
                gates.append((g.kind, (2 ** g.qubit, 2, bit), g.other))
                runs.append(None)
                continue
            flip = bit if g.kind == "x" else np.where(index & bit, 1 << (n - 1 - g.other), 0)
            runs[-1] = (index if runs[-1] is None else runs[-1])[index ^ flip]
        if shared is None:
            shared = gates
        elif gates != shared:
            raise ValueError("circuits of one batch may differ only in their CNOT and X gates")
        gaps.append(runs)
    steps = []
    for k, runs in enumerate(zip(*gaps)):
        if any(run is not None for run in runs):
            pairs = ((index, index) if run is None else (run, np.argsort(run)) for run in runs)
            steps.append(("perm", tuple(zip(*pairs)), -1))
        if k < len(shared):
            steps.append(shared[k])
    return tuple(steps)


class _Kernel:
    """Steps of one or more circuits (_lower; one circuit brings its own,
    _steps), run on a block of float64 rows, one per state of a batch.

    The circuits agree in their RY and H gates (_lower); batch row r runs
    circuit ``rows[r]`` with its own rotations. RY is one stacked matmul
    with a matrix per row, each CNOT/X run one flat ``np.take`` with a
    permutation per row, H the (a+b)·√½, (a−b)·√½ arithmetic of
    apply_circuit. Every row gets the arithmetic it gets alone, so a batch
    changes no bit of any row, and a one-row ``forward`` equals run and
    apply_circuit on |0...0> bit for bit. A one-row batch drops the batch
    axis from its views, which saves numpy a broadcast loop per gate.

    The buffers are made on the first ``forward`` and ``backward``, sized
    for that batch and grown for a larger one. The views of the last batch
    (its ``rows``) are kept. Forward steps ping-pong between two row
    blocks: step k reads block k % 2 and writes block (k + 1) % 2. The
    backward buffer holds (psi, lambda) per row after step first + d in its
    depth d, with ``first`` the first RY step, so nothing before that step
    is un-applied.
    """

    def __init__(self, circuits):
        self.steps = _steps(circuits[0]) if len(circuits) == 1 else _lower(circuits)
        self.n_slots = circuits[0].n_slots
        self.dim = 2 ** circuits[0].n_qubits
        self._rows = self._pairs = None
        self._forward = self._backward = (None, None)

    def row_bytes(self) -> int:
        """Bytes one batch row takes in a forward and a backward pass: its
        two forward rows, its (psi, lambda) pair after every step from the
        first RY gate on, and the gather index, J psi and lambda of every RY
        term."""
        ry_ops = [k for k, (kind, _, _) in enumerate(self.steps) if kind == "ry"]
        depth = len(self.steps) - ry_ops[0] if ry_ops else 0
        return 8 * self.dim * (2 + 2 * depth + 3 * len(ry_ops))

    def _forward_plan(self, rows):
        if self._forward[0] == rows:
            return self._forward[1]
        count = len(rows)
        if self._rows is None or self._rows.shape[1] < count:
            self._rows = np.empty((2, count, self.dim))
        blocks = self._rows[:, :count]
        offsets = self.dim * np.arange(count)[:, None]
        batch = () if count == 1 else (count,)
        matrix = (0,) if count == 1 else (slice(None), None)
        steps = []
        for k, (kind, arg, slot) in enumerate(self.steps):
            src, dst = blocks[k % 2], blocks[1 - k % 2]
            if kind == "perm":
                index = (np.array([arg[0][c] for c in rows]) + offsets).ravel()
                steps.append((kind, index, src.reshape(-1), dst.reshape(-1)))
                continue
            src, dst = src.reshape(*batch, *arg), dst.reshape(*batch, *arg)
            if kind == "ry":
                steps.append((kind, (slot, *matrix), src, dst))
            else:
                steps.append((kind, None, (src[..., 0, :], src[..., 1, :]), (dst[..., 0, :], dst[..., 1, :])))
        plan = steps, blocks[0], blocks[len(self.steps) % 2]
        self._forward = (rows, plan)
        return plan

    def forward(self, rows: tuple[int, ...], rotations: np.ndarray) -> np.ndarray:
        """Final states, one row per batch row, as a new (len(rows), 2^n) array."""
        steps, start, result = self._forward_plan(rows)
        start[:] = 0.0
        start[:, 0] = 1.0
        for kind, arg, src, dst in steps:
            if kind == "ry":
                np.matmul(rotations[arg], src, out=dst)
            elif kind == "perm":
                np.take(src, arg, out=dst, mode="clip")  # indices are valid; "raise" would buffer the output
            else:
                (a, b), (plus, minus) = src, dst
                np.multiply(np.add(a, b, out=plus), _SQRT_HALF, out=plus)
                np.multiply(np.subtract(a, b, out=minus), _SQRT_HALF, out=minus)
        return result.copy()

    def _backward_plan(self, rows):
        if self._backward[0] == rows:
            return self._backward[1]
        ry_ops = [k for k, (kind, _, _) in enumerate(self.steps) if kind == "ry"]
        if not ry_ops:
            self._backward = (rows, None)
            return None
        first, count, dim = ry_ops[0], len(rows), self.dim
        if self._pairs is None or self._pairs.shape[1] < count:
            self._pairs = np.empty((len(self.steps) - first, count, 2, dim))
        pairs = self._pairs[:, :count]
        offsets = 2 * dim * np.arange(count)[:, None, None] + dim * np.arange(2)[:, None]
        batch = () if count == 1 else (count,)
        matrix = (0,) if count == 1 else (slice(None), None, None)
        back = []
        for k in range(len(self.steps) - 1, first, -1):
            kind, arg, slot = self.steps[k]
            after, before = pairs[k - first], pairs[k - first - 1]
            if kind == "perm":
                index = (np.array([arg[1][c] for c in rows])[:, None] + offsets).ravel()
                back.append((kind, index, after.reshape(-1), before.reshape(-1)))
            else:
                shape = (*batch, 2, *arg)
                back.append((kind, (slot, *matrix), after.reshape(shape), before.reshape(shape)))
        # J psi for the RY gate on index bit b, with dRY/dtheta = RY J / 2 and
        # J = [[0, -1], [1, 0]]: (J psi)[i] = sign[i] psi[i ^ b], sign[i] = -1
        # where i lacks b. Gates are listed last first, the order their terms
        # are added to the slots.
        gates = ry_ops[::-1]
        index = np.arange(dim)
        depths = np.array([k - first for k in gates], dtype=np.intp)
        bits = np.array([self.steps[k][1][2] for k in gates], dtype=np.intp)[:, None]
        psi_flip = (
            self._pairs[0].size * depths[:, None, None] + 2 * dim * np.arange(count)[:, None] + (index ^ bits)[:, None]
        )
        sign = np.where(index & bits, 1.0, -1.0)[:, None]
        slots = np.array([self.steps[k][2] for k in gates], dtype=np.intp)
        bins = (slots[:, None] + self.n_slots * np.arange(count)).ravel()
        plan = back, pairs[-1], psi_flip, sign, depths, bins
        self._backward = (rows, plan)
        return plan

    def backward(self, rows: tuple[int, ...], rotations: np.ndarray, states: np.ndarray,
                 costates: np.ndarray) -> np.ndarray:
        """Slot gradients of <psi|M|psi>, one row per batch row, from the
        final states and costates lambda = M psi of those rows."""
        plan = self._backward_plan(rows)
        count = len(rows)
        if plan is None:
            return np.zeros((count, self.n_slots))
        back, top, psi_flip, sign, depths, bins = plan
        top[:, 0] = states
        top[:, 1] = costates
        transposed = rotations.swapaxes(-1, -2)
        for kind, arg, after, before in back:
            if kind == "perm":
                np.take(after, arg, out=before, mode="clip")
            else:
                np.matmul(transposed[arg] if kind == "ry" else _H_MATRIX.T, after, out=before)
        j_psi = sign * np.take(self._pairs, psi_flip)
        lambdas = self._pairs[depths, :count, 1]
        terms = np.einsum("ij,ij->i", lambdas.reshape(-1, self.dim), j_psi.reshape(-1, self.dim))
        return np.bincount(bins, weights=terms, minlength=count * self.n_slots).reshape(count, self.n_slots)


def _steps(circuit: Circuit) -> tuple[tuple, ...]:
    """The circuit's steps, _lower((circuit,)), made on the first call and
    stored in its ``__dict__``, which the frozen dataclass allows and which
    leaves its fields, equality and hash as they are. No call writes the
    steps, so threads may share them."""
    steps = circuit.__dict__.get("_steps")
    if steps is None:
        steps = circuit.__dict__["_steps"] = _lower((circuit,))
    return steps


def _apply(steps, rotations: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The steps of one circuit applied to a state or a batch of column
    states, with the rotations of a one-row parameter block."""
    for kind, arg, slot in steps:
        if kind == "perm":
            state = state[arg[0][0]]
        elif kind == "ry":
            state = (rotations[slot, 0] @ state.reshape(arg[0], 2, -1)).reshape(state.shape)
        else:
            view = state.reshape(arg[0], 2, -1)
            pair = np.stack([view[:, 0] + view[:, 1], view[:, 0] - view[:, 1]], axis=1)
            state = (_SQRT_HALF * pair).reshape(state.shape)
    return state


def run(circuit: Circuit, params=None) -> np.ndarray:
    """Apply the circuit to |0...0> and return the final float64 amplitudes
    as a new array."""
    state = np.zeros(2 ** circuit.n_qubits)
    state[0] = 1.0
    return _apply(_steps(circuit), _rotations(_param_row(circuit, params)), state)


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
    return _apply(_steps(circuit), _rotations(_param_row(circuit, params)), state)


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
    slots and for an outcome outside [0, 2^n).
    """
    if any(g.kind == "ry" for g in circuit.gates):
        raise ValueError("an analysis circuit has no ry gates")
    n = circuit.n_qubits
    outcomes = np.arange(2 ** n) if outcomes is None else np.asarray(outcomes, dtype=np.intp)
    if not 0 <= outcomes.min(initial=0) <= outcomes.max(initial=0) < 2 ** n:
        raise ValueError(f"outcomes must lie in [0, {2 ** n}) for {n} qubits")
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
    rotations = _rotations(_param_row(circuit, params))
    return _Kernel((circuit,)).backward((0,), rotations, state, costate)[0]


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
