"""Variational minimization of <psi(phi)|H|psi(phi)> with overlap deflation.

Excited states are reached by re-minimizing with penalty terms
beta_i * |<psi_i|psi(phi)>|^2 against the previously found states; the
beta weights come from the Gershgorin upper bound of H so that
beta_i >= E_{i+1} - E_i always holds.

The objective is <psi|M|psi> with M = H + sum_i beta_i |psi_i><psi_i|.
ObjectiveConfig checks that H is a dense Hamiltonian (hamiltonian module), as
the exact adjoint gradient needs; each call checks that H fits its circuit.
Its gradient is the adjoint gradient of simulator.adjoint_gradient: one
forward simulation gives psi and M psi, one backward pass gives every
slot's derivative, exactly, for any number of gates per slot. Every
value, the energy, the objective and M psi, comes from ``_values``.

The optimizer is L-BFGS: the two-loop recursion of Liu & Nocedal (1989,
Math. Prog. 45, 503) with 10 correction pairs (_Memory), and the
Moré-Thuente line search and stopping rules of L-BFGS-B (Byrd, Lu,
Nocedal & Zhu 1995, SIAM J. Sci. Comput. 16, 1190). It imports numpy
only. ``minimize_rows`` runs several rows, the restarts of one
``minimize`` or the candidates of one search step, in lockstep: each
round evaluates the trial point of every live row in one forward and one
backward pass of a batched kernel (simulator._Kernel), and a row that
stops leaves the batch. Rows run in batches whose kernel buffers fit in
BATCH_BYTES: one batch for every call at n = 4, batches of 4 rows for
the 135 candidates of a 3-block search step at n = 10. Each row gets
the bits it would get alone, in any batch. The trace and the result of
a row reuse the state of the iterate they report, and excited_states
deflates with the result's state, so no point is simulated twice. A
kernel belongs to the one ``minimize_rows`` or ``gradient`` call that
builds it, and a circuit object keeps only its lowered steps, which no
call changes, so threads may share one circuit object in every function
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzSpec
from .circuits import Circuit
from .hamiltonian import _symmetric_matrix
from .simulator import _Kernel, _param_row, _rotations, overlap_sq, run

GRADIENT_TOL = 1e-8    # stop when max |gradient| <= this (L-BFGS-B pgtol)
OBJECTIVE_TOL = 1e-12  # stop when an iteration lowers the objective by at most this, relative (L-BFGS-B ftol)
BETA_MARGIN = 1.1      # deflation weight over the Gershgorin gap bound
INIT_SCALE = 0.1       # restarts start uniformly in [-INIT_SCALE, INIT_SCALE] per slot
MEMORY = 10            # L-BFGS correction pairs per row
BATCH_BYTES = 2 ** 23  # kernel buffers of one lockstep batch (_Kernel.row_bytes per row)
LINE_SEARCH_EVALUATIONS = 20  # a line search that needs more is abandoned
# Moré-Thuente sufficient decrease, curvature and interval tolerances and
# the largest step, as L-BFGS-B sets them.
DECREASE, CURVATURE, STEP_TOL, MAX_STEP = 1e-3, 0.9, 0.1, 1e10
_EPS = float(np.finfo(float).eps)
_EYE = np.eye(MEMORY)


@dataclass(frozen=True)
class ObjectiveConfig:
    hamiltonian: np.ndarray  # kept as the float64 array _symmetric_matrix returns
    deflation: tuple[tuple[np.ndarray, float], ...] = ()  # (reference of length N, beta > 0)

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", _symmetric_matrix(self.hamiltonian))
        dim = len(self.hamiltonian)
        for ref, beta in self.deflation:
            if np.shape(ref) != (dim,):
                raise ValueError(f"deflation reference of shape {np.shape(ref)} does not match H of size {dim}")
            if beta <= 0:
                raise ValueError(f"deflation weights must be positive, got {beta}")


@dataclass(frozen=True)
class OptimizerConfig:
    """L-BFGS on adjoint gradients for at most ``max_iter`` iterations, from
    ``restarts`` seeded uniform starts in [-INIT_SCALE, INIT_SCALE] that
    run as one lockstep batch."""

    max_iter: int = 2000
    restarts: int = 5
    seed: tuple[int, ...] | int = 0  # an int is kept as (seed,)

    def __post_init__(self):
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError(f"max_iter and restarts must be >= 1, got {self.max_iter} and {self.restarts}")
        object.__setattr__(self, "seed", (self.seed,) if isinstance(self.seed, int) else tuple(self.seed))

    def starts(self, n_slots: int) -> np.ndarray:
        """The (restarts, n_slots) start points; restart k draws from seed (*seed, k)."""
        return np.array([
            np.random.default_rng((*self.seed, restart)).uniform(-INIT_SCALE, INIT_SCALE, n_slots)
            for restart in range(self.restarts)
        ]).reshape(self.restarts, n_slots)


@dataclass(frozen=True)
class VqeResult:
    energy: float
    params: np.ndarray
    state: np.ndarray                              # run(circuit, params), bit for bit
    trace: tuple[tuple[int, float, float], ...]   # (iteration, objective, energy)
    converged: bool
    overlaps: tuple[float, ...] = ()


def _as_circuit(ansatz) -> Circuit:
    return ansatz.circuit() if isinstance(ansatz, AnsatzSpec) else ansatz


def energy_of(state: np.ndarray, hamiltonian: np.ndarray) -> float:
    """<psi|H|psi> for a dense symmetric H."""
    return float(np.vdot(state, hamiltonian @ state).real)


def _check_dim(config: ObjectiveConfig, dim: int) -> None:
    if dim != len(config.hamiltonian):
        raise ValueError(f"a circuit of {dim} amplitudes does not match H of size {len(config.hamiltonian)}")


def _values(states: np.ndarray, config: ObjectiveConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(energies, objectives, costates) of a block of real states, one row each.

    A real psi sees only the real part of M, so the costate is
    lambda = Re(M) psi. The energy is <psi|H psi> and the penalties reuse
    each <ref|psi> of the costate, summed from 0 in deflation order. Every
    product is a stacked per-row matmul (H psi a gemv, each dot a dot),
    which gives a row the bits it gets alone; one (rows, 2^n) gemm would not.
    """
    costates = np.matmul(config.hamiltonian, states[:, :, None])[:, :, 0]
    energies = np.matmul(states[:, None], costates[:, :, None])[:, 0, 0]
    penalties = 0
    for ref, beta in config.deflation:
        overlaps = np.matmul(states[:, None], np.conj(ref)[:, None])[:, 0, 0]
        costates = costates + beta * (overlaps[:, None] * ref).real
        penalties = penalties + beta * np.abs(overlaps) ** 2
    return energies, energies + penalties, costates


def objective(params, circuit: Circuit, config: ObjectiveConfig) -> float:
    """<H> plus the weighted squared overlaps with the deflation references."""
    _check_dim(config, 2 ** circuit.n_qubits)
    return float(_values(run(circuit, params)[None], config)[1][0])


def _evaluate(kernel, rows, params: np.ndarray, config: ObjectiveConfig):
    """(states, energies, objectives, gradients) of a (len(rows), n_slots)
    parameter block, from one forward and one backward pass of the kernel;
    the rotations are made once for both."""
    rotations = _rotations(params)
    states = kernel.forward(rows, rotations)
    energies, values, costates = _values(states, config)
    return states, energies, values, kernel.backward(rows, rotations, states, costates)


def gradient(params, circuit: Circuit, config: ObjectiveConfig) -> np.ndarray:
    """Adjoint gradient of the objective."""
    _check_dim(config, 2 ** circuit.n_qubits)
    return _evaluate(_Kernel((circuit,)), (0,), _param_row(circuit, params), config)[3][0]


def gershgorin_upper(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    radii = np.sum(np.abs(matrix), axis=1) - np.abs(np.diag(matrix))
    return float(np.max(np.diag(matrix) + radii))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """One safeguarded step of Moré & Thuente (MINPACK-2 dcstep).

    (stx, fx, dx) is the best step so far with its value and derivative,
    (sty, fy, dy) the other end of the interval, (stp, fp, dp) the trial.
    Returns the updated ends, the next trial step and whether the
    interval brackets a minimizer. Division by zero or the root of a
    negative number, which rounding can bring about, gives a NaN step.
    """
    try:
        sgnd = dp * (dx / abs(dx))
        if fp > fx:  # higher value: the minimum is bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp < stx:
                gamma = -gamma
            p = (gamma - dx) + theta
            q = ((gamma - dx) + gamma) + dp
            stpc = stx + (p / q) * (stp - stx)
            stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
            stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
            brackt = True
        elif sgnd < 0.0:  # derivatives of opposite sign: bracketed
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * math.sqrt((theta / s) ** 2 - (dx / s) * (dp / s))
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dx
            stpc = stp + (p / q) * (stx - stp)
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):  # the derivative shrinks
            theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
            s = max(abs(theta), abs(dx), abs(dp))
            gamma = s * math.sqrt(max(0.0, (theta / s) ** 2 - (dx / s) * (dp / s)))
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = (gamma + (dx - dp)) + gamma
            r = p / q
            if r < 0.0 and gamma != 0.0:
                stpc = stp + r * (stx - stp)
            else:
                stpc = stpmax if stp > stx else stpmin
            stpq = stp + (dp / (dp - dx)) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                bound = stp + 0.66 * (sty - stp)
                stpf = min(bound, stpf) if stp > stx else max(bound, stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = max(stpmin, min(stpmax, stpf))
        elif brackt:  # the derivative does not shrink: cubic step towards sty
            theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
            s = max(abs(theta), abs(dy), abs(dp))
            gamma = s * math.sqrt((theta / s) ** 2 - (dy / s) * (dp / s))
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            stpf = stp + (p / q) * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin
    except (ZeroDivisionError, ValueError):
        return stx, fx, dx, sty, fy, dy, math.nan, brackt
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if sgnd < 0.0:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


class _LineSearch:
    """Moré & Thuente's search (MINPACK-2 dcsrch, as L-BFGS-B uses it) for a
    step along one row's direction that meets the strong Wolfe conditions.

    ``stp`` is the step to evaluate next and ``evaluations`` how many steps
    were handed out. ``update(f, g)`` takes the objective and its
    directional derivative at ``stp``; it returns True when ``stp`` is
    final, because the conditions hold or because rounding, the step
    bounds or the interval width end the search (L-BFGS-B takes the step
    in every case), else it moves ``stp`` to the next trial, NaN where the
    interpolation broke down.
    """

    __slots__ = ("stp", "evaluations", "finit", "gtest", "gmax", "brackt", "stage", "width", "width1",
                 "stx", "fx", "gx", "sty", "fy", "gy", "stmin", "stmax")

    def __init__(self, f0: float, g0: float, stp: float):
        self.stp, self.evaluations = stp, 1
        self.finit, self.gtest, self.gmax = f0, DECREASE * g0, -CURVATURE * g0
        self.brackt, self.stage = False, 1
        self.width, self.width1 = MAX_STEP, 2.0 * MAX_STEP
        self.stx, self.fx, self.gx = 0.0, f0, g0
        self.sty, self.fy, self.gy = 0.0, f0, g0
        self.stmin, self.stmax = 0.0, 5.0 * stp

    def _exhausted(self, stp: float) -> bool:
        """The minimizer is bracketed, but ``stp`` is not inside the interval
        or the interval is narrower than STEP_TOL allows."""
        return self.brackt and (
            stp <= self.stmin or stp >= self.stmax or self.stmax - self.stmin <= STEP_TOL * self.stmax
        )

    def update(self, f: float, g: float) -> bool:
        stp, gtest = self.stp, self.gtest
        ftest = self.finit + stp * gtest
        if self.stage == 1 and f <= ftest and g >= 0.0:
            self.stage = 2
        if (
            self._exhausted(stp)
            or (stp == MAX_STEP and f <= ftest and g <= gtest)
            or (stp == 0.0 and (f > ftest or g >= gtest))
            or (f <= ftest and abs(g) <= self.gmax)
        ):
            return True
        # In the first stage, while the value is above the sufficient-decrease
        # line but below the best so far, step on the function shifted by
        # that line.
        shift = gtest if self.stage == 1 and self.fx >= f > ftest else 0.0
        stx, fx, gx, sty, fy, gy, stp, self.brackt = _dcstep(
            self.stx, self.fx - self.stx * shift, self.gx - shift,
            self.sty, self.fy - self.sty * shift, self.gy - shift,
            stp, f - stp * shift, g - shift, self.brackt, self.stmin, self.stmax,
        )
        self.stx, self.fx, self.gx = stx, fx + stx * shift, gx + shift
        self.sty, self.fy, self.gy = sty, fy + sty * shift, gy + shift
        if self.brackt:
            if abs(sty - stx) >= 0.66 * self.width1:
                stp = stx + 0.5 * (sty - stx)
            self.width1, self.width = self.width, abs(sty - stx)
            self.stmin, self.stmax = min(stx, sty), max(stx, sty)
        else:
            self.stmin, self.stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), MAX_STEP)
        if self._exhausted(stp):
            stp = stx
        self.stp = stp
        return False


def _rows(rows: list[int], count: int):
    """An index of ``rows``, an increasing list out of ``count``: a slice
    when it holds them all, which indexes without a copy."""
    return slice(None) if len(rows) == count else np.array(rows)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("ij,ij->i", a, b)


class _Memory:
    """The L-BFGS memory of every live row: up to MEMORY (s, y) pairs,
    newest first, with rho_k = 1 / s_k.y_k (0 for an unused pair) and
    gamma = s.y / y.y of the newest pair, H0 = gamma I.

    The two-loop recursion's first loop, newest pair first, is
    alpha_k = rho_k s_k.(g - sum_{j newer} alpha_j y_j), and with
    r = gamma (g - sum_j alpha_j y_j) its second loop, oldest first, adds
    c_k s_k to r with c_k = alpha_k - rho_k y_k.(r + sum_{j older} c_j s_j).
    Each loop is one unit-triangular system per row, (I + rho N) alpha =
    rho S g and (I + rho U) c = alpha - rho Y r, with N the s_k.y_j of
    newer j and U the y_k.s_j of older j. A new pair adds a first row and
    column to both and the oldest pair drops the last, so ``inverses``
    keeps both inverses and updates them with one product per pair;
    -H g then takes a few batched products. At n = 4 a round's update and
    directions take about 60 us this way and about 150 us as the plain
    loop over the pairs, which makes some 40 small numpy calls.
    """

    def __init__(self, rows: int, n_slots: int):
        self.pairs = np.zeros((rows, 2, MEMORY, n_slots))
        self.rho, self.gamma = np.zeros((rows, MEMORY)), np.ones(rows)
        self.inverses = np.tile(_EYE, (rows, 2, 1, 1))

    def has_pairs(self, r: int) -> bool:
        return bool(self.rho[r, 0])

    def forget(self, r: int) -> None:
        self.pairs[r], self.rho[r], self.gamma[r], self.inverses[r] = 0.0, 0.0, 1.0, _EYE

    def add(self, at, s: np.ndarray, y: np.ndarray, sy: np.ndarray, yy: np.ndarray) -> None:
        """Add the pair (s, y) with s.y = sy and y.y = yy to each row ``at``."""
        projections = np.matmul(self.pairs[at, 0, :-1], y[:, :, None])  # s_j.y of the pairs that stay
        rho = 1.0 / sy
        loops = self.inverses[at, :, :-1, :-1]
        first = -np.matmul(loops[:, 0], self.rho[at, :-1, None] * projections)
        second = -np.matmul(rho[:, None, None] * projections.swapaxes(1, 2), loops[:, 1])
        self.pairs[at, :, 1:] = self.pairs[at, :, :-1]
        self.pairs[at, 0, 0], self.pairs[at, 1, 0] = s, y
        self.rho[at, 1:] = self.rho[at, :-1]
        self.rho[at, 0], self.gamma[at] = rho, sy / yy
        self.inverses[at, :, 1:, 1:] = loops
        self.inverses[at, 0, 0] = self.inverses[at, 1, :, 0] = _EYE[0]
        self.inverses[at, 0, 1:, 0] = first[:, :, 0]
        self.inverses[at, 1, 0, 1:] = second[:, 0]

    def directions(self, at, grads: np.ndarray) -> np.ndarray:
        """-H g for each row ``at`` and its gradient."""
        s, y, rho, inverses = self.pairs[at, 0], self.pairs[at, 1], self.rho[at, :, None], self.inverses[at]
        alpha = np.matmul(inverses[:, 0], rho * np.matmul(s, grads[:, :, None]))
        r = self.gamma[at, None, None] * (grads[:, :, None] - np.matmul(y.swapaxes(1, 2), alpha))
        c = np.matmul(inverses[:, 1], alpha - rho * np.matmul(y, r))
        return -(r + np.matmul(s.swapaxes(1, 2), c))[:, :, 0]

    def keep(self, rows: list[int]) -> None:
        self.pairs, self.rho, self.gamma, self.inverses = (
            array[rows] for array in (self.pairs, self.rho, self.gamma, self.inverses)
        )


def _single_run(params, state, energy, value, trace, converged, config) -> tuple[VqeResult, float]:
    """One optimizer row's result and its final objective; ``state`` is
    the one simulated at ``params``."""
    overlaps = tuple(overlap_sq(ref, state) for ref, _ in config.deflation)
    return VqeResult(float(energy), params, state, tuple(trace), converged, overlaps), float(value)


def minimize_rows(circuits, config: ObjectiveConfig, max_iter: int, starts) -> list[tuple[VqeResult, float]]:
    """L-BFGS on ``circuits[i]`` from ``starts[i]`` for every row i, all
    rows in lockstep; each row's result and final objective.

    Each round evaluates every live row's trial point in one batch. A row
    stops, and leaves the batch, at max_iter iterations (not converged),
    when max |gradient| <= GRADIENT_TOL or when an iteration lowers the
    objective by at most OBJECTIVE_TOL relative to max(|f_old|, |f|, 1)
    (converged). A line search that fails, or a direction that does not
    descend, clears the row's memory and starts again along the gradient;
    without memory the row stops, not converged. The circuits must differ
    in their CNOT and X gates only.

    Each distinct circuit object is lowered once, into one kernel that
    lives for this call, and every row runs its circuit's kernel row.
    Rows run in consecutive batches whose kernel buffers fit in
    BATCH_BYTES; each row gets the same bits in any batch.
    """
    row_of = {}  # id of each distinct circuit -> its kernel row, in first-seen order
    kernel_rows = tuple(row_of.setdefault(id(c), len(row_of)) for c in circuits)
    kernel = _Kernel(tuple({id(c): c for c in circuits}.values()))
    _check_dim(config, kernel.dim)
    starts = np.array(starts, dtype=float)
    if starts.shape != (len(circuits), kernel.n_slots):
        raise ValueError(f"starts of shape {starts.shape} do not fit {len(circuits)} rows of {kernel.n_slots} slots")
    size = max(1, BATCH_BYTES // kernel.row_bytes())
    results = []
    for first in range(0, len(starts), size):
        results += _lockstep(kernel, kernel_rows[first:first + size], config, max_iter, starts[first:first + size])
    return results


def _lockstep(kernel, kernel_rows, config: ObjectiveConfig, max_iter: int, trial: np.ndarray):
    """minimize_rows for one batch: row i runs kernel row ``kernel_rows[i]``
    from ``trial[i]``, the point each live row evaluates next."""
    n_rows, n_slots = trial.shape
    results: list[tuple[VqeResult, float] | None] = [None] * n_rows
    # Per live row, compacted when rows stop: the iterate, its gradient,
    # state, objective and energy; the search direction, the step on it
    # and the slope at the step's start; the L-BFGS memory; the line search
    # (None until the start is evaluated), trace and iteration count.
    x, grad, direction = np.zeros_like(trial), np.zeros_like(trial), np.zeros_like(trial)
    states = np.zeros((n_rows, kernel.dim))
    value, energy, step, slope0 = (np.zeros(n_rows) for _ in range(4))
    memory = _Memory(n_rows, n_slots)
    live = list(range(n_rows))
    searches: list[_LineSearch | None] = [None] * n_rows
    traces, iterations = [[] for _ in range(n_rows)], [0] * n_rows
    rows = tuple(kernel_rows)

    while live:
        new_states, new_energies, new_values, new_grads = _evaluate(kernel, rows, trial, config)
        values, energies = new_values.tolist(), new_energies.tolist()
        slopes = _rowdot(new_grads, direction).tolist()
        moved, redirect, stopped = [], [], {}  # stopped: row -> converged
        for r, search in enumerate(searches):
            if search is None or search.update(values[r], slopes[r]):
                moved.append(r)
            elif math.isfinite(search.stp) and search.evaluations < LINE_SEARCH_EVALUATIONS:
                search.evaluations += 1
                step[r] = search.stp
            elif memory.has_pairs(r):  # the line search failed: forget the pairs, restart along -g
                memory.forget(r)
                redirect.append(r)
            else:
                stopped[r] = False

        if moved:
            at = _rows(moved, len(live))
            s = step[at, None] * direction[at]
            y = new_grads[at] - grad[at]
            sy, yy = _rowdot(s, y), _rowdot(y, y)
            curvatures = sy.tolist()
            norms = np.max(np.abs(new_grads[at]), axis=1, initial=0.0).tolist()
            x[at], grad[at], states[at] = trial[at], new_grads[at], new_states[at]
            updated = []
            for k, r in enumerate(moved):
                start = searches[r] is None
                old, new = value[r], values[r]
                value[r], energy[r] = new, energies[r]
                iterations[r] += not start
                traces[r].append((iterations[r], new, energies[r]))
                if not start and iterations[r] >= max_iter:
                    stopped[r] = False
                elif norms[k] <= GRADIENT_TOL or (
                    not start and old - new <= OBJECTIVE_TOL * max(abs(old), abs(new), 1.0)
                ):
                    stopped[r] = True
                else:
                    if not start and curvatures[k] > _EPS * -slope0[r] * step[r]:  # else skip the pair, as L-BFGS-B does
                        updated.append(k)
                    redirect.append(r)
            if updated:
                of = _rows(updated, len(moved))
                memory.add(_rows([moved[k] for k in updated], len(live)), s[of], y[of], sy[of], yy[of])

        if redirect:
            redirect.sort()
            at = _rows(redirect, len(live))
            new_direction = memory.directions(at, grad[at])
            descent = _rowdot(grad[at], new_direction).tolist()
            for k, r in enumerate(redirect):
                if descent[k] >= 0.0 and memory.has_pairs(r):  # not a descent direction: forget the pairs
                    memory.forget(r)
                    new_direction[k] = -grad[r]
                    descent[k] = float(np.dot(grad[r], new_direction[k]))
                if descent[k] >= 0.0:
                    stopped[r] = False
                    continue
                # L-BFGS-B's first step is 1 / |d|, every later one starts at 1.
                step[r] = 1.0 if iterations[r] else min(1.0 / math.sqrt(-descent[k]), MAX_STEP)
                slope0[r] = descent[k]
                searches[r] = _LineSearch(value[r], descent[k], step[r])
            direction[at] = new_direction

        if stopped:
            for r, converged in stopped.items():
                results[live[r]] = _single_run(
                    x[r].copy(), states[r].copy(), energy[r], value[r], traces[r], converged, config
                )
            keep = [r for r in range(len(live)) if r not in stopped]
            live, searches, traces, iterations = (
                [items[r] for r in keep] for items in (live, searches, traces, iterations)
            )
            x, grad, direction, states, value, energy, step, slope0 = (
                array[keep] for array in (x, grad, direction, states, value, energy, step, slope0)
            )
            memory.keep(keep)
            rows = tuple(kernel_rows[i] for i in live)
        trial = x + step[:, None] * direction
    return results


def _best(rows: list[tuple[VqeResult, float]]) -> VqeResult:
    """The result of the lowest final objective, the earliest row on a tie."""
    return rows[min(range(len(rows)), key=lambda k: (rows[k][1], k))][0]


def minimize(ansatz, config: ObjectiveConfig, opt: OptimizerConfig) -> VqeResult:
    """Best VQE result over restarts; deterministic for a given seed.

    The restarts run as one lockstep batch (minimize_rows), which also
    takes chosen starts. Exhausting the iteration budget is reported
    through converged=False, not an exception.
    """
    circuit = _as_circuit(ansatz)
    starts = opt.starts(circuit.n_slots)
    return _best(minimize_rows([circuit] * len(starts), config, opt.max_iter, starts))


def excited_states(ansatz, hamiltonian, v_max: int, opt: OptimizerConfig):
    """Sequential deflation: solve v=0, penalize its state, re-solve, ...

    beta_v = BETA_MARGIN * (Gershgorin upper bound - E_v), which dominates
    every gap E_{v+1} - E_v.
    """
    if v_max < 0:
        raise ValueError(f"v_max must be >= 0, got {v_max}")
    hamiltonian = _symmetric_matrix(hamiltonian)
    upper = gershgorin_upper(hamiltonian)
    circuit = _as_circuit(ansatz)

    results = []
    for v in range(v_max + 1):
        deflation = tuple((r.state, BETA_MARGIN * max(upper - r.energy, 1e-6)) for r in results)
        results.append(minimize(circuit, ObjectiveConfig(hamiltonian, deflation), replace(opt, seed=(*opt.seed, v))))
    return results
