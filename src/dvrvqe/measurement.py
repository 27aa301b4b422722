"""Measurement plans for truncated DVR Hamiltonians.

A plan is a list of bases, each an analysis circuit V^dag (appended to
the state before a Z-basis measurement) with a dense weight per outcome.
It reconstructs the truncated operator as

    sum_bases sum_outcomes w(o) * (V|o><o|V^dag),

so tau = sum_bases sum_o w(o) P(o). The classically weighted diagonal is
the basis with the empty circuit. full_plan keeps one basis per distinct
circuit and folds each band's coefficient f(k) into the weights. A plan
compiles once, on first use (MeasurementPlan.compiled), and only its
weighted outcomes: each is one row e_o^T V^dag of its basis's analysis
circuit, pushed backward through the gates (simulator.analysis_rows),
and the rows stack into one sparse operator with one weight each.
evaluate_exact and plan_to_matrix read that operator; zero-weight
outcomes add nothing to either. evaluate_sampled draws each basis's
shots over its weighted outcomes plus one lumped remainder, the
probability of all its other outcomes.

``scipy.sparse`` is imported at first use, by the compile and by
plan_to_matrix: the ``plan`` task and ``full_plan`` need numpy alone, and
a fresh process that imports scipy pays more for it than ``plan`` computes.

Band terms: for each retained band k, matrix-element pairs (i, i+k) are
grouped by their XOR mask; one GHZ-style basis per mask measures every
pair with that mask at once. Outcome w (pivot bit 0) corresponds to the
"+" superposition of {w, w ^ mask} and carries weight 2 f(k).

Anti-diagonal terms: every anti-diagonal element pair (i, j) with i+j = kappa
also has an XOR mask; a product measurement with X exactly on the mask
qubits (Z elsewhere) covers, per Z-outcome pattern, one anti-diagonal
restricted to that mask. Bases are enumerated by mask value 0..r-1, the
value-0 basis being the plain-Z one.

Text format (format_plan / parse_plan), one block per basis in plan
order, the diagonal first::

    basis <idx>
    <circuit text: 'qubits <n> slots 0', then one gate per line>
    w <outcome> <weight>        (one line per nonzero weight)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, cnot, format_circuit, hadamard, parse_circuit
from .hamiltonian import DvrHamiltonian, retained_antidiagonals
from .simulator import analysis_rows


def band_width_l(k: int) -> int:
    """Smallest qubit count that fits the k-th band."""
    return max(1, math.ceil(math.log2(k + 1)))


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation levels (s, r) and the accuracy they were derived from."""

    s: int
    r: int
    streamlined: bool = False
    epsilon: float | None = None

    def __post_init__(self):
        if self.s < 1 or self.r < 1:
            raise ValueError(f"s and r must be >= 1, got s={self.s}, r={self.r}")

    @classmethod
    def from_epsilon(cls, epsilon, n_qubits, alpha=1.0, beta=1.0, streamlined=False):
        """Derive s = ceil(eps^(-1/alpha)), r = ceil(eps^(-1/beta)), capped at 2^n;
        alpha and beta are the decay exponents of the band and anti-diagonal tails."""
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        n_pts = 2 ** n_qubits
        s = min(math.ceil(epsilon ** (-1.0 / alpha)), n_pts)
        r = min(math.ceil(epsilon ** (-1.0 / beta)), n_pts)
        return cls(s, r, streamlined, epsilon)

    @property
    def p(self) -> int:
        """ceil(log2 r); number of low qubits carrying X measurements."""
        return max(0, math.ceil(math.log2(self.r)))

    def default_shots(self) -> int:
        """ceil(1/sqrt(eps)) per circuit; 1000 when no epsilon was given."""
        if self.epsilon is None:
            return 1000
        return max(1, math.ceil(1.0 / math.sqrt(self.epsilon)))


@dataclass(frozen=True)
class MeasBasis:
    """One analysis circuit with a dense weight per Z-basis outcome.

    The measured contribution is sum_o weights[o] * P(outcome o) after
    appending ``circuit`` to the state; ``weights`` has length 2^n.
    """

    circuit: Circuit
    weights: np.ndarray


@dataclass(frozen=True)
class MeasurementPlan:
    """Analysis circuits with their weights; ``bound_num_bases`` is the
    polynomial basis-count bound of the (h, spec) full_plan built it from."""

    n_qubits: int
    bases: tuple[MeasBasis, ...]
    bound_num_bases: int | None = None

    @property
    def num_bases(self) -> int:
        """Analysis circuits measured, the plain-Z diagonal included."""
        return len(self.bases)

    @cached_property
    def compiled(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray, np.ndarray]:
        """(A, w, place), built on first use and kept, with R the number of
        outcomes that carry a nonzero weight. A is the float64 CSR operator
        of shape (R, 2^n) whose rows are those outcomes' rows e_o^T V_b^dag,
        basis by basis in plan order and by outcome within a basis, and w
        their R weights. place is the (B, K + 1) table, B = num_bases and K
        the largest weighted-outcome count of any basis, whose row b lists
        basis b's rows of A, padded with R; column K holds R too, the slot
        of the basis's lumped remainder.
        """
        import scipy.sparse

        n_pts = 2 ** self.n_qubits
        outcomes = [np.flatnonzero(basis.weights) for basis in self.bases]
        rows = [analysis_rows(basis.circuit, o) for basis, o in zip(self.bases, outcomes)]
        counts = np.array([o.size for o in outcomes])
        n_rows = int(counts.sum())
        widths = np.repeat([cols.shape[1] for cols, _ in rows], counts)
        operator = scipy.sparse.csr_matrix(
            (
                np.concatenate([vals.ravel() for _, vals in rows]),
                np.concatenate([cols.ravel() for cols, _ in rows]),
                np.concatenate([[0], np.cumsum(widths)]),
            ),
            shape=(n_rows, n_pts),
        )
        operator.sort_indices()
        weights = np.concatenate([basis.weights[o] for basis, o in zip(self.bases, outcomes)]).astype(float)
        place = np.full((self.num_bases, counts.max(initial=0) + 1), n_rows)
        place[np.arange(place.shape[1]) < counts[:, None]] = np.arange(n_rows)
        return operator, weights, place

    @cached_property
    def sample_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The (B, K + 1) tables of the weights w and w^2 laid out as
        ``compiled``'s place, with 0 in the padding and the remainder
        column; built on first use by evaluate_sampled and kept."""
        _, weights, place = self.compiled
        table = np.append(weights, 0.0)[place]
        return table, table**2


def _mask_qubits(mask: int, n: int) -> list[int]:
    return [q for q in range(n) if (mask >> (n - 1 - q)) & 1]


def _mask_analysis_circuit(mask: int, n: int) -> Circuit:
    """Inverse of the mask's GHZ-style prep (CNOTs from the pivot, then H)."""
    qubits = _mask_qubits(mask, n)
    pivot = qubits[0]
    gates = [cnot(pivot, q) for q in qubits[1:]]
    gates.append(hadamard(pivot))
    return Circuit(n, tuple(gates), 0)


def band_plan(k: int, n: int) -> tuple[list[MeasBasis], np.ndarray]:
    """Measurement bases for the band operator t^{k[n]} plus its diagonal q.

    Pairs (i, i+k) sharing the XOR mask i ^ (i+k) share one basis; the
    outcome whose pivot bit is 0 labels the pair's "+" state and carries
    unit-normalized weight 2. q(i) counts the pairs that touch i, the
    diagonal the weighted projectors produce.
    """
    n_pts = 2 ** n
    if not 1 <= k <= n_pts - 1:
        raise ValueError(f"band index k must be in [1, {n_pts - 1}], got {k}")
    i = np.arange(n_pts - k)
    masks, which = np.unique(i ^ (i + k), return_inverse=True)
    pivot_bits = np.array([1 << (int(mask).bit_length() - 1) for mask in masks])
    weights = np.zeros((masks.size, n_pts))
    weights[which, np.where(i & pivot_bits[which], i + k, i)] = 2.0
    idx = np.arange(n_pts)
    q_vec = (idx >= k).astype(float) + (idx < n_pts - k)
    bases = [MeasBasis(_mask_analysis_circuit(int(mask), n), w) for mask, w in zip(masks, weights)]
    return bases, q_vec


def antidiag_plan(g: np.ndarray, r: int, n: int, streamlined: bool = False) -> list[MeasBasis]:
    """Product-measurement bases covering the retained anti-diagonals.

    One basis per XOR-mask value S = 0..r-1: X on the mask qubits, Z
    elsewhere (S = 0 is the plain-Z basis). An outcome o in basis S lands
    on anti-diagonal kappa = 2*val(o & ~S) + S with sign (-1)^popcount(o & S),
    and is weighted g(kappa) when kappa is retained. The high n-p qubits
    therefore only ever contribute through all-0 (and, when not
    streamlined, all-1) outcomes. A mask whose weights are all zero gets
    no basis.
    """
    n_pts = 2 ** n
    if not 1 <= r <= n_pts:
        raise ValueError(f"r must be in [1, {n_pts}], got {r}")
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * n_pts - 1,):
        raise ValueError(f"g must have length {2 * n_pts - 1}, got {g.shape}")
    retained = retained_antidiagonals(n, r, streamlined)

    o = np.arange(n_pts)
    parity = np.zeros(n_pts, dtype=int)
    for bit in range(n):
        parity ^= (o >> bit) & 1
    bases = []
    for mask in range(r):
        kappa = 2 * (o & ~mask) + mask
        sign = 1.0 - 2.0 * parity[o & mask]
        weights = np.where(retained[kappa], sign * g[kappa], 0.0)
        if np.any(weights):
            gates = tuple(hadamard(q) for q in _mask_qubits(mask, n))
            bases.append(MeasBasis(Circuit(n, gates), weights))
    return bases


def full_plan(h: DvrHamiltonian, spec: TruncationSpec) -> MeasurementPlan:
    """Plan whose weighted reconstruction equals truncate(h, s, r).

    The potential folds into the diagonal d; the empty circuit's weights
    then compensate the diagonal contamination from the band plans
    (f(k) * q^k(i)) and from any retained even anti-diagonal (g(2i)).
    Bases are keyed by circuit, so every term measured by the same
    analysis circuit (the anti-diagonal mask 0 and the diagonal, a
    single-bit mask in several bands and the anti-diagonals) adds its
    weights to one basis. The stored bound is 1 (the diagonal) plus
    min(2^l - k + (n-l)k, 2^n - k) per retained band plus 2^p when g is
    nonzero, p = ceil(log2 r).
    """
    n = h.n_qubits
    n_pts = h.n_points
    profile = h.profile
    diag = h.diagonal
    weights: dict[Circuit, np.ndarray] = {Circuit(n): diag}

    def add(bases: list[MeasBasis], scale: float = 1.0) -> None:
        for basis in bases:
            merged = weights.setdefault(basis.circuit, np.zeros(n_pts))
            merged += scale * basis.weights

    bound = 1
    for k in range(1, min(spec.s, n_pts)):
        l = band_width_l(k)
        bound += min(2 ** l - k + (n - l) * k, n_pts - k)
        f_k = profile.f[k]
        if f_k != 0.0:
            bases, q_vec = band_plan(k, n)
            diag -= f_k * q_vec
            add(bases, f_k)

    if np.any(profile.g != 0.0):
        bound += 2 ** spec.p
        retained = retained_antidiagonals(n, spec.r, spec.streamlined)
        even = 2 * np.arange(n_pts)
        diag -= np.where(retained[even], profile.g[even], 0.0)
        add(antidiag_plan(profile.g, spec.r, n, spec.streamlined))

    bases = tuple(MeasBasis(circuit, w) for circuit, w in weights.items())
    return MeasurementPlan(n, bases, bound)


def plan_to_matrix(plan: MeasurementPlan) -> np.ndarray:
    """Dense operator A^T diag(w) A from the compiled weighted rows, i.e. the
    sum over bases of V_b diag(w_b) V_b^dag. Every gate is real, so the
    result is real symmetric.
    """
    import scipy.sparse

    operator, weights, _ = plan.compiled
    return (operator.T @ scipy.sparse.diags(weights) @ operator).toarray()


def band_operator(k: int, n: int, q_vec=None) -> np.ndarray:
    """Dense t^{k[n]}: ones on the +-k bands plus diag(q)."""
    n_pts = 2 ** n
    idx = np.arange(n_pts)
    t = (np.abs(idx[:, None] - idx[None, :]) == k).astype(float)
    if q_vec is None:
        q_vec = band_plan(k, n)[1]
    t[idx, idx] += q_vec
    return t


def antidiag_operator(k: int, n: int) -> np.ndarray:
    """Dense a^{k[n]} with entries delta_{i+j,k}, k in [0, 2^(n+1)-2]."""
    n_pts = 2 ** n
    idx = np.arange(n_pts)
    return ((idx[:, None] + idx[None, :]) == k).astype(float)


def _probabilities(plan: MeasurementPlan, state) -> np.ndarray:
    """|A psi|^2: the probability of every weighted outcome, shape (R,)."""
    state = np.asarray(state)
    if state.shape != (2 ** plan.n_qubits,):
        raise ValueError(f"state dimension {state.shape} does not match {plan.n_qubits} qubits")
    return np.abs(plan.compiled[0] @ state) ** 2


def evaluate_exact(plan: MeasurementPlan, state: np.ndarray) -> float:
    """tau = sum_b w_b . |V_b^dag psi|^2 from exact outcome probabilities,
    one sparse matvec with the compiled weighted rows."""
    return float(np.dot(plan.compiled[1], _probabilities(plan, state)))


@dataclass(frozen=True)
class SampledTau:
    """The summed estimate and its standard error, with every basis's mean
    and standard error as arrays in plan order."""

    estimate: float
    std_error: float
    basis_estimates: np.ndarray
    basis_std_errors: np.ndarray


def evaluate_sampled(plan: MeasurementPlan, state, shots_per_basis: int, seed) -> SampledTau:
    """Unbiased sampled estimate of evaluate_exact with its standard error.

    Every basis gets ``shots_per_basis`` shots over its weighted outcomes
    and one lumped remainder, which stands for all its other outcomes and
    has weight 0. V_b is orthogonal, so the remainder's probability is
    ||psi||^2 less the weighted ones, clamped at 0; each row is divided by
    ||psi||^2. All bases are drawn in one multinomial call from one PCG64
    stream seeded with ``seed``, so the result is reproducible for a given
    seed. The per-basis arrays keep the plan's basis order.
    """
    if shots_per_basis < 1:
        raise ValueError(f"shots_per_basis must be >= 1, got {shots_per_basis}")
    place = plan.compiled[2]
    weights, squares = plan.sample_weights
    probs = np.append(_probabilities(plan, state), 0.0)[place]
    norm = float(np.vdot(state, state).real)
    if not norm > 0:
        raise ValueError("cannot sample a zero-norm state")
    probs[:, -1] = np.maximum(norm - probs.sum(axis=1), 0.0)
    probs /= norm
    counts = np.random.default_rng(seed).multinomial(shots_per_basis, probs)

    # The drawn probabilities are spent; their table holds each product in turn.
    mean = np.sum(np.multiply(counts, weights, out=probs), axis=1) / shots_per_basis
    second = np.sum(np.multiply(counts, squares, out=probs), axis=1) / shots_per_basis
    var = np.maximum(second - mean * mean, 0.0)
    if shots_per_basis > 1:
        var *= shots_per_basis / (shots_per_basis - 1)
    std_errors = np.sqrt(var / shots_per_basis)
    return SampledTau(float(np.sum(mean)), float(math.sqrt(np.sum(std_errors**2))), mean, std_errors)


def format_plan(plan: MeasurementPlan) -> str:
    """Structured text export: per basis a ``basis <idx>`` header, the
    analysis circuit in circuit-text form and a ``w <outcome> <weight>``
    line per nonzero weight. Floats are written with repr so re-import
    reproduces evaluate_exact bit for bit.
    """
    lines = []
    for idx, basis in enumerate(plan.bases):
        lines.append(f"basis {idx}")
        lines.append(format_circuit(basis.circuit).rstrip("\n"))
        for o in np.flatnonzero(basis.weights):
            lines.append(f"w {o} {float(basis.weights[o])!r}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> MeasurementPlan:
    """Read format_plan text; blocks keep their file order and are not merged.

    Raises ValueError for a plan with no blocks, a block index out of
    sequence, a circuit with parameter slots or a qubit count other than
    block 0's, a weight outcome outside [0, 2^n) and an outcome repeated
    within a block.
    """
    blocks: list[tuple[list[str], dict[int, float]]] = []
    for line in text.splitlines():
        head = line.split()
        if not head:
            continue
        if head[0] == "basis":
            if head != ["basis", str(len(blocks))]:
                raise ValueError(f"expected 'basis {len(blocks)}', got {line!r}")
            blocks.append(([], {}))
        elif not blocks:
            raise ValueError(f"plan text must start with 'basis 0', got {line!r}")
        elif head[0] == "w":
            if len(head) != 3:
                raise ValueError(f"bad weight line {line!r}; expected 'w <outcome> <weight>'")
            outcome, weight = int(head[1]), float(head[2])
            if outcome in blocks[-1][1]:
                raise ValueError(f"basis {len(blocks) - 1} repeats outcome {outcome}")
            blocks[-1][1][outcome] = weight
        elif blocks[-1][1]:
            raise ValueError(f"circuit line {line!r} after the weights of basis {len(blocks) - 1}")
        else:
            blocks[-1][0].append(line)
    if not blocks:
        raise ValueError("plan text has no basis blocks")

    circuits = [parse_circuit("\n".join(circuit_lines)) for circuit_lines, _ in blocks]
    n = circuits[0].n_qubits
    bases = []
    for idx, (circuit, (_, outcomes)) in enumerate(zip(circuits, blocks)):
        if circuit.n_qubits != n:
            raise ValueError(f"basis {idx} has {circuit.n_qubits} qubits, basis 0 has {n}")
        if circuit.n_slots:
            raise ValueError(f"basis {idx} has {circuit.n_slots} parameter slots, an analysis circuit none")
        weights = np.zeros(2 ** n)
        for outcome, weight in outcomes.items():
            if not 0 <= outcome < 2 ** n:
                raise ValueError(f"basis {idx} outcome {outcome} outside [0, {2 ** n})")
            weights[outcome] = weight
        bases.append(MeasBasis(circuit, weights))
    return MeasurementPlan(n, tuple(bases))


def load_plan(path) -> MeasurementPlan:
    with open(path, encoding="utf-8") as fh:
        return parse_plan(fh.read())


@dataclass(frozen=True)
class PlanComplexity:
    num_bases: int
    max_circuit_depth: int
    bound_num_bases: int


def plan_complexity(plan: MeasurementPlan) -> PlanComplexity:
    """Distinct analysis circuits against the bound full_plan stored."""
    if plan.bound_num_bases is None:
        raise ValueError("plan carries no basis-count bound; build it with full_plan")
    depth = max((len(b.circuit.gates) for b in plan.bases), default=0)
    if plan.num_bases > plan.bound_num_bases:
        raise RuntimeError(f"plan uses {plan.num_bases} bases, above the bound {plan.bound_num_bases}")
    return PlanComplexity(plan.num_bases, depth, plan.bound_num_bases)
