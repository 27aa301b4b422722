"""Measurement plans for truncated DVR Hamiltonians.

A plan reconstructs the truncated operator as a weighted sum of
measurement outcomes:

    diag(D)  +  sum_bases coeff * sum_outcomes w(o) * (V|o><o|V^dag)

with the analysis circuit (V^dag, what gets appended to the state before a
Z-basis measurement) stored per basis.

Band terms: for each retained band k, matrix-element pairs (i, i+k) are
grouped by their XOR mask; one GHZ-style basis per mask measures every
pair with that mask at once. Outcome w (pivot bit 0) corresponds to the
"+" superposition of {w, w ^ mask} and carries weight 2.

Anti-diagonal terms: every anti-diagonal element pair (i, j) with i+j = kappa
also has an XOR mask; a product measurement with X exactly on the mask
qubits (Z elsewhere) covers, per Z-outcome pattern, one anti-diagonal
restricted to that mask. Bases are enumerated by mask value 0..r-1, the
value-0 basis being the plain-Z one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, cnot, hadamard, pauli_x
from .hamiltonian import DvrHamiltonian, retained_antidiagonals
from .simulator import apply_circuit, sample_counts


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
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.s < 1 or self.r < 1:
            raise ValueError(f"s and r must be >= 1, got s={self.s}, r={self.r}")

    @classmethod
    def from_epsilon(cls, epsilon, n_qubits, alpha=1.0, beta=1.0, streamlined=False):
        """Derive s = ceil(eps^(-1/alpha)), r = ceil(eps^(-1/beta)), capped at 2^n."""
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        n_pts = 2 ** n_qubits
        s = min(math.ceil(epsilon ** (-1.0 / alpha)), n_pts)
        r = min(math.ceil(epsilon ** (-1.0 / beta)), n_pts)
        return cls(s, r, streamlined, epsilon, alpha, beta)

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
    """One analysis circuit with its outcome weights.

    The measured contribution is coeff * sum_o weights[o] * P(outcome o)
    after appending ``circuit`` to the state.
    """

    circuit: Circuit
    weights: dict[int, float]
    coeff: float = 1.0
    label: str = ""


@dataclass(frozen=True)
class MeasurementPlan:
    n_qubits: int
    diag: np.ndarray
    band_bases: tuple[MeasBasis, ...]
    anti_bases: tuple[MeasBasis, ...]
    q_vectors: dict[int, np.ndarray] | None = None
    spec: TruncationSpec | None = None

    @property
    def bases(self) -> tuple[MeasBasis, ...]:
        return self.band_bases + self.anti_bases

    @property
    def num_bases(self) -> int:
        """Total circuits including the plain-Z diagonal basis."""
        return 1 + len(self.band_bases) + len(self.anti_bases)


def _mask_qubits(mask: int, n: int) -> list[int]:
    return [q for q in range(n) if (mask >> (n - 1 - q)) & 1]


def plus_prep_circuit(j: int, p: int, n_qubits: int) -> Circuit:
    """Circuit mapping |0...0> to (|j> + |p>)/sqrt(2).

    X gates set the bits common to j and p, an H on the pivot (the
    lowest-index differing qubit) opens the superposition, CNOTs from the
    pivot spread it over the remaining differing qubits, and X corrections
    align each branch with j and p. The analysis circuit is the inverse.
    """
    n_pts = 2 ** n_qubits
    if not (0 <= j < n_pts and 0 <= p < n_pts):
        raise ValueError(f"indices must be in [0, {n_pts}), got {j}, {p}")
    if j == p:
        raise ValueError(f"j and p must differ, got {j} == {p}")
    mask = j ^ p
    qubits = _mask_qubits(mask, n_qubits)
    pivot = qubits[0]
    j_bit = lambda q: (j >> (n_qubits - 1 - q)) & 1

    gates: list[Gate] = []
    for q in range(n_qubits):
        if not (mask >> (n_qubits - 1 - q)) & 1 and j_bit(q):
            gates.append(pauli_x(q))
    gates.append(hadamard(pivot))
    for q in qubits[1:]:
        gates.append(cnot(pivot, q))
    for q in qubits[1:]:
        if j_bit(q) != j_bit(pivot):
            gates.append(pauli_x(q))
    return Circuit(n_qubits, tuple(gates), 0)


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
    unit-normalized weight 2. q is accumulated operationally as the
    diagonal the weighted projectors produce.
    """
    n_pts = 2 ** n
    if not 1 <= k <= n_pts - 1:
        raise ValueError(f"band index k must be in [1, {n_pts - 1}], got {k}")
    by_mask: dict[int, dict[int, float]] = {}
    q_vec = np.zeros(n_pts)
    for i in range(n_pts - k):
        j = i + k
        mask = i ^ j
        pivot_bit = 1 << (n - 1 - _mask_qubits(mask, n)[0])
        w = i if not i & pivot_bit else j
        by_mask.setdefault(mask, {})[w] = 2.0
        q_vec[i] += 1.0
        q_vec[j] += 1.0
    bases = [
        MeasBasis(_mask_analysis_circuit(mask, n), weights, 1.0, f"band k={k} mask={mask:0{n}b}")
        for mask, weights in sorted(by_mask.items())
    ]
    return bases, q_vec


def q_vector_operational(k: int, n: int) -> np.ndarray:
    return band_plan(k, n)[1]


def antidiag_plan(g: np.ndarray, r: int, n: int, streamlined: bool = False) -> list[MeasBasis]:
    """Product-measurement bases covering the retained anti-diagonals.

    One basis per XOR-mask value S = 0..r-1: X on the mask qubits, Z
    elsewhere (S = 0 is the plain-Z basis). An outcome o in basis S lands
    on anti-diagonal kappa = 2*val(o & ~S) + S with sign (-1)^popcount(o & S),
    and is weighted g(kappa) when kappa is retained. The high n-p qubits
    therefore only ever contribute through all-0 (and, when not
    streamlined, all-1) outcomes.
    """
    n_pts = 2 ** n
    if not 1 <= r <= n_pts:
        raise ValueError(f"r must be in [1, {n_pts}], got {r}")
    g = np.asarray(g, dtype=float)
    if g.shape != (2 * n_pts - 1,):
        raise ValueError(f"g must have length {2 * n_pts - 1}, got {g.shape}")
    retained = retained_antidiagonals(n, r, streamlined)

    bases = []
    for mask in range(r):
        weights: dict[int, float] = {}
        for o in range(n_pts):
            kappa = 2 * (o & ~mask) + mask
            if retained[kappa] and g[kappa] != 0.0:
                sign = -1.0 if bin(o & mask).count("1") % 2 else 1.0
                weights[o] = sign * g[kappa]
        if not weights:
            continue
        gates = tuple(hadamard(q) for q in _mask_qubits(mask, n))
        bases.append(
            MeasBasis(Circuit(n, gates, 0), weights, 1.0, f"anti mask={mask:0{n}b}")
        )
    return bases


def full_plan(h: DvrHamiltonian, spec: TruncationSpec) -> MeasurementPlan:
    """Plan whose weighted reconstruction equals truncate(h, s, r).

    The potential folds into the diagonal d; D then compensates the
    diagonal contamination from the band plans (f(k) * q^k(i)) and from
    any retained even anti-diagonal (g(2i)).
    """
    n = h.n_qubits
    n_pts = h.n_points
    profile = h.profile
    s_eff = min(spec.s, n_pts)

    d_full = profile.d + h.potential_diag
    diag = d_full.copy()

    band_bases: list[MeasBasis] = []
    q_vectors: dict[int, np.ndarray] = {}
    for k in range(1, s_eff):
        f_k = profile.f[k]
        if f_k == 0.0:
            continue
        bases, q_vec = band_plan(k, n)
        q_vectors[k] = q_vec
        diag -= f_k * q_vec
        for b in bases:
            band_bases.append(MeasBasis(b.circuit, b.weights, f_k, b.label))

    retained = retained_antidiagonals(n, spec.r, spec.streamlined)
    if np.any(np.abs(profile.g) > 0.0):
        anti_bases = antidiag_plan(profile.g, spec.r, n, spec.streamlined)
        even = 2 * np.arange(n_pts)
        diag -= np.where(retained[even], profile.g[even], 0.0)
    else:
        anti_bases = []

    return MeasurementPlan(n, diag, tuple(band_bases), tuple(anti_bases), q_vectors, spec)


def plan_to_matrix(plan: MeasurementPlan) -> np.ndarray:
    """Dense operator diag(D) + sum coeff * w * (V|o><o|V^dag)."""
    n_pts = 2 ** plan.n_qubits
    out = np.diag(plan.diag).astype(complex)
    for basis in plan.bases:
        prep = basis.circuit.inverse()
        for o, w in basis.weights.items():
            col = np.zeros(n_pts, dtype=complex)
            col[o] = 1.0
            vec = apply_circuit(prep, col)
            out += basis.coeff * w * np.outer(vec, vec.conj())
    if np.max(np.abs(out.imag)) > 1e-12 * max(1.0, np.max(np.abs(out.real))):
        raise RuntimeError("plan reconstruction has an imaginary part")
    return out.real


def band_operator(k: int, n: int, q_vec=None) -> np.ndarray:
    """Dense t^{k[n]}: ones on the +-k bands plus diag(q)."""
    n_pts = 2 ** n
    idx = np.arange(n_pts)
    t = (np.abs(idx[:, None] - idx[None, :]) == k).astype(float)
    if q_vec is None:
        q_vec = q_vector_operational(k, n)
    t[idx, idx] += q_vec
    return t


def antidiag_operator(k: int, n: int) -> np.ndarray:
    """Dense a^{k[n]} with entries delta_{i+j,k}, k in [0, 2^(n+1)-2]."""
    n_pts = 2 ** n
    idx = np.arange(n_pts)
    return ((idx[:, None] + idx[None, :]) == k).astype(float)


def evaluate_exact(plan: MeasurementPlan, state: np.ndarray) -> float:
    """tau from exact outcome probabilities; a real state stays real."""
    state = np.asarray(state)
    n_pts = 2 ** plan.n_qubits
    if state.shape != (n_pts,):
        raise ValueError(f"state dimension {state.shape} does not match {plan.n_qubits} qubits")
    tau = float(np.dot(plan.diag, np.abs(state) ** 2))
    for basis in plan.bases:
        probs = np.abs(apply_circuit(basis.circuit, state)) ** 2
        tau += basis.coeff * sum(w * probs[o] for o, w in sorted(basis.weights.items()))
    return tau


@dataclass(frozen=True)
class BasisSample:
    label: str
    shots: int
    estimate: float
    std_error: float


@dataclass(frozen=True)
class SampledTau:
    estimate: float
    std_error: float
    per_basis: tuple[BasisSample, ...]


def evaluate_sampled(plan: MeasurementPlan, state, shots_per_basis: int, seed) -> SampledTau:
    """Unbiased sampled estimate of evaluate_exact with its standard error.

    Each basis (the diagonal Z basis is index 0) draws from an independent
    stream keyed by (seed, basis index), so results are reproducible and
    independent of evaluation order.
    """
    if shots_per_basis < 1:
        raise ValueError(f"shots_per_basis must be >= 1, got {shots_per_basis}")
    state = np.asarray(state)
    n_pts = 2 ** plan.n_qubits

    diag_basis = MeasBasis(Circuit(plan.n_qubits, (), 0), dict(enumerate(plan.diag)), 1.0, "diag")
    rows = []
    for index, basis in enumerate((diag_basis, *plan.bases)):
        counts = sample_counts(state, basis.circuit, shots_per_basis, [seed, index])
        values = np.zeros(n_pts)
        for o, w in basis.weights.items():
            values[o] = basis.coeff * w
        mean = float(np.dot(counts, values)) / shots_per_basis
        second = float(np.dot(counts, values**2)) / shots_per_basis
        var = max(second - mean * mean, 0.0)
        if shots_per_basis > 1:
            var *= shots_per_basis / (shots_per_basis - 1)
        rows.append(BasisSample(basis.label, shots_per_basis, mean, math.sqrt(var / shots_per_basis)))

    estimate = sum(row.estimate for row in rows)
    std_error = math.sqrt(sum(row.std_error**2 for row in rows))
    return SampledTau(estimate, std_error, tuple(rows))


def format_plan(plan: MeasurementPlan) -> str:
    """Structured text export: a leading ``diag`` block with all 2^n weights,
    then one block per basis (header, circuit lines, weight lines). Floats
    are written with repr so re-import reproduces evaluate_exact bit for bit.
    """
    from .circuits import format_circuit

    lines = ["diag"]
    for o, w in enumerate(plan.diag):
        lines.append(f"w {o} {float(w)!r}")
    for idx, basis in enumerate(plan.bases):
        lines.append(f"basis {idx} coeff {float(basis.coeff)!r}")
        lines.append(format_circuit(basis.circuit).rstrip("\n"))
        for o, w in sorted(basis.weights.items()):
            lines.append(f"w {o} {float(w)!r}")
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> MeasurementPlan:
    from .circuits import parse_circuit

    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "diag":
        raise ValueError("plan text must start with a 'diag' block")
    diag_weights: dict[int, float] = {}
    bases: list[MeasBasis] = []
    pos = 1
    while pos < len(lines) and lines[pos].startswith("w "):
        _, o, w = lines[pos].split()
        diag_weights[int(o)] = float(w)
        pos += 1
    if not diag_weights:
        raise ValueError("diag block has no weights")
    n_pts = max(diag_weights) + 1
    diag = np.zeros(n_pts)
    for o, w in diag_weights.items():
        diag[o] = w

    while pos < len(lines):
        head = lines[pos].split()
        if head[0] != "basis" or head[2] != "coeff":
            raise ValueError(f"expected 'basis <idx> coeff <c>', got {lines[pos]!r}")
        coeff = float(head[3])
        pos += 1
        circuit_lines = [lines[pos]]
        pos += 1
        while pos < len(lines) and not lines[pos].startswith(("w ", "basis ")):
            circuit_lines.append(lines[pos])
            pos += 1
        circuit = parse_circuit("\n".join(circuit_lines))
        weights: dict[int, float] = {}
        while pos < len(lines) and lines[pos].startswith("w "):
            _, o, w = lines[pos].split()
            weights[int(o)] = float(w)
            pos += 1
        bases.append(MeasBasis(circuit, weights, coeff, f"imported {len(bases)}"))

    n_qubits = n_pts.bit_length() - 1
    if 2 ** n_qubits != n_pts:
        raise ValueError(f"diag block has {n_pts} weights; expected a power of two")
    # File order is preserved (all bases land in band_bases) so that
    # evaluation reproduces the exporting plan bit for bit.
    return MeasurementPlan(n_qubits, diag, tuple(bases), ())


def save_plan(path, plan: MeasurementPlan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_plan(plan))


def load_plan(path) -> MeasurementPlan:
    with open(path, encoding="utf-8") as fh:
        return parse_plan(fh.read())


@dataclass(frozen=True)
class PlanComplexity:
    num_bases: int
    num_band_bases: int
    num_anti_bases: int
    max_circuit_depth: int
    bound_num_bases: int
    band_bounds: dict[int, int]
    anti_bound: int


def plan_complexity(plan: MeasurementPlan) -> PlanComplexity:
    """Actual basis counts against the per-band and total bounds.

    Per band: min(2^l - k + (n-l)k, 2^n - k). Anti-diagonals: 2^p with
    p = ceil(log2 r). The total adds 1 for the diagonal Z basis.
    """
    n = plan.n_qubits
    spec = plan.spec
    if spec is None:
        raise ValueError("plan carries no truncation spec; complexity needs s and r")
    band_bounds = {}
    for k in range(1, min(spec.s, 2 ** n)):
        l = band_width_l(k)
        band_bounds[k] = min(2 ** l - k + (n - l) * k, 2 ** n - k)
    anti_bound = 2 ** spec.p if plan.anti_bases else 0
    bound = 1 + sum(band_bounds.values()) + anti_bound
    depth = max((len(b.circuit.gates) for b in plan.bases), default=0)
    actual = plan.num_bases
    if actual > bound:
        raise RuntimeError(f"plan uses {actual} bases, above the bound {bound}")
    return PlanComplexity(
        actual, len(plan.band_bases), len(plan.anti_bases), depth, bound, band_bounds, anti_bound
    )
