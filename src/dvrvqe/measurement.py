"""Measurement plans for truncated DVR Hamiltonians.

``full_plan`` measures the terms kept by ``BandProfile.truncated``, the definition.

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
outcomes add nothing to either. The estimator sum_o w(o) n(o) / shots of
a basis reads its shot counts n(o) only through their sums over the
outcomes of each distinct weight, and those sums are multinomial over the
summed probabilities. So evaluate_sampled draws each basis's shots over
its distinct nonzero weights plus one lumped remainder, the probability
of all its other outcomes: the "+" outcomes of a band's mask all weigh
2 f(k), so a band basis draws a few counts where it has many outcomes.

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
from .grids import _integer, retained_antidiagonals
from .hamiltonian import DvrHamiltonian
from .simulator import analysis_rows

# Bases of at most this many draw slots share one table. A multinomial call
# costs about 7 us, as much as about 1,200 zero-probability padding slots at
# about 6 ns each (numpy 2.4, 2-core x86_64), and most bases of a band plan
# need fewer than 16 slots.
TABLE_WIDTH_FLOOR = 16


def band_width_l(k: int) -> int:
    """Smallest qubit count that fits the k-th band."""
    return max(1, math.ceil(math.log2(k + 1)))


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation levels (s, r), integers (numpy's included, bool not), and
    the accuracy they were derived from."""

    s: int
    r: int
    streamlined: bool = False
    epsilon: float | None = None

    def __post_init__(self):
        s, r = _integer(self.s, "s"), _integer(self.r, "r")
        if s < 1 or r < 1:
            raise ValueError(f"s and r must be >= 1, got s={s}, r={r}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)

    @classmethod
    def from_epsilon(cls, epsilon, n_qubits, streamlined=False):
        """Derive s = r = ceil(1/eps), capped at 2^n: every DVR tail decays with
        exponent 1, f(k) and g(k) ~ 1/k^2 summing to about 1/s and 1/r."""
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        width = min(math.ceil(epsilon ** -1.0), 2 ** n_qubits)
        return cls(width, width, streamlined, epsilon)

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
    basis_count_bound of the (h, spec) full_plan built it from."""

    n_qubits: int
    bases: tuple[MeasBasis, ...]
    bound_num_bases: int | None = None

    @property
    def num_bases(self) -> int:
        """Analysis circuits measured, the plain-Z diagonal included."""
        return len(self.bases)

    @cached_property
    def compiled(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray, DrawLayout]:
        """(A, w, layout), built on first use and kept, with R the number of
        outcomes that carry a nonzero weight. A is the float64 CSR operator
        of shape (R, 2^n) whose rows are those outcomes' rows e_o^T V_b^dag,
        basis by basis in plan order and by outcome within a basis, and w
        their R weights. layout, a DrawLayout, maps each row to the draw
        slot of its weight among its basis's categories.
        """
        import scipy.sparse

        n_pts = 2 ** self.n_qubits
        outcomes = [np.flatnonzero(basis.weights) for basis in self.bases]
        counts = np.array([o.size for o in outcomes])
        weights = np.concatenate([basis.weights[o] for basis, o in zip(self.bases, outcomes)]).astype(float)
        layout = DrawLayout.build(counts, weights)  # its temporaries go before the rows are made
        rows = [analysis_rows(basis.circuit, o) for basis, o in zip(self.bases, outcomes)]
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
        return operator, weights, layout


@dataclass(frozen=True)
class DrawLayout:
    """Where evaluate_sampled draws each basis: the flat slots of a few
    rectangular tables, one table row per basis.

    A basis's categories are its distinct nonzero weights, in ascending
    order, and fill its row from the left; the row's last slot is its
    lumped remainder, and the slots between are padding that is never
    drawn. A basis with c categories gets a row of max(TABLE_WIDTH_FLOOR,
    2^ceil(log2(c + 1))) slots, and the bases of one row width form one
    table, in plan order; tables go by ascending width.

    slots holds the flat slot of each compiled row of A, tables the flat
    (start, stop, width) of each table, row_starts and remainders the
    first and the last flat slot of each row, in flat order (the rows tile
    the flat slots), and category_slots, category_bases and
    category_weights the flat slot, basis and weight of each category,
    basis by basis in plan order.
    """

    size: int
    slots: np.ndarray
    tables: tuple[tuple[int, int, int], ...]
    row_starts: np.ndarray
    remainders: np.ndarray
    category_slots: np.ndarray
    category_bases: np.ndarray
    category_weights: np.ndarray

    @classmethod
    def build(cls, counts: np.ndarray, weights: np.ndarray) -> DrawLayout:
        """The layout of bases with counts[b] consecutive weighted rows each,
        in plan order, whose weights are ``weights``."""
        n_bases = counts.size
        row_bases = np.repeat(np.arange(n_bases), counts)
        order = np.lexsort((weights, row_bases))
        bases, values = row_bases[order], weights[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (bases[1:] != bases[:-1]) | (values[1:] != values[:-1])
        row_categories = np.empty(order.size, dtype=np.intp)
        row_categories[order] = np.cumsum(first) - 1
        category_bases, category_weights = bases[first], values[first]

        n_categories = np.bincount(category_bases, minlength=n_bases)
        # 2^ceil(log2(c + 1)) = 2^bit_length(c), and frexp's exponent of c is its bit length.
        width = np.maximum(TABLE_WIDTH_FLOOR, np.left_shift(1, np.frexp(n_categories)[1].astype(np.intp)))
        table_order = np.argsort(width, kind="stable")
        row_width = width[table_order]
        row_stops = np.cumsum(row_width)
        origins = np.empty(n_bases, dtype=np.intp)
        origins[table_order] = row_stops - row_width
        table_widths, table_bases = np.unique(row_width, return_counts=True)
        stops = np.cumsum(table_widths * table_bases)
        tables = tuple(zip((stops - table_widths * table_bases).tolist(), stops.tolist(), table_widths.tolist()))

        first_category = np.cumsum(n_categories) - n_categories
        rank = np.arange(category_bases.size) - first_category[category_bases]
        category_slots = origins[category_bases] + rank
        return cls(
            int(row_stops[-1]), category_slots[row_categories], tables, row_stops - row_width, row_stops - 1,
            category_slots, category_bases, category_weights,
        )


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


def basis_count_bound(h: DvrHamiltonian, spec: TruncationSpec) -> int:
    """The polynomial bound on full_plan's basis count: 1 (the diagonal)
    plus min(2^l - k + (n-l)k, 2^n - k) per retained band k, l =
    band_width_l(k), plus 2^p when a retained g is nonzero, p = ceil(log2 r)."""
    n, n_pts = h.n_qubits, h.n_points
    kept = h.profile.truncated(spec.s, spec.r, spec.streamlined)
    bound = 1 + (2 ** spec.p if np.any(kept.g) else 0)
    for k in np.flatnonzero(kept.f).tolist():
        l = band_width_l(k)
        bound += min(2 ** l - k + (n - l) * k, n_pts - k)
    return bound


def full_plan(h: DvrHamiltonian, spec: TruncationSpec) -> MeasurementPlan:
    """Plan whose weighted reconstruction equals truncate(h, s, r).

    The potential folds into the diagonal d; the empty circuit's weights
    then compensate the diagonal contamination from the band plans
    (f(k) * q^k(i)) and from any retained even anti-diagonal (g(2i)).
    Bases are keyed by circuit, so every term measured by the same
    analysis circuit (the anti-diagonal mask 0 and the diagonal, a
    single-bit mask in several bands and the anti-diagonals) adds its
    weights to one basis.
    """
    n = h.n_qubits
    n_pts = h.n_points
    kept = h.profile.truncated(spec.s, spec.r, spec.streamlined)
    diag = h.diagonal
    weights: dict[Circuit, np.ndarray] = {Circuit(n): diag}

    def add(bases: list[MeasBasis], scale: float = 1.0) -> None:
        for basis in bases:
            merged = weights.setdefault(basis.circuit, np.zeros(n_pts))
            merged += scale * basis.weights

    for k in np.flatnonzero(kept.f).tolist():
        bases, q_vec = band_plan(k, n)
        diag -= kept.f[k] * q_vec
        add(bases, kept.f[k])

    if np.any(kept.g):
        diag -= kept.g[::2]
        add(antidiag_plan(kept.g, spec.r, n, spec.streamlined))

    bases = tuple(MeasBasis(circuit, w) for circuit, w in weights.items())
    return MeasurementPlan(n, bases, basis_count_bound(h, spec))


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


def _probabilities(plan: MeasurementPlan, state) -> tuple[np.ndarray, float]:
    """|A psi|^2, the probability of every weighted outcome (shape (R,)),
    and ||psi||^2. A state that is not finite, or whose ||psi||^2 is not,
    is rejected before any arithmetic on its entries."""
    state = np.asarray(state)
    if state.shape != (2 ** plan.n_qubits,):
        raise ValueError(f"state dimension {state.shape} does not match {plan.n_qubits} qubits")
    norm = float(np.vdot(state, state).real)  # NaN or inf for a state that is not finite
    if not math.isfinite(norm):
        if not np.isfinite(state).all():
            raise ValueError("state has an amplitude that is not finite")
        raise ValueError("state's squared norm overflows float64")
    return np.abs(plan.compiled[0] @ state) ** 2, norm


def evaluate_exact(plan: MeasurementPlan, state: np.ndarray) -> float:
    """tau = sum_b w_b . |V_b^dag psi|^2 from exact outcome probabilities,
    one sparse matvec with the compiled weighted rows."""
    return float(np.dot(plan.compiled[1], _probabilities(plan, state)[0]))


@dataclass(frozen=True)
class SampledTau:
    """The summed estimate and its standard error, with every basis's mean
    and standard error as arrays in plan order. Each basis's mean is
    sum_o w_o n_o / shots over its drawn counts n_o, and its standard error
    the Bessel-corrected spread of the weights of its shots over sqrt(shots)."""

    estimate: float
    std_error: float
    basis_estimates: np.ndarray
    basis_std_errors: np.ndarray


def evaluate_sampled(plan: MeasurementPlan, state, shots_per_basis: int, seed) -> SampledTau:
    """Unbiased sampled estimate of evaluate_exact with its standard error.

    Every basis gets ``shots_per_basis`` shots, an integer (numpy's
    included, bool not), over its categories, the distinct nonzero weights
    of the compiled layout, and one lumped remainder that stands for all
    its other outcomes and weighs 0. A category's probability is the sum
    of its outcomes'. V_b is orthogonal, so the remainder's probability is
    ||psi||^2 less the categories', clamped at 0; each row is divided by
    ||psi||^2. Each table of the layout is one multinomial call, in table
    order, from one PCG64 stream seeded with ``seed``, so the result is
    reproducible for a given seed. The per-basis arrays keep the plan's
    basis order.
    """
    shots = _integer(shots_per_basis, "shots_per_basis")
    if shots < 1:
        raise ValueError(f"shots_per_basis must be >= 1, got {shots}")
    probs, norm = _probabilities(plan, state)
    if not norm > 0:
        raise ValueError("cannot sample a zero-norm state")
    layout = plan.compiled[2]
    # bincount of no rows gives int64 zeros; the tables are written in place.
    table = np.bincount(layout.slots, probs, layout.size).astype(float, copy=False)
    table[layout.remainders] = np.maximum(norm - np.add.reduceat(table, layout.row_starts), 0.0)
    table /= norm
    counts = np.empty(layout.size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    for start, stop, width in layout.tables:
        counts[start:stop] = rng.multinomial(shots, table[start:stop].reshape(-1, width)).ravel()

    weighed = counts[layout.category_slots] * layout.category_weights
    mean = np.bincount(layout.category_bases, weighed, plan.num_bases) / shots
    second = np.bincount(layout.category_bases, weighed * layout.category_weights, plan.num_bases) / shots
    var = np.maximum(second - mean * mean, 0.0)
    if shots > 1:
        var *= shots / (shots - 1)
    std_errors = np.sqrt(var / shots)
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
    block 0's, a weight outcome outside [0, 2^n), an outcome repeated
    within a block and a weight that is not a finite number.
    """
    blocks: list[list[str]] = []  # the circuit lines of each block
    starts: list[int] = []  # the index of each block's first line in weight_lines
    weight_lines: list[str] = []  # of all blocks, in file order
    for line in text.splitlines():
        head = ("w",) if line.startswith("w ") else line.split()  # weight tokens are read in bulk
        if not head:
            continue
        if head[0] == "w" and blocks:
            weight_lines.append(line)
            continue
        if head[0] == "basis":
            if head == ["basis", str(len(blocks))]:
                blocks.append([])
                starts.append(len(weight_lines))
                continue
            error = f"expected 'basis {len(blocks)}', got {line!r}"
        elif not blocks:
            error = f"plan text must start with 'basis 0', got {line!r}"
        elif len(weight_lines) == starts[-1]:
            blocks[-1].append(line)
            continue
        else:
            error = f"circuit line {line!r} after the weights of basis {len(blocks) - 1}"
        _read_weights(weight_lines, starts)  # a bad weight line above comes first
        raise ValueError(error)
    if not blocks:
        raise ValueError("plan text has no basis blocks")
    outcomes, values = _read_weights(weight_lines, starts)

    circuits = [parse_circuit("\n".join(circuit_lines)) for circuit_lines in blocks]
    n = circuits[0].n_qubits
    ends = [*starts[1:], len(outcomes)]
    for idx, (circuit, start, end) in enumerate(zip(circuits, starts, ends)):
        if circuit.n_qubits != n:
            raise ValueError(f"basis {idx} has {circuit.n_qubits} qubits, basis 0 has {n}")
        if circuit.n_slots:
            raise ValueError(f"basis {idx} has {circuit.n_slots} parameter slots, an analysis circuit none")
        block = outcomes[start:end]
        if block and (min(block) < 0 or max(block) >= 2 ** n):
            outcome = next(o for o in block if not 0 <= o < 2 ** n)
            raise ValueError(f"basis {idx} outcome {outcome} outside [0, {2 ** n})")
    weights = np.zeros((len(circuits), 2 ** n))
    weights[np.repeat(np.arange(len(circuits)), np.subtract(ends, starts)), outcomes] = values
    return MeasurementPlan(n, tuple(map(MeasBasis, circuits, weights)))


def _read_weights(lines: list[str], starts: list[int]) -> tuple[list[int], list[float]]:
    """Outcomes and weights of ``w <outcome> <weight>`` lines, in line order;
    block b owns lines[starts[b]:starts[b + 1]]. The lines are converted in
    bulk; if a bulk check fails they are read one at a time, so that the
    error names the first bad line."""
    tokens = " ".join(lines).split()
    count = len(lines)
    ends = [*starts[1:], count]
    # Each of the count lines starts with a "w" token, which int and float
    # reject. With 3 * count tokens, numbers at 1 and 2 mod 3 leave the lines
    # only the places 0 mod 3 to start at, so each holds three tokens.
    if len(tokens) == 3 * count:
        try:
            outcomes, values = list(map(int, tokens[1::3])), list(map(float, tokens[2::3]))
        except ValueError:
            pass
        else:
            distinct = all(len(set(outcomes[start:end])) == end - start for start, end in zip(starts, ends))
            if distinct and all(map(math.isfinite, values)):
                return outcomes, values
    outcomes, values = [], []
    for basis, (start, end) in enumerate(zip(starts, ends)):
        read: dict[int, float] = {}
        for line in lines[start:end]:
            head = line.split()
            if len(head) != 3:
                raise ValueError(f"bad weight line {line!r}; expected 'w <outcome> <weight>'")
            outcome, weight = int(head[1]), float(head[2])
            if not math.isfinite(weight):
                raise ValueError(f"basis {basis} outcome {outcome} weight {head[2]!r} is not finite")
            if outcome in read:
                raise ValueError(f"basis {basis} repeats outcome {outcome}")
            read[outcome] = weight
        outcomes += read
        values += read.values()
    return outcomes, values


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
