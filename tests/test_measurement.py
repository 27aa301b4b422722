import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrvqe import build_grid, assemble, truncate, truncation_error_bound
from dvrvqe.circuits import Circuit, ry
from dvrvqe.hamiltonian import retained_antidiagonals
from dvrvqe.measurement import (
    MeasBasis,
    MeasurementPlan,
    TruncationSpec,
    antidiag_operator,
    antidiag_plan,
    band_operator,
    band_plan,
    band_width_l,
    basis_count_bound,
    evaluate_exact,
    evaluate_sampled,
    format_plan,
    full_plan,
    parse_plan,
    plan_complexity,
    plan_to_matrix,
)
from dvrvqe.circuits import cnot, hadamard, pauli_x
from dvrvqe.measurement import _mask_analysis_circuit
from dvrvqe.simulator import apply_circuit, run

from conftest import DIATOMIC_MASS, DIATOMIC_MORSE, MASS, MORSE, random_state


def dense_from_bases(bases, n):
    """Brute-force projector assembly sum_o w (V|o><o|V^dag)."""
    out = np.zeros((2**n, 2**n), dtype=complex)
    for basis in bases:
        prep = Circuit(n, basis.circuit.gates[::-1])  # H, CNOT and X are their own inverses
        for o in np.flatnonzero(basis.weights):
            col = np.zeros(2**n, dtype=complex)
            col[o] = 1.0
            vec = apply_circuit(prep, col)
            out += basis.weights[o] * np.outer(vec, vec.conj())
    assert np.max(np.abs(out.imag)) < 1e-14
    return out.real


def tau_by_bases(plan, state):
    """Per-basis loop oracle: sum_b w_b . |V_b psi|^2, one apply_circuit per basis."""
    return sum(float(np.dot(b.weights, np.abs(apply_circuit(b.circuit, state)) ** 2)) for b in plan.bases)


def circuit_mask(circuit):
    """XOR mask of the qubits an analysis circuit touches (qubit 0 = MSB)."""
    n = circuit.n_qubits
    qubits = {g.qubit for g in circuit.gates} | {g.other for g in circuit.gates if g.kind == "cnot"}
    return sum(1 << (n - 1 - q) for q in qubits)


def plus_prep_circuit(j, p, n_qubits):
    """Oracle circuit mapping |0...0> to (|j> + |p>)/sqrt(2).

    X gates set the bits common to j and p, an H on the pivot (the
    lowest-index differing qubit) opens the superposition, CNOTs from the
    pivot spread it over the remaining differing qubits, and X corrections
    align each branch with j and p.
    """
    n_pts = 2**n_qubits
    if not (0 <= j < n_pts and 0 <= p < n_pts):
        raise ValueError(f"indices must be in [0, {n_pts}), got {j}, {p}")
    if j == p:
        raise ValueError(f"j and p must differ, got {j} == {p}")
    mask = j ^ p
    qubits = [q for q in range(n_qubits) if (mask >> (n_qubits - 1 - q)) & 1]
    pivot = qubits[0]
    j_bit = lambda q: (j >> (n_qubits - 1 - q)) & 1
    gates = [pauli_x(q) for q in range(n_qubits) if q not in qubits and j_bit(q)]
    gates.append(hadamard(pivot))
    gates += [cnot(pivot, q) for q in qubits[1:]]
    gates += [pauli_x(q) for q in qubits[1:] if j_bit(q) != j_bit(pivot)]
    return Circuit(n_qubits, tuple(gates), 0)


class TestPlusPrep:
    @pytest.mark.parametrize("j,p,gates", [
        (0b00, 0b11, ["h0", "cnot01"]),
        (0b01, 0b10, ["h0", "cnot01", "x1"]),
        (0b10, 0b11, ["x0", "h1"]),
    ])
    def test_reference_circuits(self, j, p, gates):
        circuit = plus_prep_circuit(j, p, 2)
        names = [f"{g.kind}{g.qubit}{g.other if g.kind == 'cnot' else ''}" for g in circuit.gates]
        assert names == gates
        state = run(circuit)
        expected = np.zeros(4)
        expected[[j, p]] = 1.0 / np.sqrt(2)
        assert np.allclose(state, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_pairs(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            j, p = rng.choice(2**n, size=2, replace=False)
            circuit = plus_prep_circuit(int(j), int(p), n)
            state = run(circuit)
            expected = np.zeros(2**n)
            expected[[j, p]] = 1.0 / np.sqrt(2)
            assert np.allclose(state, expected, atol=1e-14)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            plus_prep_circuit(3, 3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_mask_analysis_circuit_inverts_prep(self, n):
        """For j < p, whose pivot bit (the highest one of j ^ p) is 0 in j, the band
        plan's analysis circuit maps (|j> + |p>)/sqrt(2) to |j> and
        (|j> - |p>)/sqrt(2) to |j> with the pivot bit set."""
        for j in range(2**n):
            for p in range(j + 1, 2**n):
                mask = j ^ p
                pivot_bit = 1 << (mask.bit_length() - 1)
                analysis = _mask_analysis_circuit(mask, n)
                plus = apply_circuit(analysis, run(plus_prep_circuit(j, p, n)))
                minus = np.zeros(2**n)
                minus[[j, p]] = [1.0, -1.0]
                minus = apply_circuit(analysis, minus / np.sqrt(2))
                assert np.allclose(plus, np.eye(2**n)[j], atol=1e-14)
                assert np.allclose(minus, np.eye(2**n)[j | pivot_bit], atol=1e-14)


class TestBandPlan:
    def test_k1_n1_single_plus_basis(self):
        bases, q = band_plan(1, 1)
        assert len(bases) == 1
        assert np.array_equal(bases[0].weights, [2.0, 0.0])
        assert np.array_equal(q, [1.0, 1.0])
        dense = dense_from_bases(bases, 1)
        assert np.allclose(dense, [[1.0, 1.0], [1.0, 1.0]])

    def test_k1_n2_masks_and_q(self):
        bases, q = band_plan(1, 2)
        assert len(bases) == 2
        assert np.array_equal(q, [1.0, 2.0, 2.0, 1.0])
        dense = dense_from_bases(bases, 2)
        off = dense - np.diag(q)
        assert np.array_equal(np.flatnonzero(np.abs(off) > 1e-12), [1, 4, 6, 9, 11, 14])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reconstruction_identity(self, n):
        for k in range(1, min(2**n, 8)):
            bases, q = band_plan(k, n)
            dense = dense_from_bases(bases, n)
            assert np.max(np.abs(dense - band_operator(k, n, q))) < 1e-12

    @pytest.mark.parametrize("n", range(2, 7))
    def test_basis_count_bounds(self, n):
        for k in range(1, 2**n):
            bases, _ = band_plan(k, n)
            l = band_width_l(k)
            assert len(bases) <= 2**l - k + (n - l) * k
            log2k = math.log2(k) if k > 1 else 0.0
            assert len(bases) <= (n + 1 - log2k) * k

    def test_k1_n4_mask_enumeration(self):
        bases, _ = band_plan(1, 4)
        masks = sorted(circuit_mask(basis.circuit) for basis in bases)
        assert masks == [0b0001, 0b0011, 0b0111, 0b1111]
        assert len(bases) == 4 <= 5  # (n + 1 - log2 1) * 1

    def test_k2_n4_count_bound(self):
        bases, _ = band_plan(2, 4)
        assert len(bases) <= (4 + 1 - 1) * 2

    @pytest.mark.parametrize("n", range(2, 6))
    def test_circuit_depth_on_mask_qubits(self, n):
        for k in range(1, 2**n):
            bases, _ = band_plan(k, n)
            for basis in bases:
                mask = circuit_mask(basis.circuit)
                assert len(basis.circuit.gates) <= bin(mask).count("1") + 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            band_plan(0, 3)
        with pytest.raises(ValueError):
            band_plan(8, 3)


class TestQVectors:
    def test_operational_closed_form(self):
        for n in (1, 2, 3, 4):
            for k in range(1, 2**n):
                q = band_plan(k, n)[1]
                expected = [(1 if i >= k else 0) + (1 if i + k < 2**n else 0) for i in range(2**n)]
                assert np.array_equal(q, expected)


class TestAntidiagPlan:
    def test_n1_z_and_x_bases(self):
        g = np.array([0.7, -0.3, 1.1])
        bases = antidiag_plan(g, 2, 1)
        assert len(bases) == 2
        z_basis, x_basis = bases
        assert len(z_basis.circuit.gates) == 0
        assert np.array_equal(z_basis.weights, [0.7, 1.1])
        assert [g.kind for g in x_basis.circuit.gates] == ["h"]
        assert np.array_equal(x_basis.weights, [-0.3, 0.3])

    def test_r1_streamlined_single_z_outcome(self):
        g = np.arange(1.0, 16.0)
        bases = antidiag_plan(g, 1, 3, streamlined=True)
        assert len(bases) == 1
        assert np.array_equal(bases[0].weights, np.eye(8)[0])
        dense = dense_from_bases(bases, 3)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.allclose(dense, expected)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("streamlined", [False, True])
    def test_reconstruction_identity(self, n, streamlined):
        rng = np.random.default_rng(10 * n + streamlined)
        g = rng.standard_normal(2 ** (n + 1) - 1)
        for r in range(1, 2**n + 1):
            bases = antidiag_plan(g, r, n, streamlined)
            dense = dense_from_bases(bases, n)
            kept = retained_antidiagonals(n, r, streamlined)
            target = sum(
                g[k] * antidiag_operator(k, n) for k in range(2 ** (n + 1) - 1) if kept[k]
            )
            assert np.max(np.abs(dense - target)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_basis_count_bounds(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal(2 ** (n + 1) - 1)
        for r in range(1, 2**n + 1):
            p = max(0, math.ceil(math.log2(r)))
            bases = antidiag_plan(g, r, n)
            assert len(bases) == r <= 2**p
            if r <= 2 ** max(p - 1, 0) + 1:
                streamlined = antidiag_plan(g, r, n, streamlined=True)
                assert len(streamlined) <= 2 ** max(p - 1, 0) + 1

    def test_product_measurement_structure(self):
        g = np.ones(15)
        for basis in antidiag_plan(g, 4, 3):
            assert all(gate.kind == "h" for gate in basis.circuit.gates)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            antidiag_plan(np.zeros(15), 0, 3)
        with pytest.raises(ValueError):
            antidiag_plan(np.zeros(15), 9, 3)


class TestFullPlan:
    def test_diagonal_only(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(1, 1))
        dense = plan_to_matrix(plan)
        assert np.allclose(dense, truncate(morse16_radial, 1, 1), atol=1e-12)

    def test_diagonal_only_single_z_basis(self):
        # g == 0 and s=1: nothing but the plain-Z diagonal weighted by H_ii
        h = assemble(build_grid("infinite", {"x_min": 0.0, "dx": 0.4}, 3, 1.0))
        plan = full_plan(h, TruncationSpec(1, 1))
        assert plan.num_bases == 1
        assert plan.bases[0].circuit.gates == ()
        assert np.allclose(plan.bases[0].weights, np.diag(h.full))

    def test_infinite_lattice_band_only(self):
        h = assemble(build_grid("infinite", {"x_min": 0.0, "dx": 1.0}, 3, 0.5))
        plan = full_plan(h, TruncationSpec(2, 1))
        # the diagonal plus one basis per k=1 mask 001, 011, 111; no anti-diagonals
        assert plan.num_bases == 4
        for basis in plan.bases[1:]:
            assert set(basis.weights[basis.weights != 0.0]) == {2.0 * h.profile.f[1]}
        assert np.max(np.abs(plan_to_matrix(plan) - truncate(h, 2, 1))) < 1e-12

    @pytest.mark.parametrize("variant,params", [
        ("infinite", {"x_min": 0.0, "dx": 0.4}),
        ("half-infinite", {"dx": 0.4}),
        ("finite", {"a": 0.3, "b": 2.9}),
    ])
    def test_r_above_grid_rejected(self, variant, params):
        """r > 2^n is an error on every variant, the infinite one with g = 0 too."""
        h = assemble(build_grid(variant, params, 3, MASS), MORSE)
        spec = TruncationSpec(2, 9)
        for call in (lambda: truncate(h, 2, 9), lambda: full_plan(h, spec), lambda: basis_count_bound(h, spec)):
            with pytest.raises(ValueError, match=r"r in \[0, 8\], got s=2, r=9"):
                call()

    @pytest.mark.parametrize("s", [1, 2, 4, 16])
    @pytest.mark.parametrize("r", [1, 2, 3, 16])
    @pytest.mark.parametrize("streamlined", [False, True])
    def test_reconstruction_morse16(self, morse16_radial, s, r, streamlined):
        spec = TruncationSpec(s, r, streamlined)
        plan = full_plan(morse16_radial, spec)
        target = truncate(morse16_radial, s, r, streamlined)
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(plan_to_matrix(plan) - target)) < 1e-12 * scale

    @pytest.mark.parametrize("s,r", [(2, 1), (5, 3), (32, 32)])
    def test_reconstruction_morse32(self, morse32, s, r):
        spec = TruncationSpec(s, r)
        plan = full_plan(morse32, spec)
        target = truncate(morse32, s, r)
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(plan_to_matrix(plan) - target)) < 1e-12 * scale

    def test_diagonal_compensation(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        profile = morse16_radial.profile
        d_full = profile.d + morse16_radial.potential_diag
        diagonal = plan.bases[0]
        assert diagonal.circuit.gates == ()
        # The -g(2i) compensation of the kept even anti-diagonal cancels
        # against the anti-diagonal mask-0 (plain Z) weights merged here.
        for i in range(16):
            expected = d_full[i]
            for k in (1, 2, 3):
                expected -= profile.f[k] * band_plan(k, 4)[1][i]
            assert diagonal.weights[i] == pytest.approx(expected, rel=1e-12)


class TestTruncationSpecType:
    def test_epsilon_derivation(self):
        spec = TruncationSpec.from_epsilon(0.1, 6)
        assert spec.s == 10 and spec.r == 10
        assert spec.p == 4
        assert spec.default_shots() == math.ceil(1 / math.sqrt(0.1))

    def test_epsilon_capped_at_register(self):
        spec = TruncationSpec.from_epsilon(1e-6, 3)
        assert spec.s == 8 and spec.r == 8 and spec.p <= 3

    def test_invalid(self):
        with pytest.raises(ValueError):
            TruncationSpec(0, 1)
        with pytest.raises(ValueError):
            TruncationSpec.from_epsilon(-0.5, 4)

    def test_s_and_r_are_integers(self, morse16_radial):
        """s and r pass operator.index: numpy integers are kept as ints, and a
        float, NaN or bool is refused by TruncationSpec and by truncate."""
        spec = TruncationSpec(np.int64(16), np.int32(8))
        assert spec == TruncationSpec(16, 8) and type(spec.s) is int and type(spec.r) is int
        assert np.array_equal(truncate(morse16_radial, np.int64(3), np.uint8(2)), truncate(morse16_radial, 3, 2))
        for s, r in ((float("nan"), 8), (16, 8.0), (True, 8), (16, False)):
            with pytest.raises(TypeError, match="must be an integer"):
                TruncationSpec(s, r)
            with pytest.raises(TypeError, match="must be an integer"):
                truncate(morse16_radial, s, r)


class TestEvaluateExact:
    def test_basis_state_reads_diagonal(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        e0 = np.zeros(16)
        e0[0] = 1.0
        target = truncate(morse16_radial, 4, 2)
        assert evaluate_exact(plan, e0) == pytest.approx(target[0, 0], rel=1e-12)

    def test_matches_dense_quadratic_form(self, morse32):
        rng = np.random.default_rng(17)
        for s, r in ((2, 1), (4, 2), (8, 5)):
            plan = full_plan(morse32, TruncationSpec(s, r))
            target = truncate(morse32, s, r)
            for _ in range(100 // 3):
                psi = random_state(rng, 32)
                tau = evaluate_exact(plan, psi)
                assert tau == pytest.approx(np.vdot(psi, target @ psi).real, abs=1e-10)

    def test_full_retention_equals_energy(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(16, 16))
        rng = np.random.default_rng(3)
        psi = random_state(rng, 16)
        energy = np.vdot(psi, morse16_radial.full @ psi).real
        assert evaluate_exact(plan, psi) == pytest.approx(energy, abs=1e-12)

    def test_tau_within_truncation_bound(self, morse16_radial):
        rng = np.random.default_rng(23)
        for s, r in ((2, 1), (4, 2), (8, 4)):
            plan = full_plan(morse16_radial, TruncationSpec(s, r))
            bound = truncation_error_bound(morse16_radial.profile, s, r)
            for _ in range(100):
                psi = random_state(rng, 16)
                energy = np.vdot(psi, morse16_radial.full @ psi).real
                assert abs(evaluate_exact(plan, psi) - energy) <= bound + 1e-12

    def test_dimension_mismatch(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(2, 1))
        with pytest.raises(ValueError):
            evaluate_exact(plan, np.zeros(8))

    def test_real_state_stays_real(self, morse32):
        plan = full_plan(morse32, TruncationSpec(8, 5))
        psi = random_state(np.random.default_rng(19), 32, complex_valued=False)
        operator, weights, _ = plan.compiled
        assert operator.dtype == np.dtype(float) and weights.dtype == np.dtype(float)
        assert (operator @ psi).dtype == np.dtype(float)
        tau_real = evaluate_exact(plan, psi)
        tau_complex = evaluate_exact(plan, psi.astype(complex))
        assert abs(tau_real - tau_complex) <= 1e-15
        sampled_real = evaluate_sampled(plan, psi, 100, seed=4)
        sampled_complex = evaluate_sampled(plan, psi.astype(complex), 100, seed=4)
        assert abs(sampled_real.estimate - sampled_complex.estimate) <= 1e-15

    def test_matches_per_basis_loop_on_readme_plan(self):
        h = assemble(build_grid("finite", {"a": 2.55, "b": 4.55}, 7, DIATOMIC_MASS), DIATOMIC_MORSE)
        plan = full_plan(h, TruncationSpec(16, 8))
        rng = np.random.default_rng(29)
        for complex_valued in (False, True):
            psi = random_state(rng, 128, complex_valued=complex_valued)
            assert abs(evaluate_exact(plan, psi) - tau_by_bases(plan, psi)) <= 1e-12 * np.max(np.abs(h.full))

    def test_circuit_with_slots_rejected(self):
        plan = MeasurementPlan(1, (MeasBasis(Circuit(1, (ry(0, 0),), 1), np.ones(2)),))
        with pytest.raises(ValueError, match="no ry gates"):
            evaluate_exact(plan, np.array([1.0, 0.0]))


class TestEvaluateSampled:
    def test_zero_variance_diagonal_case(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(1, 1))
        e3 = np.zeros(16)
        e3[3] = 1.0
        result = evaluate_sampled(plan, e3, 100, seed=8)
        assert result.std_error == 0.0
        assert result.estimate == pytest.approx(evaluate_exact(plan, e3), rel=1e-12)

    def test_estimate_within_5_sigma(self, morse16_radial):
        rng = np.random.default_rng(31)
        psi = random_state(rng, 16, complex_valued=False)
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        exact = evaluate_exact(plan, psi)
        result = evaluate_sampled(plan, psi, 10_000, seed=5)
        assert abs(result.estimate - exact) < 5 * result.std_error

    def test_doubling_shots_shrinks_error(self, morse16_radial):
        rng = np.random.default_rng(37)
        psi = random_state(rng, 16)
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        ratios = []
        for seed in range(20):
            base = evaluate_sampled(plan, psi, 2000, seed=seed).std_error
            doubled = evaluate_sampled(plan, psi, 4000, seed=seed).std_error
            ratios.append(base / doubled)
        assert np.mean(ratios) == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_unbiased_over_seeds(self, morse16_radial):
        rng = np.random.default_rng(41)
        psi = random_state(rng, 16)
        plan = full_plan(morse16_radial, TruncationSpec(3, 2))
        exact = evaluate_exact(plan, psi)
        estimates = [evaluate_sampled(plan, psi, 500, seed=s).estimate for s in range(200)]
        typical_sigma = evaluate_sampled(plan, psi, 500, seed=999).std_error
        assert abs(np.mean(estimates) - exact) < 3 * typical_sigma / np.sqrt(200)

    @pytest.mark.parametrize("shots", [1, 7, 1000])
    def test_matches_per_basis_statistics(self, morse16_radial, shots):
        """Basis by basis: the distinct nonzero weights in ascending order, each
        with the summed probability of its outcomes, from the left of a row of
        max(16, 2^ceil(log2(c + 1))) slots for c weights, the lumped remainder
        last, all over ||psi||^2. The rows of one width make one multinomial
        draw, in plan order, the widths in ascending order; then the mean and
        Bessel-corrected standard error of each basis, the remainder weighing 0."""
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        psi = 1.7 * random_state(np.random.default_rng(47), 16)
        norm = np.vdot(psi, psi).real
        tables = {}
        for b, basis in enumerate(plan.bases):
            probs = np.abs(apply_circuit(basis.circuit, psi)) ** 2
            values = np.unique(basis.weights[basis.weights != 0.0])
            width = max(16, 2 ** math.ceil(math.log2(values.size + 1)))
            p_row, w_row = np.zeros(width), np.zeros(width)
            p_row[:values.size] = [probs[basis.weights == value].sum() for value in values]
            p_row[-1] = max(norm - p_row.sum(), 0.0)
            w_row[:values.size] = values
            tables.setdefault(width, []).append((b, p_row, w_row))
        assert sorted(tables) == [16, 32]  # the diagonal's 16 distinct weights need 17 slots
        rng = np.random.default_rng(11)
        result = evaluate_sampled(plan, psi, shots, seed=11)
        assert result.basis_estimates.shape == result.basis_std_errors.shape == (plan.num_bases,)
        for width in sorted(tables):
            rows = tables[width]
            counts = rng.multinomial(shots, np.array([p_row for _, p_row, _ in rows]) / norm)
            for (b, _, w), c in zip(rows, counts):
                mean = np.dot(c, w) / shots
                var = max(np.dot(c, w**2) / shots - mean**2, 0.0)
                if shots > 1:
                    var *= shots / (shots - 1)
                assert result.basis_estimates[b] == pytest.approx(mean, rel=1e-12, abs=1e-15)
                assert result.basis_std_errors[b] == pytest.approx(np.sqrt(var / shots), rel=1e-12, abs=1e-15)
        assert result.estimate == pytest.approx(np.sum(result.basis_estimates), rel=1e-12)
        assert result.std_error == pytest.approx(np.sqrt(np.sum(result.basis_std_errors**2)), rel=1e-12)

    def test_moments_match_per_outcome_estimator(self):
        """Drawing one count per distinct weight leaves the distribution of the
        estimate that of sum_b sum_o w_o n_o / shots with a count per outcome:
        over 2,000 seeds, the mean and variance of the estimate lie within 5
        standard errors of that estimator's exact tau and variance
        sum_b (sum_o p_o w_o^2 - (sum_o p_o w_o)^2) / shots."""
        h = assemble(build_grid("finite", {"a": 2.55, "b": 4.55}, 4, DIATOMIC_MASS), DIATOMIC_MORSE)
        plan = full_plan(h, TruncationSpec(16, 8))
        psi = random_state(np.random.default_rng(67), 16)
        shots, draws = 20, 2000
        variance = 0.0
        for basis in plan.bases:
            probs = np.abs(apply_circuit(basis.circuit, psi)) ** 2
            variance += (np.dot(probs, basis.weights**2) - np.dot(probs, basis.weights) ** 2) / shots
        estimates = np.array([evaluate_sampled(plan, psi, shots, seed=seed).estimate for seed in range(draws)])
        deviations = estimates - estimates.mean()
        sample_variance = np.mean(deviations**2) * draws / (draws - 1)
        # The standard error of the sample variance, from the sample's fourth moment.
        variance_error = np.sqrt((np.mean(deviations**4) - np.mean(deviations**2) ** 2) / draws)
        assert abs(estimates.mean() - evaluate_exact(plan, psi)) <= 5 * np.sqrt(variance / draws)
        assert abs(sample_variance - variance) <= 5 * variance_error

    def test_plan_keeps_only_compiled_and_left_intact(self, morse16_radial):
        """evaluate_sampled keeps nothing on the plan but ``compiled``, leaves
        its weights as they were, and gives the same result on a second call."""
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        psi = random_state(np.random.default_rng(48), 16)
        first = evaluate_sampled(plan, psi, 300, seed=12)
        weights = plan.compiled[1].copy()
        again = evaluate_sampled(plan, psi, 300, seed=12)
        assert set(vars(plan)) - {field.name for field in dataclasses.fields(plan)} == {"compiled"}
        assert np.array_equal(plan.compiled[1], weights)
        assert (again.estimate, again.std_error) == (first.estimate, first.std_error)
        assert np.array_equal(again.basis_estimates, first.basis_estimates)
        assert np.array_equal(again.basis_std_errors, first.basis_std_errors)

    def test_zero_norm_state_rejected(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        with pytest.raises(ValueError, match="cannot sample a zero-norm state"):
            evaluate_sampled(plan, np.zeros(16), 100, seed=1)

    @pytest.mark.parametrize("state, message", [
        (np.full(8, np.nan), "state has an amplitude that is not finite"),
        (np.array([1.0, 0, 0, np.inf, 0, 0, 0, 0], dtype=complex), "state has an amplitude that is not finite"),
        (np.full(8, 1e200), "state's squared norm overflows float64"),
    ], ids=["nan", "inf", "overflow"])
    def test_non_finite_state_rejected(self, state, message):
        """Both evaluations reject the state before any arithmetic warns (a
        RuntimeWarning is an error in this suite)."""
        plan = parse_plan("basis 0\nqubits 3 slots 0\nw 0 1.0\nbasis 1\nqubits 3 slots 0\nh 0\nw 1 3.0\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_exact(plan, state)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_sampled(plan, state, 100, seed=1)

    @pytest.mark.parametrize("shots", [2.5, True, "5"])
    def test_shots_that_are_not_integers_rejected(self, morse16_radial, shots):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        with pytest.raises(TypeError, match="shots_per_basis must be an integer"):
            evaluate_sampled(plan, random_state(np.random.default_rng(71), 16), shots, seed=1)

    def test_numpy_integer_shots(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        psi = random_state(np.random.default_rng(71), 16)
        numpy_shots, python_shots = evaluate_sampled(plan, psi, np.int64(5), 3), evaluate_sampled(plan, psi, 5, 3)
        assert (numpy_shots.estimate, numpy_shots.std_error) == (python_shots.estimate, python_shots.std_error)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scaled_state_samples_its_direction(self, morse16_radial, scale):
        """Probabilities are divided by ||psi||^2, so the draw sees the unit state."""
        plan = full_plan(morse16_radial, TruncationSpec(8, 4))
        psi = random_state(np.random.default_rng(59), 16)
        scaled = evaluate_sampled(plan, scale * psi, 1000, seed=3)
        unit = evaluate_sampled(plan, psi, 1000, seed=3)
        assert scaled.estimate == pytest.approx(unit.estimate, rel=1e-9, abs=1e-15)
        assert scaled.std_error == pytest.approx(unit.std_error, rel=1e-9, abs=1e-15)

    def test_basis_without_weights_reads_zero(self):
        """A block with no weight lines puts every shot in the remainder."""
        plan = parse_plan("basis 0\nqubits 2 slots 0\nbasis 1\nqubits 2 slots 0\nh 0\nw 1 3.0\n")
        psi = random_state(np.random.default_rng(61), 4)
        result = evaluate_sampled(plan, psi, 500, seed=2)
        assert (result.basis_estimates[0], result.basis_std_errors[0]) == (0.0, 0.0)
        assert result.basis_estimates[1] != 0.0
        empty = parse_plan("basis 0\nqubits 2 slots 0\n")
        assert evaluate_exact(empty, psi) == 0.0
        result = evaluate_sampled(empty, psi, 500, seed=2)
        assert (result.estimate, result.std_error) == (0.0, 0.0)

    def test_dimension_mismatch(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        with pytest.raises(ValueError, match="does not match 4 qubits"):
            evaluate_sampled(plan, np.ones(8), 100, seed=1)

    def test_deterministic_per_seed(self, morse16_radial):
        rng = np.random.default_rng(43)
        psi = random_state(rng, 16)
        plan = full_plan(morse16_radial, TruncationSpec(4, 2))
        a = evaluate_sampled(plan, psi, 1000, seed=77)
        b = evaluate_sampled(plan, psi, 1000, seed=77)
        assert a.estimate == b.estimate and a.std_error == b.std_error


class TestPlanComplexity:
    def test_diagonal_only_plan(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(1, 1))
        comp = plan_complexity(plan)
        # the r=1 anti-diagonal corner basis is the plain-Z one: it merges
        # into the diagonal
        assert comp.num_bases == 1
        assert comp.bound_num_bases == 2

    def test_counts_within_bounds(self, morse16_radial, morse32):
        for h, specs in ((morse16_radial, [(2, 1), (4, 2), (6, 3)]),
                         (morse32, [(4, 2), (6, 5)])):
            for s, r in specs:
                comp = plan_complexity(full_plan(h, TruncationSpec(s, r)))
                assert comp.num_bases <= comp.bound_num_bases

    def test_n6_within_bound(self):
        h = assemble(build_grid("half-infinite", {"dx": 0.1}, 6, 2000.0))
        comp = plan_complexity(full_plan(h, TruncationSpec(4, 2)))
        assert comp.num_bases <= comp.bound_num_bases

    def test_depth_bound(self, morse32):
        spec = TruncationSpec(4, 2)
        comp = plan_complexity(full_plan(morse32, spec))
        # analysis circuits: at most ceil(log2(2s)) entangling layer depth
        # plus n single-qubit corrections
        assert comp.max_circuit_depth <= math.ceil(math.log2(2 * spec.s)) + 5

    def test_requires_spec(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(2, 1))
        stripped = MeasurementPlan(plan.n_qubits, plan.bases)
        with pytest.raises(ValueError):
            plan_complexity(stripped)


class TestPlanText:
    def test_roundtrip_bit_exact(self, morse16_radial):
        plan = full_plan(morse16_radial, TruncationSpec(4, 3))
        text = format_plan(plan)
        imported = parse_plan(text)
        rng = np.random.default_rng(53)
        psi = random_state(rng, 16)
        assert evaluate_exact(imported, psi) == evaluate_exact(plan, psi)
        assert np.array_equal(plan_to_matrix(imported), plan_to_matrix(plan))
        assert format_plan(imported) == text

    def test_format_structure(self, morse16_radial):
        text = format_plan(full_plan(morse16_radial, TruncationSpec(2, 1)))
        lines = text.splitlines()
        assert lines[:2] == ["basis 0", "qubits 4 slots 0"]
        assert sum(1 for ln in lines[2:18] if ln.startswith("w ")) == 16
        assert "basis 1" in lines
        assert not any("coeff" in ln or ln == "diag" for ln in lines)

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_plan("w 0 1.0\n")

    @pytest.mark.parametrize("text, message", [
        ("", "no basis blocks"),
        ("\n\n", "no basis blocks"),
        ("basis 0\nqubits 1 slots 0\nw -1 5.0\n", "outcome -1 outside [0, 2)"),
        ("basis 0\nqubits 1 slots 0\nw 2 5.0\n", "outcome 2 outside [0, 2)"),
        ("basis 0\nqubits 1 slots 0\nw 0 1.0\nbasis 1\nqubits 2 slots 0\nh 0\nw 0 1.0\n",
         "basis 1 has 2 qubits, basis 0 has 1"),
        ("basis 0\nqubits 1 slots 0\nw 0 1.0\nw 0 2.0\n", "basis 0 repeats outcome 0"),
        ("basis 1\nqubits 1 slots 0\nw 0 1.0\n", "expected 'basis 0'"),
        ("basis 0\nqubits 1 slots 1\nry 0 0\nw 0 1.0\n", "parameter slots"),
        ("basis 0\nqubits 1 slots 0\nw 0 1.0\nh 0\n", "after the weights"),
        ("basis 0\nqubits 1 slots 0\nw 0\n", "bad weight line"),
        ("basis 0\nqubits 1 slots 0\nw 1 2.0\nw 0\nbasis 2\nqubits 1 slots 0\n", "bad weight line 'w 0'"),
        ("basis 0\nqubits 1 slots 0\nw 0 1.0\nw 1 nan\nw 0 inf\n", "basis 0 outcome 1 weight 'nan' is not finite"),
    ], ids=["empty", "blank", "negative-outcome", "outcome-too-large", "qubit-mismatch",
            "repeated-outcome", "index-out-of-sequence", "slots", "gate-after-weights", "short-weight",
            "weight-line-before-later-header", "first-bad-weight-line"])
    def test_parse_rejects_bad_input(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_plan(text)

    def test_parse_keeps_blocks_unmerged(self):
        text = "basis 0\nqubits 1 slots 0\nw 0 1.0\nbasis 1\nqubits 1 slots 0\nw 1 2.0\n"
        plan = parse_plan(text)
        assert plan.num_bases == 2 and plan.bound_num_bases is None
        assert [b.weights.tolist() for b in plan.bases] == [[1.0, 0.0], [0.0, 2.0]]
        assert evaluate_exact(plan, np.array([0.6, 0.8])) == pytest.approx(0.36 + 2.0 * 0.64)


GRID_PARAMS = {
    "infinite": lambda n: {"x_min": 1.0, "dx": 3.5 / 2**n},
    "half-infinite": lambda n: {"dx": 4.5 / 2**n},
    "finite": lambda n: {"a": 1.0, "b": 4.5},
}


@st.composite
def truncated_systems(draw, max_qubits=5):
    """A Morse Hamiltonian on a random grid variant and n <= max_qubits, with random (s, r, streamlined)."""
    variant = draw(st.sampled_from(sorted(GRID_PARAMS)))
    n = draw(st.integers(1, max_qubits))
    spec = TruncationSpec(draw(st.integers(1, 2**n)), draw(st.integers(1, 2**n)), draw(st.booleans()))
    return assemble(build_grid(variant, GRID_PARAMS[variant](n), n, MASS), MORSE), spec


class TestPlanProperties:
    @settings(max_examples=40, deadline=None)
    @given(truncated_systems(), st.integers(0, 2**32 - 1))
    def test_text_roundtrip(self, system, seed):
        h, spec = system
        plan = full_plan(h, spec)
        text = format_plan(plan)
        imported = parse_plan(text)
        assert format_plan(imported) == text
        psi = random_state(np.random.default_rng(seed), h.n_points)
        assert evaluate_exact(imported, psi) == evaluate_exact(plan, psi)

    @settings(max_examples=40, deadline=None)
    @given(truncated_systems())
    def test_matrix_matches_truncation_and_oracle(self, system):
        h, spec = system
        plan = full_plan(h, spec)
        assert plan.bound_num_bases == basis_count_bound(h, spec)
        assert len({basis.circuit for basis in plan.bases}) == plan.num_bases <= plan.bound_num_bases
        matrix = plan_to_matrix(plan)
        scale = np.max(np.abs(h.full))
        assert np.max(np.abs(matrix - truncate(h, spec.s, spec.r, spec.streamlined))) <= 1e-12 * scale
        assert np.max(np.abs(matrix - dense_from_bases(plan.bases, h.n_qubits))) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(truncated_systems(max_qubits=6), st.integers(0, 2**32 - 1))
    def test_compiled_operator_matches_circuits(self, system, seed):
        """A row is stored exactly for each outcome with a nonzero weight, in
        basis and outcome order, and equals that row of the analysis circuit
        bit for bit. The draw layout gives each basis its distinct nonzero
        weights as categories, from the left of one row of a table, and puts
        each row in its weight's category; tables tile the flat slots by
        ascending power-of-two width."""
        h, spec = system
        plan = full_plan(h, spec)
        operator, weights, layout = plan.compiled
        n_pts = h.n_points
        outcomes = [np.flatnonzero(basis.weights) for basis in plan.bases]
        n_rows = sum(o.size for o in outcomes)
        assert operator.shape == (n_rows, n_pts) and weights.shape == (n_rows,)
        assert layout.slots.shape == (n_rows,)

        starts, stops, widths = np.array(layout.tables).T
        assert len(layout.tables) <= h.n_qubits + 2
        assert starts[0] == 0 and np.array_equal(starts[1:], stops[:-1]) and stops[-1] == layout.size
        assert np.all(widths >= 16) and np.all(np.diff(widths) > 0) and np.all(widths & (widths - 1) == 0)
        assert np.all((stops - starts) % widths == 0) and np.sum((stops - starts) // widths) == plan.num_bases
        category_at = np.full(layout.size, -1)
        category_at[layout.category_slots] = np.arange(layout.category_slots.size)

        identity = np.eye(n_pts)
        psi = random_state(np.random.default_rng(seed), n_pts)
        norm = np.vdot(psi, psi).real
        category_probs = np.bincount(layout.slots, np.abs(operator @ psi) ** 2, layout.size)
        origins = {}
        start = 0
        for b, (basis, o) in enumerate(zip(plan.bases, outcomes)):
            stored = np.arange(start, start + o.size)
            assert np.array_equal(operator[stored].toarray(), apply_circuit(basis.circuit, identity)[o])
            assert np.array_equal(weights[stored], basis.weights[o])
            start += o.size

            mine = layout.category_bases == b
            values = layout.category_weights[mine]
            assert np.array_equal(values, np.unique(basis.weights[o]))
            slots = layout.category_slots[mine]
            if slots.size:
                table = np.searchsorted(stops, slots[0], side="right")
                assert np.array_equal(slots, slots[0] + np.arange(slots.size))
                assert (slots[0] - starts[table]) % widths[table] == 0
                assert widths[table] <= max(16, 2 * (slots.size + 1))
                origins[b] = slots[0]
            categories = category_at[layout.slots[stored]]
            assert np.all(categories >= 0) and np.all(layout.category_bases[categories] == b)
            assert np.array_equal(layout.category_weights[categories], basis.weights[o])
            probs = np.abs(apply_circuit(basis.circuit, psi)) ** 2
            for value, slot in zip(values, slots):
                assert abs(category_probs[slot] - probs[basis.weights == value].sum()) <= 1e-15 * norm
        # Within a table, bases keep plan order.
        tables_of = {b: np.searchsorted(stops, origin, side="right") for b, origin in origins.items()}
        for a, b in zip(sorted(origins), sorted(origins)[1:]):
            if tables_of[a] == tables_of[b]:
                assert origins[a] < origins[b]

        scale = np.max(np.abs(h.full))
        for complex_valued in (False, True):
            psi = random_state(np.random.default_rng(seed), n_pts, complex_valued=complex_valued)
            assert abs(evaluate_exact(plan, psi) - tau_by_bases(plan, psi)) <= 1e-12 * scale
        assert np.max(np.abs(plan_to_matrix(plan) - truncate(h, spec.s, spec.r, spec.streamlined))) <= 1e-12 * scale

    @settings(max_examples=15, deadline=None)
    @given(truncated_systems(max_qubits=4), st.integers(0, 2**32 - 1), st.booleans())
    # Outcome probabilities 7.0e-7 and 1 - 7.0e-7: the rare outcome is seldom
    # drawn, so the plug-in standard error of the 200 estimates is about 0.
    @example(
        system=(assemble(build_grid("finite", GRID_PARAMS["finite"](1), 1, MASS), MORSE), TruncationSpec(1, 1, False)),
        seed=95465410,
        complex_valued=False,
    )
    def test_sampled_mean_within_5_standard_errors(self, system, seed, complex_valued):
        """Over 200 seeds the mean sampled tau lies within 5 exact standard
        errors of the exact tau, the variance of basis b being
        sum_o p_o w_o^2 - (sum_o p_o w_o)^2 over the probabilities of the state."""
        h, spec = system
        plan = full_plan(h, spec)
        psi = random_state(np.random.default_rng(seed), h.n_points, complex_valued=complex_valued)
        exact = evaluate_exact(plan, psi)
        shots, draws = 50, 200
        samples = [evaluate_sampled(plan, psi, shots, seed=[seed, k]) for k in range(draws)]
        mean = np.mean([sample.estimate for sample in samples])
        variance = 0.0
        for basis in plan.bases:
            probs = np.abs(apply_circuit(basis.circuit, psi)) ** 2 / np.vdot(psi, psi).real
            variance += np.dot(probs, basis.weights**2) - np.dot(probs, basis.weights) ** 2
        std_error = np.sqrt(max(variance, 0.0) / (shots * draws))
        assert abs(mean - exact) <= 5 * std_error + 1e-12 * np.max(np.abs(h.full))
