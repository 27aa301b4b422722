import numpy as np
import pytest
import scipy.optimize

from dvrvqe import classical_spectrum, simulator
from dvrvqe.ansatz import AnsatzSpec, empty_ansatz, linear_ansatz
from dvrvqe.circuits import Circuit, parse_circuit, ry
from dvrvqe.constants import HARTREE_TO_INV_CM
from dvrvqe.simulator import _rotations, run
from dvrvqe.vqe import (
    BETA_MARGIN,
    ObjectiveConfig,
    OptimizerConfig,
    _values,
    energy_of,
    excited_states,
    gershgorin_upper,
    gradient,
    minimize,
    objective,
)

Z1 = np.diag([1.0, -1.0])
RY1 = Circuit(1, (ry(0, 0),), 1)


def random_symmetric(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a + a.T


class TestAnsatz:
    def test_parameter_count(self):
        spec = linear_ansatz(4, 3)
        assert spec.n_params == 16
        assert spec.circuit().n_slots == 16
        assert spec.n_entanglers == 9

    def test_layer_structure(self):
        circuit = linear_ansatz(2, 1).circuit()
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["ry", "ry", "cnot", "ry", "ry"]

    def test_entangler_validation(self):
        with pytest.raises(ValueError):
            AnsatzSpec(2, 1, (((0, 0),),))
        with pytest.raises(ValueError):
            AnsatzSpec(2, 2, (((0, 1),),))

    def test_with_entangler_appends(self):
        spec = empty_ansatz(3, 2).with_entangler(1, 0, 2)
        assert spec.entanglers == ((), ((0, 2),))


class TestObjective:
    def test_plain_energy_without_deflation(self):
        config = ObjectiveConfig(Z1)
        assert objective([np.pi], RY1, config) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_reference_adds_nothing(self):
        ref = np.array([0.0, 1.0])  # RY(0)|0> = |0> is orthogonal
        config = ObjectiveConfig(Z1, ((ref, 10.0),))
        assert objective([0.0], RY1, config) == pytest.approx(1.0)

    def test_identical_reference_adds_beta(self):
        ref = np.array([1.0, 0.0])
        config = ObjectiveConfig(Z1, ((ref, 10.0),))
        assert objective([0.0], RY1, config) == pytest.approx(11.0)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(Z1, ((np.array([1.0, 0.0]), 0.0),))


class TestGradient:
    def test_closed_form_single_qubit(self):
        config = ObjectiveConfig(Z1)
        grad = gradient(np.array([0.7]), RY1, config)
        assert grad[0] == pytest.approx(-np.sin(0.7), abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        matrix = random_symmetric(rng, 8)
        ref = np.zeros(8)
        ref[2] = 1.0
        config = ObjectiveConfig(matrix, ((ref, 2.5),))
        circuit = linear_ansatz(3, 2).circuit()
        step = 1e-5
        for _ in range(50):
            params = rng.uniform(-np.pi, np.pi, circuit.n_slots)
            analytic = gradient(params, circuit, config)
            numeric = np.empty_like(analytic)
            for j in range(params.size):
                shifted = params.copy()
                shifted[j] = params[j] + step
                f_plus = objective(shifted, circuit, config)
                shifted[j] = params[j] - step
                f_minus = objective(shifted, circuit, config)
                numeric[j] = (f_plus - f_minus) / (2 * step)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_shared_slot_sums_every_gate(self):
        # RY(t) RY(t) = RY(2t), so <Z> = cos 2t and the derivative is -2 sin 2t.
        circuit = parse_circuit("qubits 1 slots 1\nry 0 0\nry 0 0\n")
        grad = gradient(np.array([0.3]), circuit, ObjectiveConfig(Z1))
        assert grad[0] == pytest.approx(-2 * np.sin(0.6), abs=1e-12)

    def test_small_at_optimum(self):
        config = ObjectiveConfig(Z1)
        result = minimize(RY1, config, OptimizerConfig(max_iter=200, restarts=2, seed=0))
        assert np.max(np.abs(gradient(result.params, RY1, config))) < 1e-7


class TestMinimize:
    @pytest.mark.parametrize("keys", [{"restarts": 0}, {"restarts": -1}, {"max_iter": 0}])
    def test_optimizer_config_needs_one_run_and_iteration(self, keys):
        with pytest.raises(ValueError, match="max_iter and restarts must be >= 1"):
            OptimizerConfig(**keys)

    def test_single_qubit_ground(self):
        result = minimize(RY1, ObjectiveConfig(Z1), OptimizerConfig(max_iter=200, restarts=3, seed=1))
        assert result.energy == pytest.approx(-1.0, abs=1e-8)
        assert abs(result.params[0]) % (2 * np.pi) == pytest.approx(np.pi, abs=1e-4)

    def test_two_qubit_random_reaches_ground(self):
        rng = np.random.default_rng(2)
        matrix = random_symmetric(rng, 4)
        result = minimize(
            linear_ansatz(2, 2),
            ObjectiveConfig(matrix),
            OptimizerConfig(max_iter=1000, restarts=5, seed=3),
        )
        assert result.energy == pytest.approx(classical_spectrum(matrix, 1)[0], abs=1e-6)

    def test_morse16_linear_within_1cm(self, diatomic16):
        reference = classical_spectrum(diatomic16.full, 1)[0]
        result = minimize(
            linear_ansatz(4, 3),
            ObjectiveConfig(diatomic16.full),
            OptimizerConfig(max_iter=2000, restarts=5, seed=11),
        )
        assert (result.energy - reference) * HARTREE_TO_INV_CM < 1.0
        assert result.energy >= reference - 1e-9  # variational bound

    def test_budget_exhaustion_flags_not_raises(self):
        rng = np.random.default_rng(4)
        matrix = random_symmetric(rng, 8)
        result = minimize(
            linear_ansatz(3, 2),
            ObjectiveConfig(matrix),
            OptimizerConfig(max_iter=2, restarts=1, seed=5),
        )
        assert result.converged is False

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        matrix = random_symmetric(rng, 4)
        opt = OptimizerConfig(max_iter=300, restarts=3, seed=9)
        r1 = minimize(linear_ansatz(2, 1), ObjectiveConfig(matrix), opt)
        r2 = minimize(linear_ansatz(2, 1), ObjectiveConfig(matrix), opt)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.params, r2.params)

    def test_trace_non_increasing(self):
        rng = np.random.default_rng(7)
        matrix = random_symmetric(rng, 8)
        result = minimize(
            linear_ansatz(3, 1),
            ObjectiveConfig(matrix),
            OptimizerConfig(max_iter=500, restarts=1, seed=10),
        )
        objectives = [obj for _, obj, _ in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_x0_warm_start(self):
        result = minimize(
            RY1, ObjectiveConfig(Z1),
            OptimizerConfig(max_iter=100, restarts=1, seed=0),
            x0=np.array([3.0]),
        )
        assert result.energy == pytest.approx(-1.0, abs=1e-10)


class TestWorkPerPoint:
    """L-BFGS-B simulates each point once: the trace and the result reuse that state."""

    @staticmethod
    def watch(monkeypatch, probe=False):
        """Keep the slot rotations of every forward pass of a circuit kernel
        (vqe's run calls and the forward passes of its evaluations) and every
        scipy minimize call's x0, iterates and result.

        ``probe`` makes every objective call also evaluate a point off the
        optimizer's path, so no iterate is the last point evaluated.
        """
        runs, calls = [], []
        real_forward, real_minimize = simulator._Kernel.forward, scipy.optimize.minimize

        def counted_forward(kernel, rotations):
            runs.append(rotations)
            return real_forward(kernel, rotations)

        def watched_minimize(fun, x0, *args, callback, **kwargs):
            call = {"x0": np.array(x0), "iterates": []}
            if probe:
                real_fun = fun

                def fun(x, *fun_args):
                    value = real_fun(x, *fun_args)
                    real_fun(x + 0.5, *fun_args)
                    return value

            def watched_callback(xk):
                call["iterates"].append(np.array(xk))
                callback(xk)

            call["result"] = real_minimize(fun, x0, *args, callback=watched_callback, **kwargs)
            calls.append(call)
            return call["result"]

        monkeypatch.setattr(simulator._Kernel, "forward", counted_forward)
        monkeypatch.setattr(scipy.optimize, "minimize", watched_minimize)
        return runs, calls

    @staticmethod
    def problem(deflated):
        rng = np.random.default_rng(17)
        matrix = random_symmetric(rng, 8)
        deflation = ((run(linear_ansatz(3, 2).circuit(), rng.uniform(-1, 1, 9)), 2.5),) if deflated else ()
        return linear_ansatz(3, 2).circuit(), ObjectiveConfig(matrix, deflation)

    @pytest.mark.parametrize("deflated", [False, True])
    def test_lbfgs_runs_at_most_nfev_plus_one(self, monkeypatch, deflated):
        """x0 is simulated once for its trace row and L-BFGS-B's first call."""
        circuit, config = self.problem(deflated)
        runs, calls = self.watch(monkeypatch)
        minimize(circuit, config, OptimizerConfig(max_iter=500, restarts=1, seed=18))
        (call,) = calls
        assert call["result"].nit >= 5
        assert call["result"].nfev <= len(runs) <= call["result"].nfev + 1
        assert sum(np.array_equal(rotations, _rotations(circuit, call["x0"])) for rotations in runs) == 1

    @pytest.mark.parametrize(
        "deflated, probe", [(False, False), (True, False), (False, True)],
        ids=["lbfgs-False-False", "lbfgs-True-False", "lbfgs-False-True"],
    )
    def test_trace_and_result_are_bit_identical_to_fresh_runs(self, monkeypatch, deflated, probe):
        circuit, config = self.problem(deflated)
        _, calls = self.watch(monkeypatch, probe)
        opt = OptimizerConfig(max_iter=300, restarts=2, seed=19)
        result = minimize(circuit, config, opt)
        assert len(calls) == 2
        best = [c for c in calls if np.array_equal(c["result"].x, result.params)][0]
        points = [best["x0"], *best["iterates"]]
        assert len(result.trace) == len(points) > 5
        for k, (x, row) in enumerate(zip(points, result.trace)):
            energy, obj, _ = _values(run(circuit, x), config)
            assert row == (k, obj, energy)
        state = run(circuit, best["result"].x)
        assert result.energy == energy_of(state, config.hamiltonian)
        assert result.overlaps == tuple(abs(np.vdot(ref, state)) ** 2 for ref, _ in config.deflation)


class TestExcitedStates:
    def test_two_level_diagonal(self):
        results = excited_states(
            RY1, np.diag([0.0, 1.0]), 1, OptimizerConfig(max_iter=300, restarts=3, seed=13)
        )
        assert results[0].energy == pytest.approx(0.0, abs=1e-8)
        assert results[1].energy == pytest.approx(1.0, abs=1e-8)

    def test_morse16_low_levels(self, diatomic16):
        reference = classical_spectrum(diatomic16.full, 3)
        results = excited_states(
            linear_ansatz(4, 3),
            diatomic16.full,
            2,
            OptimizerConfig(max_iter=2000, restarts=5, seed=14),
        )
        for v, result in enumerate(results):
            assert abs(result.energy - reference[v]) * HARTREE_TO_INV_CM < 1.0
            assert result.energy >= reference[v] - 1e-9

    def test_deflation_overlaps_small(self, diatomic16):
        results = excited_states(
            linear_ansatz(4, 3),
            diatomic16.full,
            2,
            OptimizerConfig(max_iter=2000, restarts=5, seed=14),
        )
        for result in results[1:]:
            assert max(result.overlaps) < 1e-3

    def test_beta_dominates_gaps(self, diatomic16):
        levels = classical_spectrum(diatomic16.full)
        upper = gershgorin_upper(diatomic16.full)
        gaps = np.diff(levels)
        assert all(BETA_MARGIN * (upper - levels[i]) >= gaps[i] for i in range(len(gaps)))

    def test_negative_v_max(self):
        with pytest.raises(ValueError):
            excited_states(RY1, Z1, -1, OptimizerConfig())


def test_gershgorin_upper_bounds_spectrum():
    rng = np.random.default_rng(15)
    for _ in range(20):
        matrix = random_symmetric(rng, 8)
        assert gershgorin_upper(matrix) >= classical_spectrum(matrix)[-1] - 1e-12
