import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from dvrvqe import assemble, build_grid, classical_spectrum, simulator, vqe
from dvrvqe.ansatz import AnsatzSpec, empty_ansatz, linear_ansatz
from dvrvqe.circuits import Circuit, parse_circuit, ry
from dvrvqe.constants import HARTREE_TO_INV_CM
from dvrvqe.search import SearchConfig, greedy_search
from dvrvqe.simulator import _rotations, adjoint_gradient, apply_circuit, run
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
    minimize_rows,
    objective,
)

from conftest import DIATOMIC_MASS, DIATOMIC_MORSE, random_state

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

    def test_int_seed_is_kept_as_a_tuple(self):
        opt = OptimizerConfig(restarts=2, seed=7)
        assert opt.seed == (7,) and OptimizerConfig(seed=[7, 1]).seed == (7, 1)
        expected = [np.random.default_rng((7, k)).uniform(-vqe.INIT_SCALE, vqe.INIT_SCALE, 3) for k in range(2)]
        assert np.array_equal(opt.starts(3), expected)

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
        [(result, _)] = minimize_rows([RY1], ObjectiveConfig(Z1), 100, [[3.0]])
        assert result.energy == pytest.approx(-1.0, abs=1e-10)
        assert result.trace[0][2] == pytest.approx(np.cos(3.0))


class TestWorkPerPoint:
    """The optimizer simulates each point once: the trace and the result reuse that state."""

    @staticmethod
    def watch(monkeypatch, probe=False):
        """Keep the slot rotations of every row of every forward pass of a
        circuit kernel, and, in call order, every optimizer evaluation as
        (kernel rows, params, objectives, energies) and every line-search
        update as whether it accepted its step.

        ``probe`` makes every evaluation also run a point off the optimizer's
        path on the same kernel, so its buffers never hold an iterate.
        """
        forwarded, events = [], []
        real_forward, real_evaluate, real_update = simulator._Kernel.forward, vqe._evaluate, vqe._LineSearch.update

        def counted_forward(kernel, rows, rotations):
            forwarded.extend(rotations.swapaxes(0, 1))
            return real_forward(kernel, rows, rotations)

        def watched_evaluate(kernel, rows, params, config):
            states, energies, values, grads = real_evaluate(kernel, rows, params, config)
            events.append((rows, np.array(params), values.tolist(), energies.tolist()))
            if probe:
                real_evaluate(kernel, rows, params + 0.5, config)
            return states, energies, values, grads

        def watched_update(search, f, g):
            accepted = real_update(search, f, g)
            events.append(accepted)
            return accepted

        monkeypatch.setattr(simulator._Kernel, "forward", counted_forward)
        monkeypatch.setattr(vqe, "_evaluate", watched_evaluate)
        monkeypatch.setattr(vqe._LineSearch, "update", watched_update)
        return forwarded, events

    @staticmethod
    def evaluations(events) -> dict[int, list[list]]:
        """Every evaluation of each kernel row, in order, as [x, objective,
        energy, accepted]. A row's first evaluation, its x0, is accepted;
        each later one is decided by the line-search update that follows
        its round, one per live row in row order."""
        points, undecided = {}, []
        for event in events:
            if isinstance(event, bool):
                undecided.pop(0)[3] = event
                continue
            assert not undecided, "a round left an evaluation without its update"
            for row, x, obj, energy in zip(*event):
                point = [x, obj, energy, row not in points]
                if row in points:
                    undecided.append(point)
                points.setdefault(row, []).append(point)
        assert not undecided
        return points

    @staticmethod
    def problem(deflated):
        rng = np.random.default_rng(17)
        matrix = random_symmetric(rng, 8)
        deflation = ((run(linear_ansatz(3, 2).circuit(), rng.uniform(-1, 1, 9)), 2.5),) if deflated else ()
        return linear_ansatz(3, 2).circuit(), ObjectiveConfig(matrix, deflation)

    @pytest.mark.parametrize("deflated", [False, True])
    def test_lbfgs_runs_at_most_nfev_plus_one(self, monkeypatch, deflated):
        """x0 is simulated once, for its trace row and the first evaluation."""
        circuit, config = self.problem(deflated)
        forwarded, events = self.watch(monkeypatch)
        opt = OptimizerConfig(max_iter=500, restarts=1, seed=18)
        result = minimize(circuit, config, opt)
        assert len(result.trace) > 5
        evaluated = sum(len(event[0]) for event in events if not isinstance(event, bool))
        assert evaluated <= len(forwarded) <= evaluated + 1
        x0 = opt.starts(circuit.n_slots)
        assert sum(np.array_equal(rotations, _rotations(x0)[:, 0]) for rotations in forwarded) == 1

    @pytest.mark.parametrize(
        "deflated, probe", [(False, False), (True, False), (False, True)],
        ids=["lbfgs-False-False", "lbfgs-True-False", "lbfgs-False-True"],
    )
    def test_trace_and_result_are_bit_identical_to_fresh_runs(self, monkeypatch, deflated, probe):
        """Each restart's trace is its x0 and then every accepted step, in
        order; each trace row and the result are bit-identical to a fresh
        run at that point; minimize returns the restart of the lowest final
        objective."""
        circuit, config = self.problem(deflated)
        opt = OptimizerConfig(max_iter=300, restarts=2, seed=19)
        best = minimize(circuit, config, opt)
        starts = opt.starts(circuit.n_slots)
        _, events = self.watch(monkeypatch, probe)
        # Each restart runs its own circuit object and so its own kernel row,
        # so every evaluation names its restart.
        circuits = [linear_ansatz(3, 2).circuit() for _ in starts]
        rows = minimize_rows(circuits, config, opt.max_iter, starts)
        points = self.evaluations(events)
        assert sorted(points) == list(range(len(starts)))
        for restart, (result, fun) in enumerate(rows):
            accepted = [point for point in points[restart] if point[3]]
            assert np.array_equal(accepted[0][0], starts[restart])
            assert len(accepted) < len(points[restart])  # some trials were rejected
            assert result.trace == tuple((k, obj, energy) for k, (_, obj, energy, _) in enumerate(accepted))
            assert len(result.trace) > 5 and fun == result.trace[-1][1]
            for x, obj, energy, _ in accepted:
                energies, objectives, _ = _values(run(circuit, x)[None], config)
                assert (obj, energy) == (objectives[0], energies[0])
            assert np.array_equal(result.params, accepted[-1][0])
            state = run(circuit, result.params)
            assert np.array_equal(result.state, state)
            assert result.energy == energy_of(state, config.hamiltonian)
            assert result.overlaps == tuple(abs(np.vdot(ref, state)) ** 2 for ref, _ in config.deflation)
        lowest = min(rows, key=lambda row: row[1])[0]
        assert np.array_equal(best.params, lowest.params) and best.trace == lowest.trace


class TestLockstep:
    def test_restart_in_a_batch_equals_the_start_alone(self):
        """Each restart gets the params, energy and trace of its start run
        alone as a one-row batch, and minimize returns the lowest objective."""
        circuit, config = TestWorkPerPoint.problem(True)
        opt = OptimizerConfig(max_iter=300, restarts=4, seed=20)
        starts = opt.starts(circuit.n_slots)
        rows = minimize_rows([circuit] * len(starts), config, opt.max_iter, starts)
        assert len({len(result.trace) for result, _ in rows}) > 1  # rows leave the batch at different rounds
        for (result, fun), start in zip(rows, starts):
            [(alone, _)] = minimize_rows([circuit], config, opt.max_iter, start[None])
            assert np.array_equal(alone.params, result.params)
            assert (alone.energy, alone.trace, alone.converged) == (result.energy, result.trace, result.converged)
            assert fun == result.trace[-1][1]
        best = minimize(circuit, config, opt)
        assert best.trace == min(rows, key=lambda row: row[1])[0].trace

    def test_starts_must_fit_the_rows(self):
        circuit = linear_ansatz(2, 1).circuit()
        with pytest.raises(ValueError, match="do not fit"):
            minimize_rows([circuit] * 2, ObjectiveConfig(np.eye(4)), 10, np.zeros((2, 3)))


class TestSizes:
    """An H or deflation reference that does not fit is rejected with both
    sizes before anything is simulated."""

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("simulated before the size check")

        monkeypatch.setattr(vqe, "run", fail)
        monkeypatch.setattr(simulator._Kernel, "forward", fail)
        monkeypatch.setattr(simulator._Kernel, "backward", fail)

    @pytest.mark.parametrize("entry", ["objective", "gradient", "minimize", "minimize_rows", "excited_states"])
    def test_hamiltonian_must_fit_the_circuit(self, no_simulation, entry):
        circuit = linear_ansatz(3, 1).circuit()
        config, opt, params = ObjectiveConfig(np.eye(4)), OptimizerConfig(max_iter=5, restarts=2), np.zeros(6)
        calls = {
            "objective": lambda: objective(params, circuit, config),
            "gradient": lambda: gradient(params, circuit, config),
            "minimize": lambda: minimize(circuit, config, opt),
            "minimize_rows": lambda: minimize_rows([circuit], config, 5, [params]),
            "excited_states": lambda: excited_states(circuit, np.eye(4), 1, opt),
        }
        with pytest.raises(ValueError, match="a circuit of 8 amplitudes does not match H of size 4"):
            calls[entry]()

    def test_deflation_reference_must_fit(self):
        with pytest.raises(ValueError, match=r"reference of shape \(8,\) does not match H of size 4"):
            ObjectiveConfig(np.eye(4), ((np.ones(4) / 2, 1.0), (np.ones(8) / 8**0.5, 1.0)))


class TestRecovery:
    """What the optimizer does when a line search fails or a direction does
    not descend, and the L-BFGS memory it then clears."""

    @staticmethod
    def watch(monkeypatch):
        """Every forgotten memory row and every new line search, in order."""
        events = []
        real_forget, real_init = vqe._Memory.forget, vqe._LineSearch.__init__

        def forget(memory, r):
            events.append("forget")
            real_forget(memory, r)

        def start_search(search, f0, g0, stp):
            events.append("search")
            real_init(search, f0, g0, stp)

        monkeypatch.setattr(vqe._Memory, "forget", forget)
        monkeypatch.setattr(vqe._LineSearch, "__init__", start_search)
        return events

    def test_failed_search_without_memory_stops(self, monkeypatch):
        """From 0.05 the first step, 1/|d| = 20, overshoots the curvature
        condition, and one evaluation per search leaves no second try."""
        monkeypatch.setattr(vqe, "LINE_SEARCH_EVALUATIONS", 1)
        [(result, _)] = minimize_rows([RY1], ObjectiveConfig(Z1), 100, [[0.05]])
        assert result.converged is False
        assert len(result.trace) == 1 and result.trace[0][1] == pytest.approx(np.cos(0.05))

    def test_failed_search_forgets_and_restarts_along_the_gradient(self, monkeypatch):
        monkeypatch.setattr(vqe, "LINE_SEARCH_EVALUATIONS", 1)
        events = self.watch(monkeypatch)
        h = random_symmetric(np.random.default_rng(1), 8)
        circuit = linear_ansatz(3, 1).circuit()
        start = np.random.default_rng(4).uniform(-1, 1, (1, circuit.n_slots))
        [(result, _)] = minimize_rows([circuit], ObjectiveConfig(h), 200, start)
        forgets = [k for k, event in enumerate(events) if event == "forget"]
        assert len(forgets) == 2
        assert all(events[k + 1] == "search" for k in forgets)  # a new search from the same iterate
        assert events.count("search") > 4 and len(result.trace) > 4
        assert result.converged is False  # the last search fails with its memory gone

    def test_ascent_direction_forgets_and_descends(self, monkeypatch):
        """Directions turned uphill whenever a row has pairs: each is replaced
        by -g and the run still converges, as steepest descent."""
        events = self.watch(monkeypatch)
        real_directions = vqe._Memory.directions

        def uphill(memory, at, grads):
            directions = real_directions(memory, at, grads)
            return np.where(memory.rho[at, :1] != 0.0, -directions, directions)

        monkeypatch.setattr(vqe._Memory, "directions", uphill)
        [(result, _)] = minimize_rows([RY1], ObjectiveConfig(Z1), 200, [[3.0]])
        assert events.count("forget") >= 1
        assert events[events.index("forget") + 1] == "search"
        assert result.converged is True
        assert result.energy == pytest.approx(-1.0, abs=1e-10)

    def test_no_descent_without_memory_stops(self, monkeypatch):
        monkeypatch.setattr(vqe._Memory, "directions", lambda memory, at, grads: np.zeros_like(grads))
        [(result, _)] = minimize_rows([RY1], ObjectiveConfig(Z1), 200, [[3.0]])
        assert result.converged is False
        assert len(result.trace) == 1 and result.trace[0][1] == pytest.approx(np.cos(3.0))

    def test_forget_clears_one_row(self):
        """A forgotten row steps along -g and, given new pairs, acts as a
        fresh memory with those pairs; the other row keeps its pairs."""
        rng = np.random.default_rng(3)

        def add(memory, at, rows):
            s = rng.standard_normal((rows, 3))
            y = s + 0.1 * rng.standard_normal((rows, 3))  # s.y > 0
            memory.add(at, s, y, np.einsum("ij,ij->i", s, y), np.einsum("ij,ij->i", y, y))
            return s, y

        memory = vqe._Memory(2, 3)
        for _ in range(3):
            add(memory, slice(None), 2)
        grads = rng.standard_normal((2, 3))
        before = memory.directions(slice(None), grads)
        assert memory.has_pairs(0) and memory.has_pairs(1)
        memory.forget(0)
        assert not memory.has_pairs(0) and memory.has_pairs(1)
        after = memory.directions(slice(None), grads)
        assert np.array_equal(after[0], -grads[0]) and np.array_equal(after[1], before[1])
        fresh = vqe._Memory(1, 3)
        for _ in range(3):
            s, y = add(memory, np.array([0]), 1)
            fresh.add(slice(None), s, y, np.einsum("ij,ij->i", s, y), np.einsum("ij,ij->i", y, y))
            assert np.array_equal(memory.directions(np.array([0]), grads[:1]), fresh.directions(slice(None), grads[:1]))

    def test_dcstep_nan_step_where_interpolation_breaks_down(self):
        """A trial at the best step itself divides by stp - stx = 0: the step
        is NaN and the interval is left as it was."""
        ends = (1.0, 0.5, -1.0, 0.0, 1.0, -2.0)
        *kept, stp, brackt = vqe._dcstep(*ends, 1.0, 0.7, 0.3, False, 0.0, 5.0)
        assert tuple(kept) == ends and math.isnan(stp) and brackt is False


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


class TestSharedCircuit:
    """A kernel belongs to the call that builds it, and a circuit object
    keeps only its lowered steps, so threads may share one."""

    def test_threads_sharing_one_circuit_match_sequential_calls(self):
        """A scan over four box widths from four threads on one circuit object,
        with the interpreter switching threads every microsecond, gives the
        bits of the same calls made one after another."""
        hamiltonians = [
            assemble(build_grid("finite", {"a": 2.55, "b": b}, 4, DIATOMIC_MASS), DIATOMIC_MORSE).full
            for b in (4.3, 4.55, 4.8, 5.05)
        ]
        circuit = linear_ansatz(4, 2).circuit()
        opt = OptimizerConfig(max_iter=200, restarts=2, seed=3)

        def scan(h):
            results = [minimize(circuit, ObjectiveConfig(h), opt), *excited_states(circuit, h, 1, opt)]
            return [(result.energy, result.params) for result in results]

        sequential = [scan(h) for h in hamiltonians]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(scan, h) for h in hamiltonians]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(sequential, threaded):
            for (energy, params), (energy_t, params_t) in zip(alone, together):
                assert energy == energy_t and np.array_equal(params, params_t)

    def test_threads_share_one_circuit_in_run_and_gradients(self):
        """run, objective, gradient and adjoint_gradient from four threads on
        one circuit object, with the interpreter switching threads every
        microsecond, give the bits of the same calls made one after another."""
        circuit = linear_ansatz(6, 3).circuit()
        rng = np.random.default_rng(26)
        h = random_symmetric(rng, 64)
        config = ObjectiveConfig(h, ((random_state(rng, 64, complex_valued=False), 0.5),))
        blocks = rng.uniform(-np.pi, np.pi, (4, 50, circuit.n_slots))

        def scan(block):
            results = []
            for params in block:
                state = run(circuit, params)
                results += [state, objective(params, circuit, config), gradient(params, circuit, config),
                            adjoint_gradient(circuit, params, state, h @ state)]
            return results

        sequential = [scan(block) for block in blocks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(scan, block) for block in blocks]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for alone, together in zip(sequential, threaded):
            assert all(np.array_equal(a, b) for a, b in zip(alone, together))

    def test_each_circuit_object_is_lowered_once(self, lowered):
        """minimize with 5 restarts lowers its circuit object once, and a
        search step with its commit lowers every circuit object once: rows
        on one object run one kernel row."""
        h = random_symmetric(np.random.default_rng(27), 8)
        circuit = linear_ansatz(3, 2).circuit()
        minimize(circuit, ObjectiveConfig(h), OptimizerConfig(max_iter=50, restarts=5))
        assert [[id(c) for c in batch] for batch in lowered] == [[id(circuit)]]
        lowered.clear()
        result = greedy_search(h, SearchConfig(n_blocks=1, thresholds=(1e-30,), max_entanglers=1, full_budget=50))
        assert len(result.steps) == 2
        ids = [id(c) for batch in lowered for c in batch]
        assert len(ids) == 5 and len(set(ids)) == 5

    def test_optimizer_never_builds_a_circuit_kernel(self, lowered):
        """Every circuit object that run, apply_circuit, objective, gradient,
        adjoint_gradient, minimize, excited_states and greedy_search lower
        keeps its steps and nothing else."""
        circuit = linear_ansatz(2, 1).circuit()
        h = random_symmetric(np.random.default_rng(21), 4)
        params = np.linspace(-1.0, 1.0, circuit.n_slots)
        state = run(circuit, params)
        apply_circuit(circuit, state, params)
        objective(params, circuit, ObjectiveConfig(h))
        gradient(params, circuit, ObjectiveConfig(h))
        adjoint_gradient(circuit, params, state, h @ state)
        opt = OptimizerConfig(max_iter=50, restarts=2, seed=4)
        minimize(circuit, ObjectiveConfig(h), opt)
        excited_states(circuit, h, 1, opt)
        greedy_search(h, SearchConfig(n_blocks=1, thresholds=(1e-30,), max_entanglers=1, full_budget=50))
        circuits = {id(c): c for batch in lowered for c in batch}
        assert id(circuit) in circuits and len(circuits) > 2
        names = {f.name for f in fields(Circuit)}
        assert all(set(vars(c)) - names <= {"_steps"} for c in circuits.values())
        assert set(vars(circuit)) - names == {"_steps"}


def test_gershgorin_upper_bounds_spectrum():
    rng = np.random.default_rng(15)
    for _ in range(20):
        matrix = random_symmetric(rng, 8)
        assert gershgorin_upper(matrix) >= classical_spectrum(matrix)[-1] - 1e-12
