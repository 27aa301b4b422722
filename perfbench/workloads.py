"""The benchmark's workloads: inputs made from a seed, timed steps and output checks.

All three use the README Morse system (finite grid on [2.55, 4.55] bohr,
26 amu, D_e 0.07, a 1.35, r_e 3.2). CLI tasks go through
``dvrvqe.cli.main(["run", config])`` on generated configs; the tau batch
calls the library directly, through module attributes so that the tracer's
rebinding reaches it. A step's ``run`` is timed, its ``check`` is
not, and ``check`` returns one message per failed operation.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dvrvqe import cli, measurement
from dvrvqe.ansatz import linear_ansatz
from dvrvqe.circuits import save_circuit
from dvrvqe.constants import AMU_TO_ELECTRON_MASS, HARTREE_TO_INV_CM
from dvrvqe.grids import build_grid
from dvrvqe.hamiltonian import assemble, truncation_error_bound
from dvrvqe.pauli import load_pauli, reconstruct
from dvrvqe.potentials import MorsePotential
from dvrvqe.simulator import run as run_circuit

MORSE = MorsePotential(0.07, 1.35, 3.2)
MASS = 26.0 * AMU_TO_ELECTRON_MASS
SYSTEM = """[system]
variant = finite
a = 2.55
b = 4.55
n_qubits = {n}
mass_amu = 26.0

[potential]
type = morse
well_depth = 0.07
range = 1.35
equilibrium = 3.2

"""


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    attempted: int = 1
    cli: bool = False       # a CLI task: one request id per call in traced passes
    share: float = 1.0      # how much of this step one pass of the workload holds


def hamiltonian(n: int):
    return assemble(build_grid("finite", {"a": 2.55, "b": 4.55}, n, MASS), MORSE)


def write_config(workdir: Path, name: str, n: int, task: str, seed: int, **keys) -> tuple[Path, Path]:
    lines = [SYSTEM.format(n=n), "[task]", f"name = {task}", f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    lines += ["", "[output]", f"directory = {name}_out", ""]
    path = workdir / f"{name}.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path, workdir / f"{name}_out"


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cli_step(name: str, config: Path, outdir: Path, check_output: Callable[[Path], list[str]],
             share: float = 1.0) -> Step:
    """One CLI task; later runs must write the first run's manifest byte for byte.

    Equal manifests mean equal artifacts, so a repeat inherits the first
    run's output check instead of re-reading the files.
    """
    first: list[tuple[bytes, list[str]]] = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["run", str(config)])

    def check(code) -> list[str]:
        if code != 0:
            return [f"{name}: exit code {code}"]
        manifest = (outdir / "manifest").read_bytes()
        if not first:
            first.append((manifest, check_output(outdir)))
        if manifest != first[0][0]:
            return [f"{name}: manifest differs from the first run with the same seed"]
        return first[0][1]

    return Step(name, run, check, cli=True, share=share)


class Workload:
    """Inputs in ``workdir``, made from ``seed``; ``steps`` is one pass."""

    name = ""
    UNITS: dict[str, str] = {}  # units of the report metrics only this workload has

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.steps: list[Step] = []

    def pass_s(self, medians: dict[str, float]) -> float:
        """One pass at the median time of every step named in ``medians``."""
        return sum(step.share * medians[step.name] for step in self.steps if step.name in medians)

    def tasks(self, medians: dict[str, float]) -> tuple[dict[str, float], float, float]:
        """(report metrics, task1_s, task2_s) from the median step times."""
        raise NotImplementedError


class VqeSearch(Workload):
    name = "vqe_search"
    UNITS = {"cli.excited_s": "s", "cli.search_s": "s"}
    # The optimizer seed sets how long each restart runs: over seeds 0-11,
    # excited makes 9.5k-22.7k simulations and search 37.7k-45.4k. That
    # spread between seeds is wider than any bound a run-to-run comparison
    # can use, so the VQE tasks keep the README seed whatever --seed is.
    VQE_SEED = 9

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        excited, excited_out = write_config(
            workdir, "excited", 4, "excited", self.VQE_SEED,
            entangler="linear", blocks=3, v_max=1, restarts=2,
        )
        search, search_out = write_config(
            workdir, "search", 4, "search", self.VQE_SEED, blocks=2, thresholds="1.0 0.01", restarts=3,
        )
        self.steps = [
            cli_step("cli.excited", excited, excited_out, self.check_excited),
            cli_step("cli.search", search, search_out, self.check_search),
        ]

    @staticmethod
    def check_excited(outdir: Path) -> list[str]:
        errors = {int(row["v"]): float(row["error_cm1"]) for row in read_rows(outdir / "result.csv")}
        return [
            f"cli.excited: v={v} error {errors.get(v)} 1/cm is not below 1"
            for v in (0, 1)
            if not abs(errors.get(v, np.inf)) < 1.0
        ]

    @staticmethod
    def check_search(outdir: Path) -> list[str]:
        found = {float(row["threshold_cm1"]): row["found"] == "1" for row in read_rows(outdir / "result.csv")}
        return [
            f"cli.search: no circuit reached {threshold} 1/cm"
            for threshold, file in ((1.0, "c1.circuit"), (0.01, "c001.circuit"))
            if not (found.get(threshold) and (outdir / file).is_file())
        ]

    def tasks(self, medians):
        report = {"cli.excited_s": medians["cli.excited"], "cli.search_s": medians["cli.search"]}
        return report, medians["cli.excited"], medians["cli.search"]


class MeasurePlan(Workload):
    name = "measure_plan"
    UNITS = {"cli.verify_plan_s": "s", "tau_exact_per_s": "evals/s", "tau_sampled_per_s": "evals/s"}
    N, S, R, BLOCKS = 7, 16, 8, 2
    STATES, CHUNK, SHOTS = 500, 50, 1000

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        rng = np.random.default_rng(seed)
        circuit = linear_ansatz(self.N, self.BLOCKS).circuit()
        save_circuit(workdir / "state.circuit", circuit)
        params = rng.uniform(-np.pi, np.pi, circuit.n_slots)
        (workdir / "state_params.txt").write_text("".join(f"{float(p)!r}\n" for p in params), encoding="utf-8")
        truncation = {"s": self.S, "r": self.R}
        plan, plan_out = write_config(workdir, "plan", self.N, "plan", seed, **truncation)
        verify, verify_out = write_config(
            workdir, "verify", self.N, "verify-plan", seed, plan="plan_out/plan.txt", **truncation
        )
        measure, measure_out = write_config(
            workdir, "measure", self.N, "measure", seed, plan="plan_out/plan.txt",
            circuit="state.circuit", params="state_params.txt", shots=self.SHOTS, **truncation,
        )

        self.h = hamiltonian(self.N)
        self.bound = truncation_error_bound(self.h.profile, self.S, self.R)
        self.plan = measurement.full_plan(self.h, measurement.TruncationSpec(self.S, self.R))
        self.states = [
            run_circuit(circuit, rng.uniform(-np.pi, np.pi, circuit.n_slots)) for _ in range(self.STATES)
        ]
        self.energies = [float(np.vdot(s, self.h.full @ s).real) for s in self.states]
        self.exact: dict[int, float] = {}

        # verify-plan is short, so a pass samples it three times at a third each.
        verify_step = cli_step("cli.verify_plan", verify, verify_out, self.check_verify, share=1 / 3)
        self.steps = [
            cli_step("cli.plan", plan, plan_out, lambda outdir: []),
            verify_step,
            cli_step("cli.measure", measure, measure_out, self.check_measure),
        ]
        for start in range(0, self.STATES, self.CHUNK):
            chunk = range(start, start + self.CHUNK)
            self.steps.append(Step("tau.exact", self.exact_run(chunk), self.exact_check(chunk), self.CHUNK))
            self.steps.append(Step("tau.sampled", self.sampled_run(chunk), self.sampled_check(chunk), self.CHUNK))
            if start in (150, 300):
                self.steps.append(verify_step)

    def check_verify(self, outdir: Path) -> list[str]:
        (row,) = read_rows(outdir / "result.csv")
        limit = 1e-12 * float(np.max(np.abs(self.h.full)))
        return [f"cli.verify_plan: {key} = {row[key]} exceeds {limit:.3g}" for key in row if not float(row[key]) <= limit]

    def check_measure(self, outdir: Path) -> list[str]:
        values = {row["quantity"]: float(row["value"]) for row in read_rows(outdir / "result.csv")}
        failures = []
        if not abs(values["tau_exact"] - values["energy_dense"]) <= self.bound:
            failures.append("cli.measure: tau_exact is outside the truncation bound of <H>")
        if not abs(values["tau_sampled"] - values["tau_exact"]) <= 5 * values["std_error"]:
            failures.append("cli.measure: tau_sampled is more than 5 sigma from tau_exact")
        if values["bases_within_bound"] != 1:
            failures.append("cli.measure: plan uses more bases than its bound")
        return failures

    def exact_run(self, chunk):
        return lambda: [measurement.evaluate_exact(self.plan, self.states[i]) for i in chunk]

    def exact_check(self, chunk):
        def check(taus) -> list[str]:
            failures = []
            for i, tau in zip(chunk, taus):
                self.exact[i] = tau
                if not abs(tau - self.energies[i]) <= self.bound:
                    failures.append(f"tau.exact: state {i} is outside the truncation bound of <H>")
            return failures

        return check

    def sampled_run(self, chunk):
        return lambda: [
            measurement.evaluate_sampled(self.plan, self.states[i], self.SHOTS, [self.seed, i]) for i in chunk
        ]

    def sampled_check(self, chunk):
        def check(samples) -> list[str]:
            return [
                f"tau.sampled: state {i} is more than 5 sigma from the exact tau"
                for i, sample in zip(chunk, samples)
                if not abs(sample.estimate - self.exact.get(i, np.nan)) <= 5 * sample.std_error
            ]

        return check

    def tasks(self, medians):
        exact_s = medians["tau.exact"] / self.CHUNK
        sampled_s = medians["tau.sampled"] / self.CHUNK
        report = {
            "cli.verify_plan_s": medians["cli.verify_plan"],
            "tau_exact_per_s": 1.0 / exact_s,
            "tau_sampled_per_s": 1.0 / sampled_s,
        }
        return report, medians["cli.verify_plan"], exact_s + sampled_s


class ClassicalDvr(Workload):
    name = "classical_dvr"
    UNITS = {"cli.diag_s": "s", "cli.decompose_s": "s"}
    LEVELS = 8

    def __init__(self, workdir: Path, seed: int):
        super().__init__(workdir, seed)
        diag, diag_out = write_config(workdir, "diag", 12, "diag", seed, levels=self.LEVELS)
        decompose, decompose_out = write_config(workdir, "decompose", 8, "decompose", seed)
        self.h8 = hamiltonian(8).full
        self.steps = [
            cli_step("cli.diag", diag, diag_out, self.check_diag),
            cli_step("cli.decompose", decompose, decompose_out, self.check_decompose),
        ]

    def check_diag(self, outdir: Path) -> list[str]:
        rows = read_rows(outdir / "spectrum.csv")
        if len(rows) != self.LEVELS:
            return [f"cli.diag: {len(rows)} levels written, expected {self.LEVELS}"]
        return [
            f"cli.diag: level {v} is {deviation:.3g} 1/cm from the analytic Morse level"
            for v, row in enumerate(rows)
            if not (deviation := abs(float(row["energy_hartree"]) - MORSE.level(v, MASS)) * HARTREE_TO_INV_CM)
            <= 0.01
        ]

    def check_decompose(self, outdir: Path) -> list[str]:
        error = float(np.max(np.abs(reconstruct(load_pauli(outdir / "pauli.txt")) - self.h8)))
        return [] if error <= 1e-12 else [f"cli.decompose: reconstruction is {error:.3g} from H"]

    def tasks(self, medians):
        report = {"cli.diag_s": medians["cli.diag"], "cli.decompose_s": medians["cli.decompose"]}
        return report, medians["cli.diag"], medians["cli.decompose"]


WORKLOADS = {w.name: w for w in (VqeSearch, MeasurePlan, ClassicalDvr)}
