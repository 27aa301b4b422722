import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dvrvqe
from dvrvqe import cli
from dvrvqe.cli import main
from dvrvqe.config import ConfigError, load_config
from dvrvqe.constants import AMU_TO_ELECTRON_MASS, HARTREE_TO_INV_CM
from dvrvqe.circuits import format_circuit, save_circuit
from dvrvqe.ansatz import empty_ansatz, linear_ansatz
from dvrvqe.pauli import DEFAULT_TOL, decompose, format_pauli
from dvrvqe.potentials import HarmonicPotential, MorsePotential
from dvrvqe.search import SearchConfig, greedy_search
from dvrvqe.vqe import OptimizerConfig, minimize

HARMONIC_CONFIG = """\
[system]
variant = infinite
x_min = -6.0
dx = 0.1875
n_qubits = 6
mass_me = 500.0

[potential]
type = harmonic
force_constant = 0.25
center = 0.0

[task]
name = diag
seed = 3
levels = 6

[output]
directory = {outdir}
"""

MORSE_BASE = """\
[system]
variant = finite
a = 2.55
b = 4.55
n_qubits = 4
mass_amu = 26.0

[potential]
type = morse
well_depth = 0.07
range = 1.35
equilibrium = 3.2

[task]
name = {task}
seed = 9
{extra}
[output]
directory = {outdir}
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        bad = HARMONIC_CONFIG.format(outdir="out").replace(
            "levels = 6", "levels = 6\nshots_per_basis = 3"
        )
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="shots_per_basis"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir="out") + "\n[plotting]\nx = 1\n")
        with pytest.raises(ConfigError, match="plotting"):
            load_config(path)

    @pytest.mark.parametrize("argv", [[], ["--out", "elsewhere"]], ids=["config", "out-override"])
    def test_unknown_output_key_rejected(self, tmp_path, capsys, argv):
        text = HARMONIC_CONFIG.format(outdir="out") + "directroy = typo\n"
        assert main(["diag", str(write_config(tmp_path, text)), *argv]) == 2
        assert "[output] has unknown key(s): directroy" in capsys.readouterr().err

    def test_missing_mass_rejected(self, tmp_path):
        text = HARMONIC_CONFIG.format(outdir="out").replace("mass_me = 500.0\n", "")
        with pytest.raises(ConfigError, match="mass"):
            load_config(write_config(tmp_path, text))

    def test_both_masses_rejected(self, tmp_path):
        text = HARMONIC_CONFIG.format(outdir="out").replace(
            "mass_me = 500.0", "mass_me = 500.0\nmass_amu = 1.0"
        )
        with pytest.raises(ConfigError, match="mass"):
            load_config(write_config(tmp_path, text))

    def test_unknown_task_rejected(self, tmp_path):
        text = HARMONIC_CONFIG.format(outdir="out").replace("name = diag", "name = optimize")
        with pytest.raises(ConfigError, match="optimize"):
            load_config(write_config(tmp_path, text))

    def test_bad_float_diagnostic(self, tmp_path):
        text = HARMONIC_CONFIG.format(outdir="out").replace("dx = 0.1875", "dx = tiny")
        with pytest.raises(ConfigError, match="dx"):
            load_config(write_config(tmp_path, text))

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir="out"))
        config = load_config(path, task_override="decompose", seed_override=55,
                             outdir_override=tmp_path / "elsewhere")
        assert config.task == "decompose"
        assert config.seed == 55
        assert config.outdir == tmp_path / "elsewhere"

    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        text = HARMONIC_CONFIG.format(outdir="out").replace("dx = 0.1875", "dx = tiny")
        path = write_config(tmp_path, text)
        assert main(["run", str(path)]) == 2
        assert "dx" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("type = morse", "type = lennard-jones", "[potential] unknown type 'lennard-jones'"),
        ("seed = 9", "seed = 9\nthresholds = 1.0 abc", "[task] key 'thresholds': cannot parse '1.0 abc'"),
    ], ids=["potential-type", "thresholds"])
    def test_unparsable_value_exit_2(self, tmp_path, capsys, old, new, message):
        text = MORSE_BASE.format(task="search", extra="", outdir=tmp_path / "out").replace(old, new)
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_potential_type_none_is_no_potential(self, tmp_path):
        section = "[potential]\ntype = morse\nwell_depth = 0.07\nrange = 1.35\nequilibrium = 3.2\n\n"
        spectra = []
        for name, replacement in (("none", "[potential]\ntype = none\n\n"), ("absent", "")):
            text = MORSE_BASE.format(task="diag", extra="levels = 4\n", outdir=tmp_path / name)
            assert section in text
            path = write_config(tmp_path, text.replace(section, replacement), name=f"{name}.ini")
            assert main(["run", str(path)]) == 0
            spectra.append((tmp_path / name / "spectrum.csv").read_bytes())
        assert spectra[0] == spectra[1]

    @pytest.mark.parametrize("old, new, argv, message", [
        ("seed = 9", "seed = -1", [], "[task] key 'seed' must be >= 0, got -1"),
        (None, None, ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["config", "override"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, old, new, argv, message):
        text = MORSE_BASE.format(task="vqe", extra="", outdir=tmp_path / "out")
        if old is not None:
            text = text.replace(old, new)
        assert main(["vqe", str(write_config(tmp_path, text)), *argv]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("word, value", [
        ("TRUE", True), ("Yes", True), ("1", True), ("oN", True),
        ("false", False), ("NO", False), ("0", False), ("Off", False),
    ])
    def test_bool_words(self, tmp_path, word, value):
        text = MORSE_BASE.format(task="plan", extra=f"streamlined = {word}\n", outdir="out")
        assert load_config(write_config(tmp_path, text)).opt("streamlined") is value

    def test_bad_bool_diagnostic(self, tmp_path):
        text = MORSE_BASE.format(task="plan", extra="streamlined = maybe\n", outdir="out")
        with pytest.raises(ConfigError, match=r"\[task\] key 'streamlined': cannot parse 'maybe'"):
            load_config(write_config(tmp_path, text))

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        """main builds its parser once; an override of one call does not
        reach the next, and a bad argument still exits 2."""
        configs = []
        run_config = cli.run_config
        monkeypatch.setattr(cli, "run_config", lambda config: configs.append(config) or run_config(config))
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["decompose", str(path), "--out", str(tmp_path / "moved"), "--seed", "4"]) == 0
        assert main(["run", str(path)]) == 0
        assert main(["diag", str(path)]) == 0
        with pytest.raises(SystemExit) as exit_info:
            main(["diag", str(path), "--seed", "four"])
        assert exit_info.value.code == 2
        assert "argument --seed: invalid int value: 'four'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"dvrvqe {dvrvqe.__version__}\n"
        assert [(c.task, c.seed, c.outdir) for c in configs] == [
            ("decompose", 4, tmp_path / "moved"), ("diag", 3, tmp_path / "out"), ("diag", 3, tmp_path / "out"),
        ]
        assert (tmp_path / "moved" / "pauli.txt").exists() and (tmp_path / "out" / "spectrum.csv").exists()
        assert cli._parser() is cli._parser()

    def test_numeric_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(h, count):
            raise np.linalg.LinAlgError("LOBPCG did not converge")

        monkeypatch.setattr(cli, "lowest_levels", fail)
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["run", str(path)]) == 3
        assert "error: LinAlgError: LOBPCG did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("table, box, message", [
        ("2.0 0.0\n3.0 1.0\n", "a = 0.0\nb = 4.0\nn_qubits = 3", "x=0.4444444444444444 outside tabulated range [2.0"),
        ("3.0 0.0\n4.0 1.0\n", "a = 2.55\nb = 4.55\nn_qubits = 4", "x=2.6676470588235293 outside tabulated range [3.0"),
    ], ids=["narrower-than-grid", "readme-box"])
    def test_table_short_of_grid_exit_2(self, tmp_path, capsys, table, box, message):
        (tmp_path / "pot.dat").write_text(table)
        text = f"""\
[system]
variant = finite
{box}
mass_amu = 1.0

[potential]
type = tabulated
file = pot.dat

[task]
name = diag
seed = 1

[output]
directory = {tmp_path / "out"}
"""
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert f"config error: [potential] grid point {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBadNumbers:
    @pytest.mark.parametrize("task, extra, old, new, message", [
        ("plan", "s = 100\nr = 100\n", "n_qubits = 4", "n_qubits = 3", "[task] key 'r' must be in [1, 8], got 100"),
        ("plan", "epsilon = 0\n", None, None, "[task] key 'epsilon' must be > 0, got 0.0"),
        ("plan", "epsilon = nan\n", None, None, "[task] key 'epsilon' must be a finite number, got 'nan'"),
        ("plan", "s = 4\nr = 2\n", "well_depth = 0.07", "well_depth = nan",
         "[potential] key 'well_depth' must be a finite number, got 'nan'"),
        ("decompose", "tol = -1\n", None, None, "[task] key 'tol' must be >= 0, got -1.0"),
        ("search", "thresholds = nan 0.01\n", None, None,
         "[task] key 'thresholds' must be finite numbers, got 'nan 0.01'"),
        ("diag", "", "type = morse", "type = tabulated\nfile = nan_pot.dat",
         "[potential] tabulated x and V values must be finite"),
        ("diag", "", "mass_amu = 26.0", "mass_amu = 1e-310", "[system]: kinetic scale E_T = 1 / (2 m dx^2) overflows"),
        ("diag", "", "a = 2.55\nb = 4.55", "a = 0\nb = 1e-300", "[system]: kinetic scale E_T = 1 / (2 m dx^2) overflows"),
        ("diag", "", "variant = finite\na = 2.55\nb = 4.55", "variant = infinite\nx_min = 0\ndx = 1e200",
         "[system]: kinetic scale E_T = 1 / (2 m dx^2) underflows to 0"),
        ("diag", "", "variant = finite\na = 2.55\nb = 4.55", "variant = infinite\nx_min = -1000\ndx = 1",
         "[potential] V is not finite at grid point x=-1000.0"),
    ], ids=["r-above-grid", "epsilon-zero", "epsilon-nan", "well-depth-nan", "tol-negative", "threshold-nan",
            "tabulated-nan", "mass-tiny", "box-tiny", "e_t-underflows", "potential-overflows"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_number_exit_2(self, tmp_path, capsys, task, extra, old, new, message):
        (tmp_path / "nan_pot.dat").write_text("2.0 0.0\n3.0 nan\n5.0 1.0\n")
        text = MORSE_BASE.format(task=task, extra=extra, outdir=tmp_path / "out")
        if old is not None:
            text = text.replace(old, new)
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTaskIntegerKeys:
    @pytest.mark.parametrize("task, key, value", [
        ("vqe", "restarts", 0),
        ("excited", "restarts", -1),
        ("search", "restarts", 0),
        ("vqe", "max_iter", 0),
        ("search", "max_iter", -5),
        ("vqe", "blocks", 0),
        ("search", "blocks", 0),
        ("search", "candidate_budget", 0),
        ("search", "max_entanglers", -1),
        ("measure", "shots", 0),
        ("plan", "s", 0),
        ("plan", "r", 0),
    ])
    def test_below_minimum_exit_2(self, tmp_path, capsys, task, key, value):
        text = MORSE_BASE.format(task=task, extra=f"{key} = {value}\n", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert f"[task] key '{key}' must be >= " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTaskDefaults:
    """The CLI passes the library only the [task] keys a config sets."""

    def test_unset_keys_keep_the_dataclass_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, MORSE_BASE.format(task="search", extra="", outdir="out")))
        assert cli._optimizer_config(config) == OptimizerConfig(seed=config.seed)
        assert cli._search_config(config) == SearchConfig(n_blocks=3, seed=config.seed)

    def test_every_key_reaches_its_field(self, tmp_path):
        extra = (
            "blocks = 2\nthresholds = 5.0 0.5\nmax_entanglers = 7\ncandidate_budget = 33\n"
            "restarts = 4\nmax_iter = 123\n"
        )
        config = load_config(write_config(tmp_path, MORSE_BASE.format(task="search", extra=extra, outdir="out")))
        assert cli._optimizer_config(config) == OptimizerConfig(max_iter=123, restarts=4, seed=9)
        assert cli._search_config(config) == SearchConfig(
            n_blocks=2, thresholds=(5.0, 0.5), max_entanglers=7, candidate_budget=33,
            full_budget=123, restarts_initial=4, seed=9,
        )

    @pytest.mark.parametrize("extra, tol", [("", DEFAULT_TOL), ("tol = 1e-3\n", 1e-3)], ids=["default", "set"])
    def test_decompose_tol(self, tmp_path, extra, tol):
        path = write_config(tmp_path, MORSE_BASE.format(task="decompose", extra=extra, outdir=tmp_path / "out"))
        assert main(["run", str(path)]) == 0
        config = load_config(path)
        expected = format_pauli(decompose(config.hamiltonian.full, tol=tol))
        assert (tmp_path / "out" / "pauli.txt").read_text() == expected


class TestQubitLimits:
    @pytest.mark.parametrize("task", ["decompose", "vqe", "excited", "search", "verify-plan", "measure"])
    def test_dense_task_above_limit_exit_2(self, tmp_path, capsys, task):
        text = MORSE_BASE.format(task=task, extra="", outdir=tmp_path / "out").replace("n_qubits = 4", "n_qubits = 15")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert f"n_qubits=15 is above 14, the limit of the '{task}' task" in capsys.readouterr().err

    @pytest.mark.parametrize("task,n", [("diag", 18), ("plan", 17)])
    def test_matrix_free_task_above_limit_exit_2(self, tmp_path, capsys, task, n):
        text = MORSE_BASE.format(task=task, extra="s = 2\nr = 1\n", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text.replace("n_qubits = 4", f"n_qubits = {n}")))]) == 2
        assert f"n_qubits={n} is above {n - 1}" in capsys.readouterr().err

    def test_matrix_free_levels_capped_exit_2(self, tmp_path, capsys):
        text = MORSE_BASE.format(task="diag", extra="levels = 17\n", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text.replace("n_qubits = 4", "n_qubits = 16")))]) == 2
        assert "'levels' must be in [1, 16]" in capsys.readouterr().err

    def test_diag_and_plan_run_at_15_qubits(self, tmp_path):
        morse = MorsePotential(0.07, 1.35, 3.2)
        mass = 26.0 * AMU_TO_ELECTRON_MASS
        for task, extra in (("diag", "levels = 2\n"), ("plan", "s = 2\nr = 1\n")):
            text = MORSE_BASE.format(task=task, extra=extra, outdir=tmp_path / task)
            assert main(["run", str(write_config(tmp_path, text.replace("n_qubits = 4", "n_qubits = 15")))]) == 0
        rows = (tmp_path / "diag" / "spectrum.csv").read_text().splitlines()[1:]
        levels = [float(row.split(",")[1]) for row in rows]
        assert np.max(np.abs(np.subtract(levels, [morse.level(v, mass) for v in range(2)]))) * HARTREE_TO_INV_CM < 0.01
        assert (tmp_path / "plan" / "plan.txt").read_text().startswith("basis 0\nqubits 15 slots 0\n")


class TestDiagTask:
    def test_harmonic_spectrum_artifact(self, tmp_path):
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir=tmp_path / "out"))
        assert main(["run", str(path)]) == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "v,energy_hartree,energy_cm1"
        omega = HarmonicPotential(0.25).frequency(500.0)
        v0 = float(lines[1].split(",")[1])
        assert v0 == pytest.approx(omega / 2, rel=1e-6)
        cm1 = float(lines[1].split(",")[2])
        assert cm1 == pytest.approx(v0 * HARTREE_TO_INV_CM, rel=1e-12)

    def test_manifest_lists_artifacts(self, tmp_path):
        path = write_config(tmp_path, HARMONIC_CONFIG.format(outdir=tmp_path / "out"))
        main(["run", str(path)])
        manifest = (tmp_path / "out" / "manifest").read_text().splitlines()
        names = [line.split()[1] for line in manifest]
        assert names == ["spectrum.csv"]
        digest = hashlib.sha256((tmp_path / "out" / "spectrum.csv").read_bytes()).hexdigest()
        assert manifest[0].split()[0] == digest


    @pytest.mark.parametrize("levels", [-2, 0, 9])
    def test_levels_out_of_range_exit_2(self, tmp_path, capsys, levels):
        text = HARMONIC_CONFIG.format(outdir=tmp_path / "out").replace("n_qubits = 6", "n_qubits = 3")
        text = text.replace("levels = 6", f"levels = {levels}")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "'levels' must be in [1, 8]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "spectrum.csv").exists()


class TestDecomposeTask:
    def test_pauli_artifact(self, tmp_path):
        text = MORSE_BASE.format(task="decompose", extra="", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "pauli.txt").read_text().splitlines()
        assert all(len(line.split()) == 2 for line in lines)
        words = [line.split()[0] for line in lines]
        assert all(len(w) == 4 and set(w) <= set("IXYZ") for w in words)


class TestVqeTask:
    def test_linear_vqe_result(self, tmp_path):
        extra = "blocks = 3\nentangler = linear\nrestarts = 3\nmax_iter = 1500\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        out = tmp_path / "out"
        result_lines = (out / "result.csv").read_text().splitlines()
        header = result_lines[0].split(",")
        row = dict(zip(header, result_lines[1].split(",")))
        assert abs(float(row["error_cm1"])) < 1.0
        trace = (out / "vqe_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,energy_hartree,energy_cm1"
        assert len(trace) > 2

    def test_custom_circuit_file(self, tmp_path):
        circuit_path = tmp_path / "ansatz.circuit"
        save_circuit(circuit_path, linear_ansatz(4, 2).circuit())
        extra = f"entangler = {circuit_path}\nrestarts = 2\nmax_iter = 800\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0

    def test_circuit_file_relative_to_config(self, tmp_path):
        save_circuit(tmp_path / "ansatz.circuit", linear_ansatz(4, 1).circuit())
        extra = "entangler = ansatz.circuit\nrestarts = 2\nmax_iter = 600\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0

    def test_search_entangler_optimizes_the_searched_circuit(self, tmp_path, monkeypatch):
        searches, optimized = [], []

        def spied_search(*args, **kwargs):
            searches.append(greedy_search(*args, **kwargs))
            return searches[-1]

        def spied_minimize(circuit, *args, **kwargs):
            optimized.append(circuit)
            return minimize(circuit, *args, **kwargs)

        monkeypatch.setattr(cli, "greedy_search", spied_search)
        monkeypatch.setattr(cli, "minimize", spied_minimize)
        extra = "entangler = search\nblocks = 1\nrestarts = 1\nmax_iter = 300\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "out").replace("n_qubits = 4", "n_qubits = 3")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        (result,) = searches
        assert optimized == [result.final_ansatz.circuit()]
        assert (tmp_path / "out" / "result.csv").is_file()

    def test_malformed_entangler_file_exit_2(self, tmp_path, capsys):
        (tmp_path / "ansatz.circuit").write_text("qubits 4 slots 0\nx 0\ncnot 1 1\n")
        extra = "entangler = ansatz.circuit\nrestarts = 1\nmax_iter = 10\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "cnot control and target must differ" in capsys.readouterr().err


class TestExcitedTask:
    def test_three_levels(self, tmp_path):
        extra = "blocks = 3\nentangler = linear\nv_max = 2\nrestarts = 3\nmax_iter = 1500\n"
        text = MORSE_BASE.format(task="excited", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0
        lines = (tmp_path / "out" / "result.csv").read_text().splitlines()
        assert len(lines) == 4
        for line in lines[1:]:
            row = dict(zip(lines[0].split(","), line.split(",")))
            assert abs(float(row["error_cm1"])) < 1.0

    def test_default_v_max_on_one_qubit_grid(self, tmp_path):
        extra = "blocks = 1\nrestarts = 1\nmax_iter = 50\n"
        text = MORSE_BASE.format(task="excited", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text.replace("n_qubits = 4", "n_qubits = 1")))]) == 0
        assert len((tmp_path / "out" / "result.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("v_max", [-3, 16])
    def test_v_max_out_of_range_exit_2(self, tmp_path, capsys, v_max):
        extra = f"blocks = 1\nentangler = linear\nv_max = {v_max}\n"
        text = MORSE_BASE.format(task="excited", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "'v_max' must be in [0, 15]" in capsys.readouterr().err


def measure_report(tmp_path, plan_path, name):
    """Run measure on the 4-qubit Morse config with ``plan_path``; return result.csv as a dict."""
    save_circuit(tmp_path / "state.circuit", linear_ansatz(4, 1).circuit())
    (tmp_path / "params.txt").write_text("\n".join(["0.05"] * 8) + "\n")
    extra = f"s = 4\nr = 2\nshots = 100\nplan = {plan_path}\ncircuit = state.circuit\nparams = params.txt\n"
    text = MORSE_BASE.format(task="measure", extra=extra, outdir=tmp_path / name)
    assert main(["run", str(write_config(tmp_path, text, name=f"{name}.ini"))]) == 0
    lines = (tmp_path / name / "result.csv").read_text().splitlines()[1:]
    return dict(line.split(",") for line in lines)


class TestPlanTasks:
    def test_plan_verify_measure_chain(self, tmp_path):
        outdir = tmp_path / "out"
        extra = "s = 4\nr = 2\n"
        plan_cfg = write_config(tmp_path, MORSE_BASE.format(task="plan", extra=extra, outdir=outdir))
        assert main(["run", str(plan_cfg)]) == 0
        assert (outdir / "plan.txt").is_file()

        result = (outdir / "result.csv").read_text().splitlines()
        row = dict(zip(result[0].split(","), result[1].split(",")))
        assert int(row["num_bases"]) <= int(row["bound_num_bases"])

        verify_extra = f"s = 4\nr = 2\nplan = {outdir / 'plan.txt'}\n"
        verify_cfg = write_config(
            tmp_path, MORSE_BASE.format(task="verify-plan", extra=verify_extra, outdir=tmp_path / "verify"),
            name="verify.ini",
        )
        assert main(["run", str(verify_cfg)]) == 0
        lines = (tmp_path / "verify" / "result.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["max_abs_deviation_vs_rebuild"]) == 0.0

        circuit_path = tmp_path / "state.circuit"
        save_circuit(circuit_path, linear_ansatz(4, 1).circuit())
        params_path = tmp_path / "params.txt"
        params_path.write_text("\n".join(["0.05"] * 8) + "\n")
        measure_extra = (
            f"s = 4\nr = 2\nshots = 2000\nplan = {outdir / 'plan.txt'}\n"
            f"circuit = {circuit_path}\nparams = {params_path}\n"
        )
        measure_cfg = write_config(
            tmp_path, MORSE_BASE.format(task="measure", extra=measure_extra, outdir=tmp_path / "meas"),
            name="measure.ini",
        )
        assert main(["run", str(measure_cfg)]) == 0
        report = dict(
            line.split(",") for line in (tmp_path / "meas" / "result.csv").read_text().splitlines()[1:]
        )
        sampled = float(report["tau_sampled"])
        exact = float(report["tau_exact"])
        sigma = float(report["std_error"])
        assert abs(sampled - exact) < 5 * max(sigma, 1e-12)
        assert report["bases_within_bound"] == "1"

    @pytest.mark.parametrize("circuit_text, message", [
        ("qubits 4 slots 0\nh 0\nbogus 1\n", "unknown gate"),
        ("qubits 3 slots 0\nh 0\n", "has 3 qubits"),
    ])
    def test_malformed_state_circuit_exit_2(self, tmp_path, capsys, circuit_text, message):
        (tmp_path / "state.circuit").write_text(circuit_text)
        extra = "s = 4\nr = 2\nshots = 10\ncircuit = state.circuit\n"
        text = MORSE_BASE.format(task="measure", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("params_text, message", [
        ("0.1\n0.2\n", "has 2 values, the circuit 8 slots"),
        ("0.1\n" * 7 + "abc\n", "cannot read params file"),
    ], ids=["too-few-values", "non-numeric"])
    def test_bad_params_file_exit_2(self, tmp_path, capsys, params_text, message):
        save_circuit(tmp_path / "state.circuit", linear_ansatz(4, 1).circuit())
        (tmp_path / "params.txt").write_text(params_text)
        extra = "s = 4\nr = 2\nshots = 10\ncircuit = state.circuit\nparams = params.txt\n"
        text = MORSE_BASE.format(task="measure", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("task, plan_text, message", [
        ("verify-plan", None, "cannot read plan file"),
        ("verify-plan", "basis 0\nqubits 4 slots 0\nw 16 1.0\n", "outcome 16 outside [0, 16)"),
        ("measure", "basis 0\nqubits 4 slots 0\nw 0 1.0\nw 0 2.0\n", "repeats outcome 0"),
        ("measure", "basis 0\nqubits 3 slots 0\nw 0 1.0\n", "has 3 qubits, the grid 4"),
    ], ids=["verify-missing", "verify-outcome-range", "measure-repeated-outcome", "measure-qubit-count"])
    def test_malformed_plan_file_exit_2(self, tmp_path, capsys, task, plan_text, message):
        if plan_text is not None:
            (tmp_path / "plan.txt").write_text(plan_text)
        (tmp_path / "state.circuit").write_text("qubits 4 slots 0\nh 0\n")
        extra = "s = 4\nr = 2\nshots = 10\nplan = plan.txt\ncircuit = state.circuit\n"
        text = MORSE_BASE.format(task=task, extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err

    def test_measure_reports_loaded_plan_count(self, tmp_path, monkeypatch):
        """A measure with a plan file reads that plan's count and builds no plan."""
        plan_cfg = write_config(
            tmp_path, MORSE_BASE.format(task="plan", extra="s = 4\nr = 2\n", outdir=tmp_path / "plan"),
            name="plan.ini",
        )
        assert main(["run", str(plan_cfg)]) == 0
        lines = (tmp_path / "plan" / "plan.txt").read_text().splitlines()
        # split the last block into two blocks with the same circuit
        start = max(i for i, line in enumerate(lines) if line.startswith("basis "))
        last = int(lines[start].split()[1])
        circuit = [line for line in lines[start + 1:] if not line.startswith("w ")]
        weights = [line for line in lines[start + 1:] if line.startswith("w ")]
        assert len(weights) >= 2
        split = lines[: start + 1] + circuit + weights[:1] + [f"basis {last + 1}"] + circuit + weights[1:]
        (tmp_path / "split.txt").write_text("\n".join(split) + "\n")

        builds = []
        monkeypatch.setattr(cli, "full_plan", lambda *args: builds.append(args))
        whole = measure_report(tmp_path, tmp_path / "plan" / "plan.txt", "whole")
        parted = measure_report(tmp_path, tmp_path / "split.txt", "parted")
        assert int(whole["num_bases"]) == last + 1
        assert int(parted["num_bases"]) == last + 2
        assert builds == []
        assert parted["bound_num_bases"] == whole["bound_num_bases"]
        header, row = (tmp_path / "plan" / "result.csv").read_text().splitlines()
        assert whole["bound_num_bases"] == dict(zip(header.split(","), row.split(",")))["bound_num_bases"]
        assert float(parted["tau_exact"]) == pytest.approx(float(whole["tau_exact"]), rel=1e-12)
        per_basis = (tmp_path / "parted" / "measure_bases.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in per_basis[1:]] == [[str(b), "100"] for b in range(last + 2)]

    @pytest.mark.parametrize("extra", ["s = 4\nr = 2\nshots = 100000000000000000000\n", "epsilon = 1e-40\n"],
                             ids=["explicit", "from-epsilon"])
    def test_shots_above_int64_exit_2(self, tmp_path, capsys, extra):
        save_circuit(tmp_path / "state.circuit", linear_ansatz(4, 1).circuit())
        (tmp_path / "params.txt").write_text("0.05\n" * 8)
        extra += "circuit = state.circuit\nparams = params.txt\n"
        text = MORSE_BASE.format(task="measure", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "shots per basis is above 9223372036854775807" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_epsilon_driven_plan(self, tmp_path):
        extra = "epsilon = 0.3\n"
        text = MORSE_BASE.format(task="plan", extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 0


def forbidden(*args, **kwargs):
    pytest.fail("the task computed before it had read its input files")


class TestTaskInputs:
    """A config error that a task raises comes before any work and leaves no output directory."""

    @pytest.mark.parametrize("task, extra, message", [
        ("measure", "s = 4\nr = 2\ncircuit = missing.circuit\n", "cannot read circuit file"),
        ("measure", "s = 4\nr = 2\nplan = bad_plan.txt\ncircuit = state.circuit\nparams = params.txt\n",
         "repeats outcome 0"),
        ("measure", "s = 4\nr = 2\ncircuit = state.circuit\nparams = short.txt\n", "has 2 values, the circuit 8 slots"),
        ("measure", "s = 4\nr = 2\nshots = 9223372036854775808\ncircuit = state.circuit\nparams = params.txt\n",
         "shots per basis is above 9223372036854775807"),
        ("search", "blocks = 1\nthresholds = 25 2.5\n", "share a circuit file name"),
        ("plan", "s = 4\n", "explicit truncation needs both 's' and 'r'"),
        ("plan", "", "needs 'epsilon' or explicit 's' and 'r'"),
        ("measure", "s = 4\nr = 2\n", "measure needs a 'circuit' file for the state"),
        ("measure", "s = 4\nr = 2\ncircuit = state.circuit\n", "measure needs a 'params' file for the circuit's slots"),
        ("measure", "s = 4\nr = 2\nplan = nan_plan.txt\ncircuit = state.circuit\nparams = params.txt\n",
         "outcome 0 weight 'nan' is not finite"),
        ("verify-plan", "s = 4\nr = 2\nplan = nan_plan.txt\n", "outcome 0 weight 'nan' is not finite"),
        ("measure", "s = 4\nr = 2\ncircuit = state.circuit\nparams = inf.txt\n", "holds a value that is not finite"),
        ("measure", "s = 4\nr = 2\ncircuit = negative.circuit\n", "slot count >= 0, got -1"),
        ("vqe", "entangler = negative.circuit\n", "slot count >= 0, got -1"),
    ], ids=["missing-circuit", "malformed-plan", "params-count", "shots-above-int64", "threshold-names-clash",
            "s-without-r", "no-truncation", "no-circuit", "no-params", "plan-weight-nan", "verify-plan-weight-nan",
            "params-inf", "measure-negative-slots", "entangler-negative-slots"])
    def test_config_error_leaves_no_output(self, tmp_path, capsys, task, extra, message):
        save_circuit(tmp_path / "state.circuit", linear_ansatz(4, 1).circuit())
        (tmp_path / "params.txt").write_text("0.05\n" * 8)
        (tmp_path / "short.txt").write_text("0.1\n0.2\n")
        (tmp_path / "inf.txt").write_text("0.05\n" * 7 + "inf\n")
        (tmp_path / "bad_plan.txt").write_text("basis 0\nqubits 4 slots 0\nw 0 1.0\nw 0 2.0\n")
        (tmp_path / "nan_plan.txt").write_text("basis 0\nqubits 4 slots 0\nw 0 nan\n")
        (tmp_path / "negative.circuit").write_text("qubits 4 slots -1\nh 0\n")
        text = MORSE_BASE.format(task=task, extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, extra", [
        ("vqe", "entangler = missing.circuit\n"),
        ("excited", "entangler = missing.circuit\n"),
        ("measure", "s = 4\nr = 2\ncircuit = missing.circuit\n"),
    ], ids=["vqe", "excited", "measure"])
    def test_files_read_before_work(self, tmp_path, capsys, monkeypatch, task, extra):
        monkeypatch.setattr(cli, "lowest_levels", forbidden)
        monkeypatch.setattr(cli, "full_plan", forbidden)
        text = MORSE_BASE.format(task=task, extra=extra, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, text))]) == 2
        assert "cannot read circuit file" in capsys.readouterr().err


class TestCsv:
    def test_floats_at_17_digits_everything_else_by_str(self):
        rows = [(0.1, np.float64(1 / 3), 7, np.int64(-2)), ("x", float("nan"), 10**20, np.int64(2**62))]
        assert cli._csv("a,b,c,d", rows) == (
            "a,b,c,d\n0.10000000000000001,0.33333333333333331,7,-2\nx,nan,100000000000000000000,4611686018427387904\n"
        )

    def test_header_only(self):
        assert cli._csv("quantity,value", []) == "quantity,value\n"


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        extra = "blocks = 2\nentangler = linear\nrestarts = 2\nmax_iter = 600\n"
        for sub in ("a", "b"):
            text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / sub)
            main(["run", str(write_config(tmp_path, text, name=f"{sub}.ini"))])
        for name in ("manifest", "result.csv", "vqe_trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_artifacts(self, tmp_path):
        extra = "blocks = 2\nentangler = linear\nrestarts = 2\nmax_iter = 600\n"
        text = MORSE_BASE.format(task="vqe", extra=extra, outdir=tmp_path / "a")
        path = write_config(tmp_path, text)
        main(["run", str(path)])
        assert main(["vqe", str(path), "--out", str(tmp_path / "b"), "--seed", "77"]) == 0
        a = (tmp_path / "a" / "result.csv").read_text()
        b = (tmp_path / "b" / "result.csv").read_text()
        assert a != b  # different restarts land on different optima bit-wise


SMALL_SEARCH = """\
[system]
variant = finite
a = 2.75
b = 4.15
n_qubits = 2
mass_amu = 26.0

[potential]
type = morse
well_depth = 0.07
range = 1.35
equilibrium = 3.2

[task]
name = search
seed = 6
blocks = 2
thresholds = {thresholds}
restarts = 3
max_iter = 800

[output]
directory = {outdir}
"""


class TestSearchTaskSmall:
    def test_search_artifacts_small_system(self, tmp_path):
        config_text = SMALL_SEARCH.format(thresholds="1.0 0.01", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, config_text))]) == 0
        out = tmp_path / "out"
        assert (out / "search_trace.csv").is_file()
        assert (out / "c1.circuit").is_file()
        assert (out / "c001.circuit").is_file()
        trace = (out / "search_trace.csv").read_text().splitlines()
        assert trace[0] == "step,block,ctrl,tgt,energy_hartree,error_cm1"

    def test_circuit_file_for_any_threshold(self, tmp_path):
        config_text = SMALL_SEARCH.format(thresholds="1.0 0.1", outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, config_text))]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("*.circuit")) == ["c01.circuit", "c1.circuit"]
        rows = (out / "result.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [["1", "1"], ["0.10000000000000001", "1"]]
        assert "c01.circuit" in (out / "manifest").read_text()

    def test_unreached_threshold_row_and_no_circuit_file(self, tmp_path):
        """With no entangler allowed, the best product state misses the ground
        level by about 1.3 1/cm: 1e5 is reached at step 0 and 1 never."""
        config_text = SMALL_SEARCH.format(thresholds="1e5 1.0", outdir=tmp_path / "out")
        config_text = config_text.replace("max_iter = 800\n", "max_iter = 800\nmax_entanglers = 0\n")
        assert main(["run", str(write_config(tmp_path, config_text))]) == 0
        out = tmp_path / "out"
        assert sorted(p.name for p in out.glob("*.circuit")) == ["c100000.circuit"]
        assert (out / "c100000.circuit").read_text() == format_circuit(empty_ansatz(2, 2).circuit())
        header, reached, missed = (row.split(",") for row in (out / "result.csv").read_text().splitlines())
        assert header == ["threshold_cm1", "found", "entanglers", "energy_hartree", "error_cm1"]
        assert reached[:3] == ["100000", "1", "0"] and 1.0 < float(reached[4]) < 2.0
        assert missed == ["1", "0", "-1", "nan", "nan"]
        assert len((out / "search_trace.csv").read_text().splitlines()) == 2
        listed = [line.split()[1] for line in (out / "manifest").read_text().splitlines()]
        assert listed == ["c100000.circuit", "result.csv", "search_trace.csv", "spectrum.csv"]

    @pytest.mark.parametrize("thresholds, message", [
        ("25 2.5", "share a circuit file name"),
        ("2.5 25", "strictly decreasing"),
    ])
    def test_bad_thresholds_exit_2(self, tmp_path, capsys, thresholds, message):
        config_text = SMALL_SEARCH.format(thresholds=thresholds, outdir=tmp_path / "out")
        assert main(["run", str(write_config(tmp_path, config_text))]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter on this dvrvqe; the scipy modules it leaves loaded."""
    src = str(Path(dvrvqe.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    listing = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{listing}"], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestColdStart:
    def test_import_loads_no_scipy(self, tmp_path):
        assert scipy_modules_after("import dvrvqe, dvrvqe.cli", tmp_path) == []

    @pytest.mark.parametrize("task, extra", [
        ("decompose", ""),
        ("plan", "s = 4\nr = 2\n"),
        ("diag", ""),
        ("vqe", "blocks = 3\nrestarts = 2\n"),
        ("excited", "entangler = linear\nblocks = 3\nv_max = 1\nrestarts = 2\n"),
        ("search", "blocks = 2\nthresholds = 1.0 0.01\nrestarts = 3\n"),
    ], ids=["decompose", "plan", "diag", "vqe", "excited", "search"])
    def test_numpy_only_task_loads_no_scipy(self, tmp_path, task, extra):
        write_config(tmp_path, MORSE_BASE.format(task=task, extra=extra, outdir="out"))
        code = "from dvrvqe import cli\nassert cli.main(['run', 'run.ini']) == 0"
        assert scipy_modules_after(code, tmp_path) == []
        assert (tmp_path / "out" / "manifest").is_file()

    def test_matrix_free_diag_loads_no_scipy_sparse(self, tmp_path):
        """diag at 1024 points runs LOBPCG on the FFT matvec, with no scipy.sparse."""
        text = MORSE_BASE.format(task="diag", extra="levels = 8\n", outdir="out").replace("n_qubits = 4", "n_qubits = 10")
        write_config(tmp_path, text)
        code = "from dvrvqe import cli\nassert cli.main(['run', 'run.ini']) == 0"
        modules = scipy_modules_after(code, tmp_path)
        assert "scipy.fft" in modules
        assert not [m for m in modules if m.startswith("scipy.sparse")]
        assert (tmp_path / "out" / "spectrum.csv").is_file()
