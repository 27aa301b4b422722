"""Command-line runner: config-driven Hamiltonian builds, benchmarks, VQE,
ansatz searches and measurement-plan workflows.

Every artifact is written atomically (temp file + rename) and listed with
its SHA-256 in a ``manifest`` file. Re-running a config with the same seed
produces byte-identical artifacts; floats are printed at 17 significant
digits.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import linear_ansatz
from .circuits import format_circuit, load_circuit
from .config import ConfigError, RunConfig, load_config
from .constants import HARTREE_TO_INV_CM
from .hamiltonian import DvrHamiltonian, lowest_levels, truncate
from .measurement import (
    TruncationSpec,
    basis_count_bound,
    evaluate_exact,
    evaluate_sampled,
    format_plan,
    full_plan,
    load_plan,
    plan_complexity,
    plan_to_matrix,
)
from .pauli import decompose, format_pauli
from .search import SearchConfig, greedy_search
from .simulator import run as run_circuit
from .vqe import ObjectiveConfig, OptimizerConfig, energy_of, excited_states, minimize

DEFAULT_BLOCKS = 3  # ansatz repetitions k of vqe, excited and search when [task] sets no 'blocks'
# [task] key -> field, for the keys that set a library config field; a key
# the config leaves out keeps the field's own default.
_OPTIMIZER_FIELDS = {"max_iter": "max_iter", "restarts": "restarts"}
_SEARCH_FIELDS = {
    "thresholds": "thresholds", "max_entanglers": "max_entanglers", "candidate_budget": "candidate_budget",
    "max_iter": "full_budget", "restarts": "restarts_initial",
}


class _Workspace:
    """Output directory, made at the first write, with atomic writes and a hash manifest."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.written: dict[str, str] = {}

    def _replace(self, name: str, text: str) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.outdir, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self.outdir / name)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def write_text(self, name: str, text: str) -> None:
        self._replace(name, text)
        self.written[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()

    def finish(self) -> None:
        lines = [f"{digest}  {name}" for name, digest in sorted(self.written.items())]
        self._replace("manifest", "\n".join(lines) + "\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(header: str, rows) -> str:
    """``header``, then one line per row: floats at 17 significant digits, anything else by ``str``."""
    lines = [header]
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _spectrum_csv(energies) -> str:
    return _csv("v,energy_hartree,energy_cm1", ((v, e, e * HARTREE_TO_INV_CM) for v, e in enumerate(energies)))


def _result_csv(rows: list[dict]) -> str:
    return _csv(",".join(rows[0]), (row.values() for row in rows))


def _truncation_spec(config: RunConfig) -> TruncationSpec:
    streamlined = bool(config.opt("streamlined", False))
    if config.opt("s") is not None or config.opt("r") is not None:
        if config.opt("s") is None or config.opt("r") is None:
            raise ConfigError("[task] explicit truncation needs both 's' and 'r'")
        return TruncationSpec(config.opt("s"), config.opt("r"), streamlined)
    epsilon = config.opt("epsilon")
    if epsilon is None:
        raise ConfigError("[task] needs 'epsilon' or explicit 's' and 'r'")
    return TruncationSpec.from_epsilon(epsilon, config.hamiltonian.n_qubits, streamlined=streamlined)


def _task_file(config: RunConfig, kind: str, path):
    """The circuit or plan file named in [task], checked against the grid's qubit count."""
    load = load_circuit if kind == "circuit" else load_plan
    try:
        loaded = load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"[task] cannot read {kind} file {path}: {exc}") from exc
    if loaded.n_qubits != config.hamiltonian.n_qubits:
        raise ConfigError(
            f"[task] {kind} file {path} has {loaded.n_qubits} qubits, the grid {config.hamiltonian.n_qubits}"
        )
    return loaded


def _ansatz_for(config: RunConfig, h: DvrHamiltonian):
    """Resolve the [task] entangler choice into a circuit to optimize."""
    choice = config.opt("entangler", "linear")
    if choice == "linear":
        return linear_ansatz(config.hamiltonian.n_qubits, config.opt("blocks", DEFAULT_BLOCKS)).circuit()
    if choice == "search":
        search_config = _search_config(config)
        result = greedy_search(h.full, search_config)
        return result.final_ansatz.circuit()
    return _task_file(config, "circuit", choice)


def _given(config: RunConfig, fields: dict[str, str]) -> dict[str, object]:
    """The [task] keys of ``fields`` that the config sets, by field name."""
    return {field: config.options[key] for key, field in fields.items() if key in config.options}


def _optimizer_config(config: RunConfig) -> OptimizerConfig:
    return OptimizerConfig(seed=config.seed, **_given(config, _OPTIMIZER_FIELDS))


def _search_config(config: RunConfig) -> SearchConfig:
    try:
        return SearchConfig(
            n_blocks=config.opt("blocks", DEFAULT_BLOCKS), seed=config.seed, **_given(config, _SEARCH_FIELDS)
        )
    except ValueError as exc:
        raise ConfigError(f"[task] {exc}") from exc


def _task_diag(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    count = config.opt("levels", min(h.n_points, 8))
    ws.write_text("spectrum.csv", _spectrum_csv(lowest_levels(h, count)))


def _task_decompose(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    psum = decompose(h.full, **_given(config, {"tol": "tol"}))
    ws.write_text("pauli.txt", format_pauli(psum))


def _level_columns(v: int, energy: float, reference: float) -> dict:
    """The result.csv columns of level v: its energy in hartree and cm^-1,
    the classical reference and the error, both in cm^-1."""
    return {
        "v": v,
        "energy_hartree": float(energy),
        "energy_cm1": float(energy * HARTREE_TO_INV_CM),
        "reference_cm1": float(reference * HARTREE_TO_INV_CM),
        "error_cm1": float((energy - reference) * HARTREE_TO_INV_CM),
    }


def _task_vqe(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    circuit = _ansatz_for(config, h)
    reference = lowest_levels(h, 1)[0]
    result = minimize(circuit, ObjectiveConfig(h.full), _optimizer_config(config))
    ws.write_text("spectrum.csv", _spectrum_csv([reference]))
    ws.write_text("vqe_trace.csv", _csv(
        "iter,objective,energy_hartree,energy_cm1",
        ((iteration, obj, energy, energy * HARTREE_TO_INV_CM) for iteration, obj, energy in result.trace),
    ))
    ws.write_text("result.csv", _result_csv([
        {**_level_columns(0, result.energy, reference), "converged": int(result.converged)},
    ]))


def _task_excited(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    v_max = config.opt("v_max", min(2, h.n_points - 1))
    circuit = _ansatz_for(config, h)
    reference = lowest_levels(h, v_max + 1)
    results = excited_states(circuit, h.full, v_max, _optimizer_config(config))
    ws.write_text("spectrum.csv", _spectrum_csv(reference))
    ws.write_text("result.csv", _result_csv([
        {**_level_columns(v, result.energy, reference[v]), "max_overlap": float(max(result.overlaps, default=0.0))}
        for v, result in enumerate(results)
    ]))


def _circuit_names(thresholds) -> dict[float, str]:
    """``c<threshold>.circuit`` per threshold, "." dropped: c1.circuit, c001.circuit."""
    names = {t: f"c{format(t, 'g').replace('.', '')}.circuit" for t in thresholds}
    if len(set(names.values())) != len(names):
        raise ConfigError(f"[task] thresholds {' '.join(map(str, thresholds))} share a circuit file name")
    return names


def _task_search(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    search_config = _search_config(config)
    names = _circuit_names(search_config.thresholds)
    result = greedy_search(h.full, search_config)
    ws.write_text("search_trace.csv", _csv(
        "step,block,ctrl,tgt,energy_hartree,error_cm1",
        ((s.step, s.block, s.ctrl, s.tgt, s.energy, s.error_cm1) for s in result.steps),
    ))

    rows = []
    for threshold, snap in result.snapshots.items():
        row = {"threshold_cm1": float(threshold), "found": int(snap is not None)}
        if snap is not None:
            row.update({
                "entanglers": snap.ansatz.n_entanglers,
                "energy_hartree": float(snap.energy),
                "error_cm1": float((snap.energy - result.reference_energy) * HARTREE_TO_INV_CM),
            })
            ws.write_text(names[threshold], format_circuit(snap.ansatz.circuit()))
        else:
            row.update({"entanglers": -1, "energy_hartree": float("nan"), "error_cm1": float("nan")})
        rows.append(row)
    ws.write_text("result.csv", _result_csv(rows))
    ws.write_text("spectrum.csv", _spectrum_csv([result.reference_energy]))


def _task_plan(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    spec = _truncation_spec(config)
    plan = full_plan(h, spec)
    ws.write_text("plan.txt", format_plan(plan))
    comp = plan_complexity(plan)
    ws.write_text("result.csv", _result_csv([{
        "s": spec.s, "r": spec.r, "streamlined": int(spec.streamlined),
        "num_bases": comp.num_bases, "bound_num_bases": comp.bound_num_bases,
        "max_circuit_depth": comp.max_circuit_depth,
    }]))


def _task_verify_plan(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    imported = _task_file(config, "plan", config.opt("plan", config.outdir / "plan.txt"))
    spec = _truncation_spec(config)
    matrix = plan_to_matrix(imported)
    dev_plan = float(np.max(np.abs(matrix - plan_to_matrix(full_plan(h, spec)))))
    dev_truncation = float(np.max(np.abs(matrix - truncate(h, spec.s, spec.r, spec.streamlined))))
    ws.write_text("result.csv", _result_csv([{
        "max_abs_deviation_vs_rebuild": dev_plan,
        "max_abs_deviation_vs_truncation": dev_truncation,
    }]))


def _task_measure(config: RunConfig, h: DvrHamiltonian, ws: _Workspace) -> None:
    spec = _truncation_spec(config)
    shots = config.opt("shots", spec.default_shots())
    if shots > np.iinfo(np.int64).max:
        raise ConfigError(f"[task] {shots} shots per basis is above {np.iinfo(np.int64).max}, the largest a draw takes")
    plan_path = config.opt("plan")
    loaded = _task_file(config, "plan", plan_path) if plan_path else None

    circuit_path = config.opt("circuit")
    if circuit_path is None:
        raise ConfigError("[task] measure needs a 'circuit' file for the state")
    circuit = _task_file(config, "circuit", circuit_path)
    params_path = config.opt("params")
    if circuit.n_slots and params_path is None:
        raise ConfigError("[task] measure needs a 'params' file for the circuit's slots")
    params = None
    if params_path is not None:
        try:
            params = np.array([float(value) for value in Path(params_path).read_text().split()])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"[task] cannot read params file {params_path}: {exc}") from exc
        if params.size != circuit.n_slots:
            raise ConfigError(
                f"[task] params file {params_path} has {params.size} values, the circuit {circuit.n_slots} slots"
            )
        if not np.all(np.isfinite(params)):
            raise ConfigError(f"[task] params file {params_path} holds a value that is not finite")

    plan = full_plan(h, spec) if loaded is None else loaded
    state = run_circuit(circuit, params)
    exact = evaluate_exact(plan, state)
    sampled = evaluate_sampled(plan, state, shots, config.seed)
    bound = basis_count_bound(h, spec)
    ws.write_text("result.csv", _csv("quantity,value", [
        ("tau_exact", exact),
        ("tau_sampled", sampled.estimate),
        ("std_error", sampled.std_error),
        ("energy_dense", energy_of(state, h.full)),
        ("shots_per_basis", shots),
        ("num_bases", plan.num_bases),
        ("bound_num_bases", bound),
        ("bases_within_bound", int(plan.num_bases <= bound)),
    ]))
    rows = zip(sampled.basis_estimates.tolist(), sampled.basis_std_errors.tolist())
    ws.write_text("measure_bases.csv", _csv(
        "basis,shots,estimate,std_error",
        ((index, shots, estimate, std_error) for index, (estimate, std_error) in enumerate(rows)),
    ))


_TASK_RUNNERS = {
    "diag": _task_diag,
    "decompose": _task_decompose,
    "vqe": _task_vqe,
    "excited": _task_excited,
    "search": _task_search,
    "plan": _task_plan,
    "verify-plan": _task_verify_plan,
    "measure": _task_measure,
}


def run_config(config: RunConfig) -> Path:
    ws = _Workspace(config.outdir)
    _TASK_RUNNERS[config.task](config, config.hamiltonian, ws)
    ws.finish()
    return ws.outdir / "manifest"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="dvrvqe",
        description="DVR Hamiltonians, simulated VQE, and measurement plans for 1D vibrational problems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the task named in the config file")
    run_parser.add_argument("config")
    for task in _TASK_RUNNERS:
        task_parser = sub.add_parser(task, help=f"run the {task} task on a config")
        task_parser.add_argument("config")
        task_parser.add_argument("--out", default=None, help="output directory override")
        task_parser.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    task_override = None if args.command == "run" else args.command
    seed_override = getattr(args, "seed", None)
    outdir_override = getattr(args, "out", None)

    try:
        config = load_config(args.config, task_override, seed_override, outdir_override)
        manifest = run_config(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numeric or I/O failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {manifest.parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
