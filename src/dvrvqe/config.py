"""Run configuration: an INI file with [system], [potential], [task], [output].

Unknown sections or keys are hard errors so that a typo cannot silently
change a run. The exact schema is documented in the README; every task
draws its randomness from the single [task] seed key. The grid and V are
built here, so a grid or a V that is not finite is a config error.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .constants import amu_to_me
from .grids import build_grid
from .hamiltonian import DvrHamiltonian, assemble
from .potentials import HarmonicPotential, MorsePotential, load_tabulated

TASKS = ("diag", "decompose", "vqe", "excited", "search", "plan", "verify-plan", "measure")

# Largest n_qubits per task. Every task but diag and plan builds the dense
# 2^n x 2^n H or a 4^n Pauli array. diag runs LOBPCG on the matrix-free H
# from 1024 points up, and plan reads only the band profile and V.
DENSE_MAX_QUBITS = 14
MAX_QUBITS = {"diag": 17, "plan": 16}
# Above DENSE_MAX_QUBITS, diag takes at most 2^20 / 2^n levels: the LOBPCG
# block of about 1.5 levels vectors then stays under about 0.5 GB.
MATRIX_FREE_LEVEL_POINTS = 2**20


class ConfigError(Exception):
    """Malformed configuration; message carries section/key diagnostics."""


_SYSTEM_KEYS = {"variant", "n_qubits", "mass_amu", "mass_me", "a", "b", "x_min", "dx"}
_POTENTIAL_KEYS = {"type", "well_depth", "range", "equilibrium", "force_constant", "center", "file"}
# [task] option key -> (type, smallest accepted value); None where the range
# depends on the grid or is checked on its own. 'name' and 'seed' are read apart.
_TASK_KEYS = {
    "levels": (int, None), "tol": (float, 0), "blocks": (int, 1), "entangler": (str, None),
    "v_max": (int, None), "thresholds": (str, None), "max_entanglers": (int, 0),
    "candidate_budget": (int, 1), "restarts": (int, 1), "max_iter": (int, 1), "epsilon": (float, None),
    "s": (int, 1), "r": (int, 1), "streamlined": (bool, None), "shots": (int, 1), "plan": (str, None),
    "circuit": (str, None), "params": (str, None),
}
_OUTPUT_KEYS = {"directory"}


@dataclass
class RunConfig:
    hamiltonian: DvrHamiltonian  # H = T + V on the grid, V evaluated at every point
    task: str
    seed: int
    outdir: Path
    options: dict[str, object] = field(default_factory=dict)

    def opt(self, key, default=None):
        return self.options.get(key, default)


def _check_keys(section: str, present, allowed) -> None:
    unknown = sorted(set(present) - allowed)
    if unknown:
        raise ConfigError(f"[{section}] has unknown key(s): {', '.join(unknown)}")


def _get(parser, section, key, cast, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key '{key}'")
        return default
    raw = parser.get(section, key)
    try:
        value = parser.getboolean(section, key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] key '{key}' must be a finite number, got {raw!r}")
    return value


def load_config(path, task_override: str | None = None, seed_override: int | None = None,
                outdir_override=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    known_sections = {"system", "potential", "task", "output"}
    unknown = sorted(set(parser.sections()) - known_sections)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(unknown)}")
    for required_section in ("system", "task"):
        if not parser.has_section(required_section):
            raise ConfigError(f"missing required section [{required_section}]")

    _check_keys("task", parser.options("task"), {"name", "seed", *_TASK_KEYS})
    task = task_override or _get(parser, "task", "name", str, required=True)
    if task not in TASKS:
        raise ConfigError(f"[task] unknown task {task!r}; expected one of {', '.join(TASKS)}")
    _check_keys("system", parser.options("system"), _SYSTEM_KEYS)
    variant = _get(parser, "system", "variant", str, required=True)
    n_qubits = _get(parser, "system", "n_qubits", int, required=True)
    max_qubits = MAX_QUBITS.get(task, DENSE_MAX_QUBITS)
    if n_qubits > max_qubits:
        raise ConfigError(f"[system] n_qubits={n_qubits} is above {max_qubits}, the limit of the {task!r} task")
    mass_amu = _get(parser, "system", "mass_amu", float)
    mass_me = _get(parser, "system", "mass_me", float)
    if (mass_amu is None) == (mass_me is None):
        raise ConfigError("[system] needs exactly one of 'mass_amu' or 'mass_me'")
    mass = amu_to_me(mass_amu) if mass_amu is not None else mass_me
    params = {}
    for key in ("a", "b", "x_min", "dx"):
        value = _get(parser, "system", key, float)
        if value is not None:
            params[key] = value
    try:
        grid = build_grid(variant, params, n_qubits, mass)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"[system]: {exc}") from exc

    potential = None
    if parser.has_section("potential"):
        _check_keys("potential", parser.options("potential"), _POTENTIAL_KEYS)
        ptype = _get(parser, "potential", "type", str, required=True)
        if ptype == "morse":
            potential = MorsePotential(
                _get(parser, "potential", "well_depth", float, required=True),
                _get(parser, "potential", "range", float, required=True),
                _get(parser, "potential", "equilibrium", float, required=True),
            )
        elif ptype == "harmonic":
            potential = HarmonicPotential(
                _get(parser, "potential", "force_constant", float, required=True),
                _get(parser, "potential", "center", float, default=0.0),
            )
        elif ptype == "tabulated":
            file_path = path.parent / _get(parser, "potential", "file", str, required=True)
            if not file_path.is_file():
                raise ConfigError(f"[potential] file not found: {file_path}")
            try:
                potential = load_tabulated(file_path)
            except ValueError as exc:
                raise ConfigError(f"[potential] {exc}") from exc
        elif ptype == "none":
            potential = None
        else:
            raise ConfigError(f"[potential] unknown type {ptype!r}")
    try:
        hamiltonian = assemble(grid, potential)
    except ValueError as exc:
        raise ConfigError(f"[potential] {exc}") from exc

    seed = seed_override if seed_override is not None else _get(parser, "task", "seed", int, default=0)
    if seed < 0:
        source = "--seed" if seed_override is not None else "[task] key 'seed'"
        raise ConfigError(f"{source} must be >= 0, got {seed}")

    options: dict[str, object] = {}
    for key, (cast, minimum) in _TASK_KEYS.items():
        value = _get(parser, "task", key, cast)
        if value is None:
            continue
        if minimum is not None and value < minimum:
            raise ConfigError(f"[task] key '{key}' must be >= {minimum}, got {value}")
        options[key] = value
    levels = options.get("levels")
    max_levels = grid.n_points
    if n_qubits > DENSE_MAX_QUBITS:
        max_levels = MATRIX_FREE_LEVEL_POINTS // grid.n_points
    if levels is not None and not 1 <= levels <= max_levels:
        raise ConfigError(f"[task] key 'levels' must be in [1, {max_levels}], got {levels}")
    r = options.get("r")
    if r is not None and r > grid.n_points:
        raise ConfigError(f"[task] key 'r' must be in [1, {grid.n_points}], got {r}")
    if options.get("epsilon", 1.0) <= 0:
        raise ConfigError(f"[task] key 'epsilon' must be > 0, got {options['epsilon']}")
    v_max = options.get("v_max")
    if v_max is not None and not 0 <= v_max <= grid.n_points - 1:
        raise ConfigError(f"[task] key 'v_max' must be in [0, {grid.n_points - 1}], got {v_max}")
    thresholds = options.get("thresholds")
    if thresholds is not None:
        try:
            options["thresholds"] = tuple(float(t) for t in thresholds.split())
        except ValueError as exc:
            raise ConfigError(f"[task] key 'thresholds': cannot parse {thresholds!r}") from exc
        if not all(math.isfinite(t) for t in options["thresholds"]):
            raise ConfigError(f"[task] key 'thresholds' must be finite numbers, got {thresholds!r}")
    # File names resolve against the config's directory; an absolute name stays as it is.
    for key in ("plan", "circuit", "params"):
        if key in options:
            options[key] = path.parent / options[key]
    # entangler is either a keyword or a circuit file, resolved like the others
    if options.get("entangler") not in (None, "linear", "search"):
        options["entangler"] = path.parent / options["entangler"]

    directory = "out"
    if parser.has_section("output"):
        _check_keys("output", parser.options("output"), _OUTPUT_KEYS)
        directory = _get(parser, "output", "directory", str, default="out")
    outdir = Path(outdir_override) if outdir_override is not None else path.parent / directory

    return RunConfig(hamiltonian, task, seed, outdir, options)
