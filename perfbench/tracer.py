"""Span tracer that instruments dvrvqe from outside the package.

``Tracer.install`` rebinds each traced function in every ``dvrvqe.*`` module
namespace that holds the same object (modules import by name, so
``vqe.run``, ``cli.run_circuit`` and ``simulator.run`` are one function
under three names) and patches the traced methods on their classes.
``uninstall`` restores the originals, so untraced passes run the package
exactly as shipped.

Spans live in memory as ``[name, start, end, parent, request, info]`` rows;
a span without a parent starts a new request. Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, REQUEST, INFO = range(6)
STATE_BYTES = 16  # complex128 amplitude


def _gates(args, result):
    circuit = args[0]
    gates = len(circuit.gates)
    # Each gate reads and writes the whole state vector once.
    return {"gates": gates, "bytes": gates * 2 * STATE_BYTES * (2 ** circuit.n_qubits)}


def _slots(args, result):
    return {"slots": args[1].n_slots}


def _terms(args, result):
    return {"terms": len(result)}


def _written(args, result):
    return {"bytes": len(args[2].encode("utf-8"))}


def _commits(args, result):
    return {"commits": result.final_ansatz.n_entanglers}


def _plan_shape(args, result):
    circuits = {tuple(b.circuit.gates) for b in result.bases}
    circuits.add(())  # the diagonal is read in the plain Z basis
    return {"bases": result.num_bases, "distinct": len(circuits)}


def _restart(args, result):
    return {"converged": int(result[0].converged)}


# (module, attribute, info) for functions; info(args, result) -> dict or None.
FUNCTIONS = (
    ("simulator", "run", None),
    ("simulator", "apply_circuit", _gates),
    ("simulator", "sample_counts", None),
    ("vqe", "minimize", None),
    ("vqe", "objective", None),
    ("vqe", "gradient", _slots),
    ("search", "greedy_search", _commits),
    ("search", "candidate_evaluation", None),
    ("measurement", "evaluate_exact", None),
    ("measurement", "evaluate_sampled", None),
    ("measurement", "plan_to_matrix", None),
    ("measurement", "full_plan", _plan_shape),
    ("measurement", "load_plan", None),
    ("grids", "band_profile", None),
    ("hamiltonian", "assemble", None),
    ("hamiltonian", "classical_spectrum", None),
    ("pauli", "decompose", _terms),
    ("config", "load_config", None),
)
# (module, class, method, span name, info)
METHODS = (
    ("ansatz", "AnsatzSpec", "circuit", "ansatz.circuit", None),
    ("cli", "_Workspace", "write_text", "cli.write_text", _written),
)
# Counted without a span: one optimizer restart inside vqe.minimize. A span
# here would move the optimizer's own time out of vqe.minimize.self_s.
COUNTERS = (("vqe", "_single_run", "vqe.restart", _restart),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._next_request = 0
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            request = self._next_request
            self._next_request += 1
        else:
            request = self.spans[parent][REQUEST]
        self.spans.append([name, time.perf_counter(), 0.0, parent, request, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _span_wrapper(self, name, fn, info):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index][INFO] = info(args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn, info):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self.counts[name]
            counts["calls"] += 1
            for key, value in info(args, result).items():
                counts[key] += value
            return result

        return counted

    def _rebind_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "dvrvqe" or module_name.startswith("dvrvqe.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, info in FUNCTIONS:
            module = sys.modules[f"dvrvqe.{module_name}"]
            original = getattr(module, attr)
            self._rebind_everywhere(original, self._span_wrapper(f"{module_name}.{attr}", original, info))
        for module_name, cls_name, method, name, info in METHODS:
            cls = getattr(sys.modules[f"dvrvqe.{module_name}"], cls_name)
            original = vars(cls)[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._span_wrapper(name, original, info))
        for module_name, attr, name, info in COUNTERS:
            module = sys.modules[f"dvrvqe.{module_name}"]
            original = getattr(module, attr)
            self._rebind_everywhere(original, self._count_wrapper(name, original, info))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def nearest(self, index: int, name: str) -> int:
        """Index of the closest ancestor called ``name``, or -1."""
        parent = self.spans[index][PARENT]
        while parent >= 0 and self.spans[parent][NAME] != name:
            parent = self.spans[parent][PARENT]
        return parent

    def descendants_per(self, ancestor: str, child: str) -> dict[int, int]:
        """For each ``ancestor`` span, how many ``child`` spans it encloses."""
        counts = {i: 0 for i, span in enumerate(self.spans) if span[NAME] == ancestor}
        for i, span in enumerate(self.spans):
            if span[NAME] == child:
                owner = self.nearest(i, ancestor)
                if owner >= 0:
                    counts[owner] += 1
        return counts

    def write_csv(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,self_s,parent,request\n")
            origin = self.spans[0][START] if self.spans else 0.0
            for i, span in enumerate(self.spans):
                fh.write(
                    f"{i},{span[NAME]},{span[START] - origin:.9f},{span[END] - origin:.9f},"
                    f"{own[i]:.9f},{span[PARENT]},{span[REQUEST]}\n"
                )


# Spans whose self time and call count are reported as per-layer metrics.
SELF_TIMED = (
    "simulator.run", "simulator.apply_circuit", "simulator.sample_counts",
    "vqe.minimize", "vqe.objective", "vqe.gradient",
    "search.candidate_evaluation", "ansatz.circuit",
    "measurement.evaluate_exact", "measurement.evaluate_sampled",
    "measurement.plan_to_matrix", "measurement.full_plan", "measurement.load_plan",
    "grids.band_profile", "hamiltonian.assemble", "hamiltonian.classical_spectrum",
    "pauli.decompose", "config.load_config",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def work_counts(tracer: Tracer) -> dict[str, float]:
    """Every count of one traced pass; a fixed seed must reproduce them exactly."""
    counts: dict[str, float] = defaultdict(int)
    for span in tracer.spans:
        counts[f"{span[NAME]}.calls"] += 1
        for key, value in (span[INFO] or {}).items():
            counts[f"{span[NAME]}.{key}"] += value
    for name, values in tracer.counts.items():
        for key, value in values.items():
            counts[f"{name}.{key}"] += value
    return dict(counts)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, keyed by metric name.

    Layers that do not run in a workload report 0.
    """
    counts = defaultdict(int, work_counts(tracer))
    own = tracer.self_times()
    self_s: dict[str, float] = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        self_s[span[NAME]] += own[i]

    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = counts[f"{name}.calls"]
    sims_in_gradients = sum(tracer.descendants_per("vqe.gradient", "simulator.run").values())
    sims_in_minimize = sum(tracer.descendants_per("vqe.minimize", "simulator.run").values())
    circuits_in_exact = sum(
        tracer.descendants_per("measurement.evaluate_exact", "simulator.apply_circuit").values()
    )
    plan_calls = counts["measurement.full_plan.calls"]
    out.update({
        "simulator.gates_applied": counts["simulator.apply_circuit.gates"],
        "simulator.bytes_moved_computed": counts["simulator.apply_circuit.bytes"],
        "vqe.sims_per_gradient": _ratio(sims_in_gradients, counts["vqe.gradient.calls"]),
        "vqe.sims_per_minimize": _ratio(sims_in_minimize, counts["vqe.minimize.calls"]),
        "vqe.converged_frac": _ratio(counts["vqe.restart.converged"], counts["vqe.restart.calls"]),
        "search.commit_frac": _ratio(
            counts["search.greedy_search.commits"], counts["search.candidate_evaluation.calls"]
        ),
        "measurement.circuits_per_eval": _ratio(circuits_in_exact, counts["measurement.evaluate_exact.calls"]),
        "measurement.plan.bases": _ratio(counts["measurement.full_plan.bases"], plan_calls),
        "measurement.plan.distinct_circuits": _ratio(counts["measurement.full_plan.distinct"], plan_calls),
        "pauli.decompose.terms": counts["pauli.decompose.terms"],
        "cli.write_bytes": counts["cli.write_text.bytes"],
        "cli.write_s": self_s["cli.write_text"],
    })
    return out


def gradient_selfcheck(tracer: Tracer) -> tuple[int, int]:
    """(gradient spans with exactly 2 x n_slots simulator.run descendants, all gradient spans).

    True of the parameter-shift gradient; a gradient method with another
    simulation count reports it here without failing the run.
    """
    per_span = tracer.descendants_per("vqe.gradient", "simulator.run")
    good = sum(1 for i, sims in per_span.items() if sims == 2 * tracer.spans[i][INFO]["slots"])
    return good, len(per_span)


UNITS = {
    "simulator.gates_applied": "count",
    "simulator.bytes_moved_computed": "B",
    "vqe.sims_per_gradient": "sims/gradient",
    "vqe.sims_per_minimize": "sims/minimize",
    "measurement.circuits_per_eval": "circuits/eval",
    "measurement.plan.bases": "count",
    "measurement.plan.distinct_circuits": "count",
    "pauli.decompose.terms": "count",
    "cli.write_bytes": "B",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    return "count"
