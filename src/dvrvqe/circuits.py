"""Gate and circuit containers plus the on-disk circuit text format.

Gate set is {RY, CNOT, H, X}. Qubit 0 is the most significant bit of the
basis-state index (number encoding). RY gates reference a parameter slot;
slots may be shared between gates.

Text format, one gate per line after a header::

    qubits <n> slots <m>
    ry <qubit> <slot>
    cnot <ctrl> <tgt>
    h <qubit>
    x <qubit>
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Gate:
    kind: str                 # 'ry' | 'cnot' | 'h' | 'x'
    qubit: int
    other: int = -1           # CNOT target, or RY slot index

    def __post_init__(self):
        if self.kind not in ("ry", "cnot", "h", "x"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cnot" and self.other == self.qubit:
            raise ValueError(f"cnot control and target must differ, got {self.qubit}")


def ry(qubit: int, slot: int) -> Gate:
    return Gate("ry", qubit, slot)


def cnot(ctrl: int, tgt: int) -> Gate:
    return Gate("cnot", ctrl, tgt)


def hadamard(qubit: int) -> Gate:
    return Gate("h", qubit)


def pauli_x(qubit: int) -> Gate:
    return Gate("x", qubit)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    n_slots: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.n_qubits < 1:
            raise ValueError(f"a circuit needs at least one qubit, got {self.n_qubits}")
        if self.n_slots < 0:
            raise ValueError(f"a circuit needs a slot count >= 0, got {self.n_slots}")
        for g in self.gates:
            if not 0 <= g.qubit < self.n_qubits:
                raise ValueError(f"gate {g} addresses qubit outside 0..{self.n_qubits - 1}")
            if g.kind == "cnot":
                if not 0 <= g.other < self.n_qubits:
                    raise ValueError(f"cnot target {g.other} outside 0..{self.n_qubits - 1}")
            elif g.kind == "ry":
                if not 0 <= g.other < self.n_slots:
                    raise ValueError(f"ry slot {g.other} outside 0..{self.n_slots - 1}")

    def inverse(self) -> "Circuit":
        """Reversed gate order; valid for parameter-free circuits (H, X, CNOT
        are self-inverse)."""
        if any(g.kind == "ry" for g in self.gates):
            raise ValueError("cannot invert a circuit containing ry gates")
        return Circuit(self.n_qubits, tuple(reversed(self.gates)), 0)


def format_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.n_qubits} slots {circuit.n_slots}"]
    for g in circuit.gates:
        if g.kind == "ry":
            lines.append(f"ry {g.qubit} {g.other}")
        elif g.kind == "cnot":
            lines.append(f"cnot {g.qubit} {g.other}")
        else:
            lines.append(f"{g.kind} {g.qubit}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty circuit text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "qubits" or head[2] != "slots":
        raise ValueError(f"bad circuit header {lines[0]!r}; expected 'qubits <n> slots <m>'")
    n_qubits, n_slots = int(head[1]), int(head[3])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        if kind in ("ry", "cnot"):
            if len(parts) != 3:
                raise ValueError(f"bad gate line {ln!r}")
            gates.append(Gate(kind, int(parts[1]), int(parts[2])))
        elif kind in ("h", "x"):
            if len(parts) != 2:
                raise ValueError(f"bad gate line {ln!r}")
            gates.append(Gate(kind, int(parts[1])))
        else:
            raise ValueError(f"unknown gate {kind!r} in line {ln!r}")
    return Circuit(n_qubits, tuple(gates), n_slots)


def save_circuit(path, circuit: Circuit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_circuit(circuit))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())
