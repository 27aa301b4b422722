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

_ARITY = {"ry": 2, "cnot": 2, "h": 1, "x": 1}  # integer arguments of a gate line


@dataclass(frozen=True)
class Gate:
    kind: str                 # 'ry' | 'cnot' | 'h' | 'x'
    qubit: int
    other: int = -1           # CNOT target, or RY slot index

    def __post_init__(self):
        if self.kind not in _ARITY:
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
            if g.kind == "cnot" and not 0 <= g.other < self.n_qubits:
                raise ValueError(f"cnot target {g.other} outside 0..{self.n_qubits - 1}")
            if g.kind == "ry" and not 0 <= g.other < self.n_slots:
                raise ValueError(f"ry slot {g.other} outside 0..{self.n_slots - 1}")


def format_circuit(circuit: Circuit) -> str:
    gates = (" ".join(map(str, (g.kind, g.qubit, g.other)[: 1 + _ARITY[g.kind]])) for g in circuit.gates)
    return "\n".join([f"qubits {circuit.n_qubits} slots {circuit.n_slots}", *gates]) + "\n"


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
        kind, *args = ln.split()
        if kind not in _ARITY:
            raise ValueError(f"unknown gate {kind!r} in line {ln!r}")
        if len(args) != _ARITY[kind]:
            raise ValueError(f"bad gate line {ln!r}")
        gates.append(Gate(kind, *map(int, args)))
    return Circuit(n_qubits, tuple(gates), n_slots)


def save_circuit(path, circuit: Circuit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_circuit(circuit))


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())
