"""Hardware-efficient RY/CNOT ansatz layouts.

An ansatz is k repeated blocks of [RY layer on every qubit, entangler
CNOT list] followed by one final RY layer, so the parameter count is
n * (k + 1). Entangler lists may be empty; the "linear" layout chains
CNOT(q, q+1) down the register.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, cnot, ry


@dataclass(frozen=True)
class AnsatzSpec:
    n_qubits: int
    n_blocks: int
    entanglers: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError(f"need at least one block, got {self.n_blocks}")
        if len(self.entanglers) != self.n_blocks:
            raise ValueError(
                f"expected {self.n_blocks} entangler lists, got {len(self.entanglers)}"
            )
        object.__setattr__(
            self, "entanglers", tuple(tuple(tuple(pair) for pair in block) for block in self.entanglers)
        )
        for block in self.entanglers:
            for q, p in block:
                if q == p or not (0 <= q < self.n_qubits and 0 <= p < self.n_qubits):
                    raise ValueError(f"bad entangler pair ({q}, {p})")

    @property
    def n_params(self) -> int:
        return self.n_qubits * (self.n_blocks + 1)

    @property
    def n_entanglers(self) -> int:
        return sum(len(block) for block in self.entanglers)

    def with_entangler(self, block: int, ctrl: int, tgt: int) -> "AnsatzSpec":
        blocks = [list(b) for b in self.entanglers]
        blocks[block].append((ctrl, tgt))
        return AnsatzSpec(self.n_qubits, self.n_blocks, tuple(tuple(b) for b in blocks))

    def circuit(self) -> Circuit:
        gates, n = [], self.n_qubits
        for k, block in enumerate((*self.entanglers, ())):  # the final RY layer has no entanglers
            gates += [ry(q, k * n + q) for q in range(n)]
            gates += [cnot(ctrl, tgt) for ctrl, tgt in block]
        return Circuit(n, tuple(gates), self.n_params)


def empty_ansatz(n_qubits: int, n_blocks: int) -> AnsatzSpec:
    return AnsatzSpec(n_qubits, n_blocks, tuple(() for _ in range(n_blocks)))


def linear_ansatz(n_qubits: int, n_blocks: int) -> AnsatzSpec:
    chain = tuple((q, q + 1) for q in range(n_qubits - 1))
    return AnsatzSpec(n_qubits, n_blocks, tuple(chain for _ in range(n_blocks)))
