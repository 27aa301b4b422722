"""Pauli-word decomposition of real symmetric matrices.

Words are strings over {I, X, Y, Z} with qubit 0 leftmost (most
significant index bit). Coefficients are A_w = 2^-n Tr[P_w H]; for real
symmetric H only words with an even number of Y letters survive, and all
coefficients are real.

``decompose`` evaluates all 4^n traces at once with the tensorized
transform (Hantzko, Binkowski & Gupta 2023; Jones 2024): the row and
column bits of H are interleaved into one base-4 digit per qubit, and a
4x4 map per qubit turns the entries (r, c) of that qubit into its
I, X, iY, Z components, O(n 4^n) in all. ``reconstruct`` runs the same
transform backwards. ``decompose`` takes a dense Hamiltonian matrix, in
the sense of the hamiltonian module, of size 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import _symmetric_matrix

DEFAULT_TOL = 1e-12

_LETTERS = "IXYZ"
_LETTER_CODES = np.frombuffer(_LETTERS.encode("ascii"), dtype=np.uint8)  # sorted
_DROP_LETTERS = str.maketrans("", "", _LETTERS)

# Row P, column 2r + c: the factor P[c, r] of Tr[P H] = sum_{r,c} P[c, r] H[r, c],
# with iY = [[0, 1], [-1, 0]] in place of Y so that the map stays real. The
# 1/2 per qubit makes the 2^-n of A_w.
_TRACE_MAP = 0.5 * np.array([
    [1.0, 0.0, 0.0, 1.0],    # I
    [0.0, 1.0, 1.0, 0.0],    # X
    [0.0, -1.0, 1.0, 0.0],   # iY
    [1.0, 0.0, 0.0, -1.0],   # Z
])
_IS_Y = np.array([0, 0, 1, 0], dtype=np.int8)
# _TRACE_MAP is 1/2 times a matrix with orthogonal rows of squared norm 2.
_INVERSE_TRACE_MAP = 2.0 * _TRACE_MAP.T


@dataclass(frozen=True)
class PauliSum:
    """Sparse real-coefficient expansion sum_w A_w P_w."""

    n_qubits: int
    terms: dict[str, float]

    def __post_init__(self):
        for word in self.terms:
            if len(word) != self.n_qubits:
                raise ValueError(f"word {word!r} has wrong length for n={self.n_qubits}")
        if "".join(self.terms).translate(_DROP_LETTERS):
            word = next(word for word in self.terms if word.translate(_DROP_LETTERS))
            raise ValueError(f"word {word!r} has letters outside {_LETTERS}")

    def __len__(self) -> int:
        return len(self.terms)

    def items(self):
        return sorted(self.terms.items())


def decompose(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> PauliSum:
    """Expand a real symmetric 2^n x 2^n matrix in Pauli words.

    Terms with |A_w| <= tol are dropped. Words containing an odd number
    of Y letters have exactly zero coefficient for symmetric input and
    are dropped whatever ``tol`` is.
    """
    matrix = _symmetric_matrix(matrix)
    dim = len(matrix)
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"expected a square 2^n x 2^n matrix, got shape {matrix.shape}")
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    n = dim.bit_length() - 1

    # Axes r_0..r_{n-1}, c_0..c_{n-1} (qubit 0 most significant), reordered
    # to r_0, c_0, r_1, c_1, ... so that each qubit owns one digit 2r + c.
    coeffs = matrix.reshape((2,) * (2 * n)).transpose(_interleaved_axes(n)).reshape(-1)
    coeffs = _per_qubit(_TRACE_MAP, coeffs, n)

    # Base-4 digit q of a flat index is the letter of qubit q. With
    # Y = -i (iY), a word with y letters Y has Tr[P H] = (-i)^y Tr[P' H]:
    # of sign (-1)^(y/2) for even y, and zero for odd y and symmetric H.
    y_count = _y_counts(n)
    coeffs = np.where(y_count % 4 == 2, -coeffs, coeffs)
    kept = np.flatnonzero((y_count % 2 == 0) & (np.abs(coeffs) > tol))
    terms = {
        "".join(_LETTERS[(i >> (2 * (n - 1 - q))) & 3] for q in range(n)): float(coeffs[i])
        for i in kept.tolist()
    }
    return PauliSum(n, terms)


def reconstruct(psum: PauliSum) -> np.ndarray:
    """Real part of the dense matrix sum_w A_w P_w; words with an odd
    number of Y letters are imaginary and add nothing.

    The inverse of ``decompose``: the coefficients are scattered into the
    4^n word array with the sign (-1)^(y/2), each qubit's digit is mapped
    back to its entries (r, c), and the row and column bits are
    de-interleaved, O(n 4^n) in all.
    """
    n = psum.n_qubits
    coeffs = np.zeros(4**n)
    if psum.terms:
        codes = np.frombuffer("".join(psum.terms).encode("ascii"), dtype=np.uint8)
        digits = np.searchsorted(_LETTER_CODES, codes).reshape(len(psum.terms), n)
        coeffs[digits @ 4 ** np.arange(n - 1, -1, -1)] = np.fromiter(psum.terms.values(), float, len(psum.terms))
    y_count = _y_counts(n)
    coeffs = np.where(y_count % 2 == 1, 0.0, np.where(y_count % 4 == 2, -coeffs, coeffs))
    coeffs = _per_qubit(_INVERSE_TRACE_MAP, coeffs, n)
    axes = np.argsort(_interleaved_axes(n))
    return coeffs.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def _interleaved_axes(n: int) -> list[int]:
    """Row axes 0..n-1 and column axes n..2n-1 in the order r_0, c_0, r_1, c_1, ..."""
    return [axis for q in range(n) for axis in (q, n + q)]


def _per_qubit(qubit_map: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Apply a 4x4 map to each base-4 digit of the flat index in turn."""
    for q in range(n):
        coeffs = (qubit_map @ coeffs.reshape(4**q, 4, 4 ** (n - 1 - q))).reshape(-1)
    return coeffs


def _y_counts(n: int) -> np.ndarray:
    """Number of Y letters of every word, indexed like the 4^n word array."""
    y_count = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        y_count = np.add.outer(y_count, _IS_Y).reshape(-1)
    return y_count


def term_count(psum: PauliSum) -> int:
    return len(psum)


def format_pauli(psum: PauliSum) -> str:
    """One `<word> <coefficient>` line per stored term, full precision."""
    return "".join(f"{word} {coeff:.17e}\n" for word, coeff in psum.items())


def load_pauli(path) -> PauliSum:
    terms: dict[str, float] = {}
    n = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<word> <coefficient>'")
            word, coeff = parts[0], float(parts[1])
            if n is None:
                n = len(word)
            if word in terms:
                raise ValueError(f"{path}:{lineno}: word {word} repeats an earlier line")
            terms[word] = coeff
    if n is None:
        raise ValueError(f"{path}: no terms found")
    return PauliSum(n, terms)
