import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dvrvqe import assemble, build_grid, pauli
from dvrvqe.constants import AMU_TO_ELECTRON_MASS
from dvrvqe.pauli import (
    DEFAULT_TOL,
    PauliSum,
    decompose,
    format_pauli,
    load_pauli,
    reconstruct,
    term_count,
)
from dvrvqe.potentials import MorsePotential
from dvrvqe.vqe import energy_of

from conftest import random_state

PAULI_1Q = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def dense_decompose(matrix):
    """Literal tensor-product trace oracle: Tr[(P_0 x ... x P_{n-1}) H] / 2^n per word."""
    n = matrix.shape[0].bit_length() - 1

    def words(prefix, word_matrix):
        if len(prefix) == n:
            yield prefix, word_matrix
            return
        for letter in "IXYZ":
            yield from words(prefix + letter, np.kron(word_matrix, PAULI_1Q[letter]))

    coeffs = {}
    for word, word_matrix in words("", np.array([[1.0]])):
        coeff = np.sum(word_matrix.T * matrix) / 2**n  # Tr[P H] without the matrix product
        if abs(coeff) > 1e-12:
            coeffs[word] = coeff
    return coeffs


def decompose_by_words(matrix, tol=DEFAULT_TOL):
    """Terms of decompose's transform, named one word at a time by a
    ``"".join`` per kept index, the naming ``decompose`` does in bulk."""
    n = len(matrix).bit_length() - 1
    coeffs = matrix.reshape((2,) * (2 * n)).transpose(pauli._interleaved_axes(n)).reshape(-1)
    coeffs = pauli._per_qubit(pauli._TRACE_MAP, coeffs, n)
    y_count = pauli._y_counts(n)
    coeffs = np.where(y_count % 4 == 2, -coeffs, coeffs)
    kept = np.flatnonzero((y_count % 2 == 0) & (np.abs(coeffs) > tol))
    return {
        "".join("IXYZ"[(i >> (2 * (n - 1 - q))) & 3] for q in range(n)): float(coeffs[i])
        for i in kept.tolist()
    }


def assert_same_terms(terms, oracle):
    """The same words with the same float bits, in the same insertion order."""
    assert [(word, np.float64(c).tobytes()) for word, c in terms.items()] == [
        (word, np.float64(c).tobytes()) for word, c in oracle.items()
    ]


def word_action(word):
    """(flip, phases) with P|j> = phases[j] |j ^ flip>; phases real for even-Y words."""
    n = len(word)
    j = np.arange(2**n)
    flip = 0
    phases = np.ones(2**n, dtype=complex)
    for q, letter in enumerate(word):
        bit = (j >> (n - 1 - q)) & 1
        if letter in "XY":
            flip |= 1 << (n - 1 - q)
        if letter == "Z":
            phases = phases * np.where(bit, -1.0, 1.0)
        elif letter == "Y":  # Y|0> = i|1>, Y|1> = -i|0>
            phases = phases * np.where(bit, -1j, 1j)
    return flip, phases


def reconstruct_by_words(psum):
    """Per-word oracle: adds each word's one entry per column, the real part of its phase."""
    dim = 2 ** psum.n_qubits
    out = np.zeros((dim, dim))
    j = np.arange(dim)
    for word, coeff in psum.items():
        flip, phases = word_action(word)
        out[j ^ flip, j] += coeff * phases.real
    return out


@st.composite
def pauli_sums(draw, max_qubits=7):
    """Random words (odd-Y ones included) with coefficients spread over six decades."""
    n = draw(st.integers(1, max_qubits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, min(4**n, 300)))
    codes = np.unique(rng.integers(0, 4**n, size))
    words = ["".join("IXYZ"[(code >> (2 * (n - 1 - q))) & 3] for q in range(n)) for code in codes.tolist()]
    coeffs = rng.uniform(-1.0, 1.0, len(words)) * 10.0 ** rng.uniform(-3.0, 3.0, len(words))
    return PauliSum(n, dict(zip(words, coeffs.tolist())))


def random_symmetric(rng, n):
    a = rng.standard_normal((2**n, 2**n))
    return a + a.T


def test_identity_single_qubit():
    assert dict(decompose(np.eye(2)).items()) == {"I": 1.0}


def test_two_by_two_formula():
    a, b, d = 1.3, -0.4, 0.5
    terms = dict(decompose(np.array([[a, b], [b, d]])).items())
    assert terms["I"] == pytest.approx((a + d) / 2)
    assert terms["X"] == pytest.approx(b)
    assert terms["Z"] == pytest.approx((a - d) / 2)


def test_infinite_kinetic_n1():
    matrix = np.array([[np.pi**2 / 3, -2.0], [-2.0, np.pi**2 / 3]])
    terms = dict(decompose(matrix).items())
    assert set(terms) == {"I", "X"}
    assert terms["I"] == pytest.approx(np.pi**2 / 3)
    assert terms["X"] == pytest.approx(-2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    matrix = random_symmetric(rng, n)
    ours = dict(decompose(matrix).items())
    oracle = dense_decompose(matrix)
    assert set(ours) == set(oracle)
    for word, coeff in oracle.items():
        assert abs(coeff.imag) < 1e-12
        assert ours[word] == pytest.approx(coeff.real, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_matches_dense_oracle_property(n, seed, scale):
    matrix = scale * random_symmetric(np.random.default_rng(seed), n)
    ours = decompose(matrix, tol=0.0).terms
    oracle = dense_decompose(matrix)
    assert all(word.count("Y") % 2 == 0 for word in ours)
    for word in set(ours) | set(oracle):
        coeff = oracle.get(word, 0.0)
        assert abs(coeff.imag) <= 1e-12 * scale
        assert abs(ours.get(word, 0.0) - coeff.real) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, 1e-12, 0.5]))
def test_words_match_word_by_word_naming(n, seed, tol):
    matrix = random_symmetric(np.random.default_rng(seed), n)
    assert_same_terms(decompose(matrix, tol=tol).terms, decompose_by_words(matrix, tol))


@pytest.mark.parametrize("n", [0, 1, 3, 5])
@pytest.mark.parametrize("tol", [0.0, 1e-12, "largest", "above"])
def test_words_match_word_by_word_naming_at_tol(n, tol):
    matrix = random_symmetric(np.random.default_rng(20 + n), n) if n else np.array([[2.5]])
    empty = tol in ("largest", "above")
    if empty:  # every |A_w| is at most tol
        largest = max(abs(c) for c in decompose_by_words(matrix, 0.0).values())
        tol = largest if tol == "largest" else 2.0 * largest
    psum = decompose(matrix, tol=tol)
    assert_same_terms(psum.terms, decompose_by_words(matrix, tol))
    assert (len(psum) == 0) == empty


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_words_match_word_by_word_naming_readme_morse_n8(tol):
    grid = build_grid("finite", {"a": 2.55, "b": 4.55}, 8, 26.0 * AMU_TO_ELECTRON_MASS)
    matrix = assemble(grid, MorsePotential(0.07, 1.35, 3.2)).full
    psum = decompose(matrix, tol=tol)
    assert_same_terms(psum.terms, decompose_by_words(matrix, tol))
    assert len(psum) == (6434 if tol else 24053)


@pytest.mark.parametrize("n", range(1, 7))
def test_roundtrip_random_symmetric(n):
    rng = np.random.default_rng(n)
    for _ in range(50 // n):
        matrix = random_symmetric(rng, n)
        assert np.max(np.abs(reconstruct(decompose(matrix, tol=0.0)) - matrix)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(pauli_sums())
def test_reconstruct_matches_word_loop(psum):
    oracle = reconstruct_by_words(psum)
    # The transform sums each entry in another order than the loop: allow a
    # few rounding steps per qubit relative to the largest entry.
    scale = max(1.0, np.max(np.abs(oracle)))
    assert np.max(np.abs(reconstruct(psum) - oracle)) <= 1e-15 * psum.n_qubits * scale


def test_empty_sum_reconstructs_zero():
    assert np.array_equal(reconstruct(PauliSum(2, {})), np.zeros((4, 4)))


def test_z_word_reconstruction():
    assert np.array_equal(reconstruct(PauliSum(1, {"Z": 1.0})), np.diag([1.0, -1.0]))


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        decompose(np.eye(2), tol=-1.0)


def test_no_odd_y_words():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        psum = decompose(random_symmetric(rng, n), tol=0.0)
        for word in psum.terms:
            assert word.count("Y") % 2 == 0


def test_linearity_termwise():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        a = random_symmetric(rng, n)
        b = random_symmetric(rng, n)
        alpha, beta = 0.7, -1.9
        combo = dict(decompose(alpha * a + beta * b, tol=0.0).items())
        da = dict(decompose(a, tol=0.0).items())
        db = dict(decompose(b, tol=0.0).items())
        for word in set(da) | set(db):
            expected = alpha * da.get(word, 0.0) + beta * db.get(word, 0.0)
            assert combo.get(word, 0.0) == pytest.approx(expected, abs=1e-10)


def test_diagonal_matrix_term_count():
    rng = np.random.default_rng(9)
    psum = decompose(np.diag(rng.standard_normal(16)))
    assert term_count(psum) <= 16
    assert all(set(word) <= {"I", "Z"} for word in psum.terms)


def test_morse16_radial_term_count(morse16_radial):
    """Counting every term that survives exact-zero dropping reproduces the
    scale of the published diatomic counts (about 130 of the 136 possible)."""
    exact_nonzero = term_count(decompose(morse16_radial.full, tol=0.0))
    assert 120 <= exact_nonzero <= 136


def test_morse32_term_count_reported(morse32):
    count = term_count(decompose(morse32.full))
    assert count <= 16 * 33  # real-symmetric dimension 2^4 (2^5 + 1)


class TestExpectation:
    """<psi| sum_w A_w P_w |psi> through the one expectation path, energy_of on the reconstructed sum."""

    def test_z_on_zero_state(self):
        state = np.array([1.0, 0.0])
        assert energy_of(state, reconstruct(PauliSum(1, {"Z": 1.0}))) == pytest.approx(1.0)

    def test_x_on_plus_state(self):
        state = np.array([1.0, 1.0]) / np.sqrt(2)
        assert energy_of(state, reconstruct(PauliSum(1, {"X": 1.0}))) == pytest.approx(1.0)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(11)
        matrix = random_symmetric(rng, 5)
        psum = decompose(matrix, tol=0.0)
        for _ in range(5):
            psi = random_state(rng, 32)
            dense = np.vdot(psi, matrix @ psi).real
            assert energy_of(psi, reconstruct(psum)) == pytest.approx(dense, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_of(np.array([1.0, 0.0]), reconstruct(PauliSum(2, {"II": 1.0})))


def test_export_roundtrip(tmp_path, morse16_radial):
    psum = decompose(morse16_radial.full)
    path = tmp_path / "pauli.txt"
    path.write_text(format_pauli(psum))
    loaded = load_pauli(path)
    assert loaded.n_qubits == psum.n_qubits
    assert dict(loaded.items()) == dict(psum.items())
    first_word, first_coeff = psum.items()[0]
    assert f"{first_word} {first_coeff:.17e}" in path.read_text()


@pytest.mark.parametrize("word", ["Q", "x", "I ", "IQ"])
def test_rejects_letters_outside_ixyz(word):
    with pytest.raises(ValueError, match="letters outside IXYZ"):
        PauliSum(len(word), {word: 2.0})


def per_word_error(n, words):
    """Reference for PauliSum's word checks: the first word of the wrong
    length, else the first word with a letter outside IXYZ, else None."""
    for word in words:
        if len(word) != n:
            return f"word {word!r} has wrong length for n={n}"
    for word in words:
        if any(letter not in "IXYZ" for letter in word):
            return f"word {word!r} has letters outside IXYZ"
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.lists(st.text(alphabet="IXYZ\nQ\u00c5", max_size=5), unique=True, max_size=6))
@example(2, ["XZ", "IIII", "Q"])
@example(2, ["II", "IIII"])  # the joined text is as long as two 2-letter words'
@example(2, ["I", "\nXY"])  # joined as "I\n" and "XY" are
@example(2, ["I\n", "XY"])
@example(0, ["", "Z"])
@example(3, ["".join(letters) for letters in itertools.product("IXYZ", repeat=3)])
def test_word_checks_match_per_word_loop(n, words):
    """The bulk checks raise the per-word loop's first error, or none."""
    expected = per_word_error(n, words)
    if expected is None:
        assert len(PauliSum(n, dict.fromkeys(words, 1.0))) == len(words)
    else:
        with pytest.raises(ValueError) as info:
            PauliSum(n, dict.fromkeys(words, 1.0))
        assert str(info.value) == expected


def test_load_rejects_repeated_word(tmp_path):
    path = tmp_path / "pauli.txt"
    path.write_text("XZ 1.0\nIZ 0.5\nXZ 2.0\n")
    with pytest.raises(ValueError, match="pauli.txt:3: word XZ repeats"):
        load_pauli(path)


def test_load_rejects_bad_letter(tmp_path):
    path = tmp_path / "pauli.txt"
    path.write_text("Q 2.0\n")
    with pytest.raises(ValueError, match="letters outside IXYZ"):
        load_pauli(path)


@settings(max_examples=40, deadline=None)
@given(pauli_sums(max_qubits=5), st.floats(allow_nan=False, allow_infinity=False))
def test_text_roundtrip_bit_identical(tmp_path_factory, psum, extra):
    terms = dict(psum.terms)
    terms[psum.items()[0][0]] = extra  # any finite double, subnormals and -0.0 included
    psum = PauliSum(psum.n_qubits, terms)
    path = tmp_path_factory.mktemp("pauli") / "pauli.txt"
    path.write_text(format_pauli(psum))
    loaded = load_pauli(path)
    assert loaded.n_qubits == psum.n_qubits
    assert [(w, np.float64(c).tobytes()) for w, c in loaded.items()] == [
        (w, np.float64(c).tobytes()) for w, c in psum.items()
    ]
