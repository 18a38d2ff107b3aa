"""Wootters kernel: spin flip and concurrence on known two-qubit states."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavshare import (NotADensityMatrix, NumberBasis, TwoQubitDensity,
                      concurrence, spin_flip)
from cavshare import entanglement, fockspace
from cavshare.entanglement import _RANK_TOL

_BELL = np.zeros(4, dtype=complex)
_BELL[0] = _BELL[3] = 1.0 / math.sqrt(2.0)
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
# the kernel's agreement with each closed form below
_KERNEL_TOL = 1e-12
# reproducible draws, no example database written to disk
_PROPERTY = settings(derandomize=True, database=None, deadline=None,
                     max_examples=200)


def _complex_vectors(size: int, count: int = 1):
    """count complex vectors of the given size, entries in the unit square,
    each with norm at least 0.1."""
    entry = st.floats(-1.0, 1.0)
    vector = st.lists(entry, min_size=2 * size, max_size=2 * size).map(
        lambda v: np.array(v[:size]) + 1j * np.array(v[size:])
    ).filter(lambda v: np.linalg.norm(v) >= 0.1)
    return st.lists(vector, min_size=count, max_size=count)


def _pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def test_bell_state_is_maximally_entangled():
    assert math.isclose(concurrence(_pure(_BELL)), 1.0, abs_tol=1e-14)


def test_product_state_is_separable():
    assert concurrence(_pure([1.0, 0.0, 0.0, 0.0])) == 0.0
    assert concurrence(np.eye(4) / 4.0) == 0.0  # maximally mixed


@_PROPERTY
@given(st.floats(0.0, 1.0))
@example(0.8)
@example(0.5)
@example(1.0 / 3.0)
@example(0.2)
def test_werner_state_concurrence(p):
    # p |Bell><Bell| + (1-p) I/4 has C = max(0, (3p-1)/2)
    rho = p * _pure(_BELL) + (1.0 - p) * np.eye(4) / 4.0
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    assert math.isclose(concurrence(rho), expected, abs_tol=_KERNEL_TOL)


@_PROPERTY
@given(_complex_vectors(4))
def test_pure_state_closed_form(vectors):
    # C(|psi>) = |<psi| sigma_y x sigma_y |psi*>|, which is 2 |ad - bc|
    psi = vectors[0] / np.linalg.norm(vectors[0])
    expected = abs(psi.conj() @ _YY @ psi.conj())
    assert math.isclose(concurrence(_pure(psi)), expected, abs_tol=_KERNEL_TOL)


@_PROPERTY
@given(st.data())
def test_x_state_of_exact_rank(data):
    # An X state is a Hermitian block on {|00>, |11>} (diagonal a, d,
    # coherence z) beside one on {|01>, |10>} (b, c, w), and has
    # C = 2 max(0, |z| - sqrt(bc), |w| - sqrt(ad)) (Yu and Eberly, QIC 7, 459,
    # 2007). Each block is a sum of outer products of 0, 1 or 2 drawn
    # vectors, so the rank is exactly their count when the vectors are
    # independent.
    rank = data.draw(st.integers(1, 3), label="rank")
    on_00_11 = data.draw(st.integers(max(0, rank - 2), min(2, rank)),
                         label="vectors on {|00>, |11>}")
    vectors = data.draw(_complex_vectors(2, rank), label="vectors")
    rho = np.zeros((4, 4), dtype=complex)
    for k, v in enumerate(vectors):
        idx = [0, 3] if k < on_00_11 else [1, 2]
        rho[np.ix_(idx, idx)] += np.outer(v, v.conj())
    for idx, count in (([0, 3], on_00_11), ([1, 2], rank - on_00_11)):
        if count == 2:  # keep the two vectors of one block independent
            assume(abs(np.linalg.det(rho[np.ix_(idx, idx)])) > 1e-3)
    rho /= np.trace(rho).real
    a, b, c, d = np.diagonal(rho).real
    expected = 2.0 * max(0.0, abs(rho[0, 3]) - math.sqrt(b * c),
                         abs(rho[1, 2]) - math.sqrt(a * d))
    assert np.linalg.matrix_rank(rho, tol=1e-9) == rank
    assert math.isclose(concurrence(rho), expected, abs_tol=_KERNEL_TOL)


def _random_su2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_local_unitary_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = rng.uniform(0.4, 1.0)
        rho = p * _pure(_BELL) + (1.0 - p) * np.eye(4) / 4.0
        u = np.kron(_random_su2(rng), _random_su2(rng))
        rotated = u @ rho @ u.conj().T
        assert math.isclose(concurrence(rotated), concurrence(rho), abs_tol=1e-7)


def test_spin_flip_explicit_and_involutive():
    rho = _pure([0.0, 1.0, 0.0, 0.0])  # |01><01|
    flipped = spin_flip(rho)
    # sigma_y |0> = i|1>, so |01> flips to |10> up to phase
    expected = _pure([0.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(flipped, expected, atol=1e-15)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    np.testing.assert_allclose(spin_flip(spin_flip(rho)), rho, atol=1e-14)


def test_bell_state_is_spin_flip_fixed_point():
    rho = _pure(_BELL)
    np.testing.assert_allclose(spin_flip(rho), rho, atol=1e-15)


def test_rejects_non_density_inputs():
    with pytest.raises(NotADensityMatrix):
        concurrence(np.eye(3) / 3.0)  # wrong shape
    bad_hermitian = np.eye(4, dtype=complex) / 4.0
    bad_hermitian[0, 1] = 0.1
    with pytest.raises(NotADensityMatrix):
        concurrence(bad_hermitian)
    with pytest.raises(NotADensityMatrix):
        concurrence(np.eye(4) / 2.0)  # trace 2
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotADensityMatrix):
        concurrence(negative)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entries", [[(0, 0)], [(0, 3), (3, 0)], [(1, 2)]])
def test_rejects_non_finite_entries(value, entries):
    # a NaN slips past `>` comparisons; each check must refuse it, not leave
    # the eigensolver to fail on it
    rho = 0.8 * _pure(_BELL) + 0.2 * np.eye(4) / 4.0
    for index in entries:
        rho[index] = value
    with pytest.raises(NotADensityMatrix):
        TwoQubitDensity(entries=rho, basis_tag=NumberBasis())
    with pytest.raises(NotADensityMatrix):
        concurrence(rho)


def test_tiny_negative_rounding_is_clamped():
    rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
    assert concurrence(rho) == 0.0


def test_validated_density_is_checked_once(monkeypatch):
    # a TwoQubitDensity was checked when it was built; a bare array is
    # checked by concurrence itself, through the validator MixedState shares
    assert fockspace.check_blocks is entanglement.check_blocks
    calls = []
    check_density = entanglement.check_density

    def counting(mat, tol):
        calls.append((mat.shape, tol))
        return check_density(mat, tol)

    rho = 0.8 * _pure(_BELL) + 0.2 * np.eye(4) / 4.0
    density = TwoQubitDensity(entries=rho, basis_tag=NumberBasis())
    monkeypatch.setattr(entanglement, "check_density", counting)
    value = concurrence(density)
    assert calls == []
    assert concurrence(rho) == value
    assert calls == [((4, 4), 1e-10)]


# --- stacks -----------------------------------------------------------------------

def _of_rank(rank: int, rng) -> np.ndarray:
    v = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = v @ v.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def test_stacked_concurrence_matches_one_call_per_matrix():
    # ranks 1 to 4 interleaved, so each rank group is gathered from across
    # the stack; eigh returns a diagonal's entries exactly, so the last two
    # put their smallest eigenvalue exactly at _RANK_TOL times the largest
    # (dropped) and one step above it (kept)
    rng = np.random.default_rng(3)
    edge = _RANK_TOL * 0.5
    stack = [_of_rank(r, rng) for r in (4, 1, 3, 2, 1, 4, 2, 3)]
    stack += [np.diag([t, 0.3, 0.2 - t, 0.5]).astype(complex)
              for t in (edge, np.nextafter(edge, 1.0))]
    stack.append(0.8 * _pure(_BELL) + 0.2 * np.eye(4) / 4.0)
    stack = np.array(stack)
    assert [np.linalg.eigvalsh(m)[0] for m in stack[-3:-1]] == [
        edge, np.nextafter(edge, 1.0)]
    one = np.array([concurrence(m) for m in stack])
    assert one[-1] > 0.5 and np.count_nonzero(one) >= 8
    np.testing.assert_array_equal(_bits(concurrence(stack)), _bits(one))
    density = TwoQubitDensity(entries=stack, basis_tag=(NumberBasis(),) * len(stack))
    np.testing.assert_array_equal(_bits(concurrence(density)), _bits(one))
    assert concurrence(stack[:0]).shape == (0,)


def _skew(stack):
    stack[2, 0, 1] += 0.1


def _negative(stack):
    stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])


def _nan(stack):
    stack[1, 2, 2] = math.nan


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("corrupt, message", [
    (_skew, "not Hermitian"), (_negative, "negative eigenvalue"),
    (_nan, "not Hermitian"),
])
def test_one_bad_matrix_fails_the_stack(corrupt, message):
    # each check runs on every matrix of a stack, not on the first alone
    rng = np.random.default_rng(5)
    stack = np.array([_of_rank(r, rng) for r in (1, 2, 3, 4, 2)])
    concurrence(stack)
    corrupt(stack)
    with pytest.raises(NotADensityMatrix, match=message):
        concurrence(stack)
    with pytest.raises(NotADensityMatrix, match=message):
        TwoQubitDensity(entries=stack, basis_tag=(NumberBasis(),) * len(stack))
