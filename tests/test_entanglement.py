"""Wootters kernel: spin flip and concurrence on known two-qubit states."""

import math

import numpy as np
import pytest

from cavshare import (NotADensityMatrix, NumberBasis, TwoQubitDensity,
                      concurrence, spin_flip)

_BELL = np.zeros(4, dtype=complex)
_BELL[0] = _BELL[3] = 1.0 / math.sqrt(2.0)


def _pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def test_bell_state_is_maximally_entangled():
    assert math.isclose(concurrence(_pure(_BELL)), 1.0, abs_tol=1e-14)


def test_product_state_is_separable():
    assert concurrence(_pure([1.0, 0.0, 0.0, 0.0])) == 0.0
    assert concurrence(np.eye(4) / 4.0) == 0.0  # maximally mixed


def test_werner_state_concurrence():
    # p |Bell><Bell| + (1-p) I/4 has C = max(0, (3p-1)/2)
    for p, expected in ((0.8, 0.7), (0.5, 0.25), (1.0 / 3.0, 0.0), (0.2, 0.0)):
        rho = p * _pure(_BELL) + (1.0 - p) * np.eye(4) / 4.0
        assert math.isclose(concurrence(rho), expected, abs_tol=1e-12)


def test_pure_state_closed_form():
    # C(|psi>) = 2 |ad - bc| for amplitudes (a, b, c, d)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2)
        a, b, c, d = a / norm, b / norm, c / norm, d / norm
        expected = 2.0 * abs(a * d - b * c)
        assert math.isclose(concurrence(_pure([a, b, c, d])), expected,
                            abs_tol=1e-7)


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


def test_tiny_negative_rounding_is_clamped():
    rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0]).astype(complex)
    assert concurrence(rho) == 0.0


def test_validated_density_is_checked_once(monkeypatch):
    # a TwoQubitDensity was checked when it was built; a bare array is
    # checked by concurrence itself, through the same function
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(mat):
        calls.append(mat.shape)
        return eigvalsh(mat)

    rho = 0.8 * _pure(_BELL) + 0.2 * np.eye(4) / 4.0
    density = TwoQubitDensity(entries=rho, basis_tag=NumberBasis())
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    value = concurrence(density)
    assert calls == []
    assert concurrence(rho) == value
    assert calls == [(4, 4)]
