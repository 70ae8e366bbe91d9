import numpy as np
import pytest

from rindler_spin.linalg4 import characteristic_roots, hermitian_eigenvalues, jacobi_hermitian

from helpers import random_density


def test_jacobi_degenerate_spectrum():
    w = hermitian_eigenvalues(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(w, 0.25)


def test_jacobi_vectors_reconstruct():
    rng = np.random.default_rng(4)
    for _ in range(25):
        rho = random_density(rng).m
        w, v = jacobi_hermitian(rho)
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - rho)) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12


def test_characteristic_roots_random_matrices():
    rng = np.random.default_rng(6)
    for _ in range(200):
        m = rng.standard_normal((4, 4))
        mine = characteristic_roots(m)
        ref = np.linalg.eigvals(m)
        mine = mine[np.lexsort((mine.imag.round(9), mine.real.round(9)))]
        ref = ref[np.lexsort((ref.imag.round(9), ref.real.round(9)))]
        assert np.max(np.abs(mine - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_characteristic_roots_shape_check():
    with pytest.raises(ValueError):
        characteristic_roots(np.eye(3))
