import cmath
import math

import numpy as np
import pytest

from rindler_spin.linalg4 import (_polish_root, _quotient, _trace, characteristic_roots,
                                  hermitian_eigenvalues, jacobi_hermitian, quartic_roots)

from helpers import random_density


def _poly_from_roots(roots):
    coeffs = np.poly(roots)
    return coeffs[1], coeffs[2], coeffs[3], coeffs[4]


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


def test_quartic_distinct_real_roots():
    roots = np.array([-3.0, -0.5, 1.25, 4.0])
    got = np.sort(quartic_roots(*_poly_from_roots(roots)).real)
    assert np.max(np.abs(got - roots)) < 1e-12
    assert np.max(np.abs(quartic_roots(*_poly_from_roots(roots)).imag)) < 1e-12


def test_quartic_double_root():
    roots = np.array([0.3, 0.3, 2.0, 5.0])
    got = np.sort(quartic_roots(*_poly_from_roots(roots)).real)
    assert np.max(np.abs(got - roots)) < 1e-7  # double roots split at sqrt(eps)
    assert got[0] + got[1] == pytest.approx(0.6, abs=1e-12)  # pair sum stays exact


def test_quartic_biquadratic():
    # x^4 - 5 x^2 + 4 = (x^2-1)(x^2-4)
    got = np.sort(quartic_roots(0.0, -5.0, 0.0, 4.0).real)
    assert np.allclose(got, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)


def test_quartic_complex_pairs():
    # (x^2 - 2x + 5)(x - 3)(x - 4): roots 1 +- 2i, 3, 4
    roots = np.array([1 + 2j, 1 - 2j, 3.0, 4.0])
    got = quartic_roots(*(c.real for c in _poly_from_roots(roots)))
    got = got[np.lexsort((got.imag, got.real))]
    want = roots[np.lexsort((roots.imag, roots.real))]
    assert np.max(np.abs(got - want)) < 1e-12


def test_quartic_random_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        roots = np.sort(rng.uniform(-5, 5, 4))
        got = np.sort(quartic_roots(*_poly_from_roots(roots)).real)
        assert np.max(np.abs(got - roots)) < 1e-8


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


def test_scalar_helpers_round_as_numpy():
    # the polish and the traces run on Python scalars but round as numpy does
    rng = np.random.default_rng(41)
    for _ in range(2000):
        a, b = (complex(*rng.standard_normal(2) * 10.0 ** rng.uniform(-8, 8, 2))
                for _ in range(2))
        for divisor in (b, complex(b.real, 0.0), complex(0.0, b.imag)):
            assert _quotient(a, divisor) == complex(np.complex128(a) / np.complex128(divisor))
        m = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 3, (4, 4))
        assert _trace(m) == float(m.trace())


def test_polish_root_overflowing_modulus_rejects_the_step():
    # p(z) = z^4 + 1.  From a tiny z the Newton step lands near -1/(4 z^3),
    # where both parts of p are finite floats but |p| is about 2e308
    coeffs = (0.0, 0.0, 0.0, 1.0)
    z = cmath.rect((4.0 * 2.0 ** 0.25 * 1e77) ** (-1.0 / 3.0), -math.pi / 48.0)  # |cand|^4 = 2e308

    def p(x):
        return (((x + coeffs[0]) * x + coeffs[1]) * x + coeffs[2]) * x + coeffs[3]

    cand = z - p(z) / (4.0 * z * z * z)
    assert cmath.isfinite(p(cand))
    with pytest.raises(OverflowError):
        abs(p(cand))
    assert _polish_root(coeffs, z) == z
