"""The two 4x4 eigen-primitives the physics modules share.

* Hermitian eigenproblems (density-matrix positivity checks and the
  concurrence factorization) go to LAPACK through ``numpy.linalg``;
* a closed-form real-quartic solver (resolvent cubic, factorization into
  two quadratics, guarded Newton polish) gives the characteristic roots of
  real 4x4 matrices, keeping ``concurrence_real`` a route independent of
  LAPACK.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def jacobi_hermitian(matrix):
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Returns (values, vectors) with ``matrix ~ V diag(w) V^H``, values
    ascending.
    """
    return np.linalg.eigh(matrix)


def hermitian_eigenvalues(matrix):
    """Sorted (ascending) eigenvalues of a Hermitian matrix."""
    return np.linalg.eigvalsh(matrix)


def _largest_real_cubic_root(b, c, d):
    """Largest real root of x^3 + b x^2 + c x + d."""
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc >= 0.0:
        s = math.sqrt(disc)
        x = np.cbrt(-q / 2.0 + s) + np.cbrt(-q / 2.0 - s)
    else:
        rho = math.sqrt(-(p**3) / 27.0)
        arg = min(1.0, max(-1.0, -q / (2.0 * rho)))
        x = 2.0 * math.sqrt(-p / 3.0) * math.cos(math.acos(arg) / 3.0)
    return float(x) - b / 3.0


def _quadratic_roots(b, c):
    """Roots of x^2 + b x + c, stable against cancellation."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        root = math.sqrt(disc)
        if b >= 0.0:
            r1 = (-b - root) / 2.0
        else:
            r1 = (-b + root) / 2.0
        r2 = c / r1 if r1 != 0.0 else -b - r1
        return complex(r1), complex(r2)
    root = cmath.sqrt(disc)
    return (-b + root) / 2.0, (-b - root) / 2.0


def quartic_roots(a3, a2, a1, a0):
    """Roots of x^4 + a3 x^3 + a2 x^2 + a1 x + a0 with real coefficients.

    Factors the depressed quartic into two real quadratics through the
    resolvent cubic; near-double roots stay paired inside one quadratic,
    which keeps their sum and product well conditioned.
    """
    shift = a3 / 4.0
    p = a2 - 3.0 * a3 * a3 / 8.0
    q = a1 - a3 * a2 / 2.0 + a3**3 / 8.0
    r = a0 - a3 * a1 / 4.0 + a3 * a3 * a2 / 16.0 - 3.0 * a3**4 / 256.0

    coeff_scale = max(1.0, abs(p), abs(r)) ** 0.5
    t = s = 0.0
    if abs(q) > 1e-14 * coeff_scale**3:
        t = max(_largest_real_cubic_root(2.0 * p, p * p - 4.0 * r, -q * q), 0.0)
        s = math.sqrt(t)
    if s == 0.0:  # biquadratic: y^4 + p y^2 + r
        roots = []
        for z in _quadratic_roots(p, r):
            w = cmath.sqrt(z)
            roots.extend((w, -w))
    else:
        u = (p + t - q / s) / 2.0
        v = (p + t + q / s) / 2.0
        roots = list(_quadratic_roots(s, u)) + list(_quadratic_roots(-s, v))

    return np.array([z - shift for z in roots], dtype=complex)


def _polish_root(coeffs, z, iters=3):
    """Guarded Newton refinement; keeps a step only if it shrinks |p(z)|.

    Near a double root p'(z) is tiny, the step lands far away and p there
    can overflow to inf - inf = nan; a nan |p| never counts as smaller.
    """
    a3, a2, a1, a0 = coeffs

    def val(x):
        return (((x + a3) * x + a2) * x + a1) * x + a0

    pz = val(z)
    for _ in range(iters):
        dz = ((4.0 * z + 3.0 * a3) * z + 2.0 * a2) * z + a1
        if dz == 0:
            break
        cand = z - pz / dz
        pc = val(cand)
        if not abs(pc) < abs(pz):
            break
        z, pz = cand, pc
    return z


def characteristic_roots(matrix):
    """Eigenvalues of a real 4x4 matrix via its characteristic quartic.

    The monic characteristic polynomial is assembled from power-sum traces
    (Newton's identities), solved in closed form, then Newton-polished.
    Suitable for well-scaled spectra; clustered tiny eigenvalues of badly
    scaled products lose absolute accuracy with any polynomial route.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    m2 = m @ m
    m3 = m2 @ m
    p1 = float(np.trace(m))
    p2 = float(np.trace(m2))
    p3 = float(np.trace(m3))
    p4 = float(np.trace(m3 @ m))
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0

    coeffs = (-e1, e2, -e3, e4)
    roots = quartic_roots(*coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected steps may overflow
        return np.array([_polish_root(coeffs, z) for z in roots])
