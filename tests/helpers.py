"""Shared builders for randomized states and the evolved-Bell family, and reference routes."""
import math
import sys

import numpy as np

from rindler_spin.dynamics import SIGMA, DensityMatrix


def random_density(rng, real=False):
    """Random full-rank two-qubit density matrix (Wishart construction)."""
    a = rng.standard_normal((4, 4))
    if not real:
        a = a + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_unitary2(rng):
    """Haar-ish random 2x2 unitary from a QR decomposition."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def bell_density():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.5
    return DensityMatrix(m)


def evolved_bell_density(alpha, tau):
    """Closed-form evolved Bell density matrix, built directly from the solution."""
    g1 = (1.0 + alpha * alpha) / math.tanh(math.pi / alpha)
    g2 = 0.5 * (g1 + alpha**3 / math.pi)
    e1, e2 = math.exp(-g1 * tau), math.exp(-g2 * tau)
    th = math.tanh(math.pi / alpha)
    m = 0.25 * (np.eye(4, dtype=complex)
                + e2 * np.kron(SIGMA[1], SIGMA[1])
                - e2 * np.kron(SIGMA[2], SIGMA[2])
                + e1 * np.kron(SIGMA[3], SIGMA[3])
                + th * (1.0 - e1) * np.kron(SIGMA[3], SIGMA[0]))
    return DensityMatrix(m)


def wootters_reference(rho: DensityMatrix):
    """Concurrence via numpy's general eigensolver, as an independent oracle."""
    sy2 = np.kron(SIGMA[2], SIGMA[2])
    m = rho.m @ sy2 @ rho.m.conj() @ sy2
    lams = np.sqrt(np.clip(np.sort(np.linalg.eigvals(m).real)[::-1], 0.0, None))
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def rk4_reference(rho0: DensityMatrix, rates, tau, dt):
    """Master equation by an explicit per-step classical RK4 loop on the 4x4 matrix.

    The same discretization as ``evolve_numeric`` (ceil(tau/dt) equal
    steps), written out step by step, as the reference for its step matrix.
    """
    lower = np.kron(np.array([[0, 1], [0, 0]], dtype=complex), SIGMA[0])
    raise_ = lower.conj().T
    sz = np.kron(SIGMA[3], SIGMA[0])
    num = raise_ @ lower      # sigma+ sigma- on qubit 1
    hole = lower @ raise_     # sigma- sigma+ on qubit 1

    def rhs(rho):
        out = 0.5 * rates.g_minus * (2.0 * lower @ rho @ raise_ - num @ rho - rho @ num)
        out += 0.5 * rates.g_plus * (2.0 * raise_ @ rho @ lower - hole @ rho - rho @ hole)
        out += rates.g_z * (sz @ rho @ sz - rho)
        return out

    steps = max(1, math.ceil(tau / dt))
    h = tau / steps
    rho = np.array(rho0.m)
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return DensityMatrix(rho)


def count_eigensolves(monkeypatch):
    """Record each Hermitian eigensolve the package runs; returns the list of names.

    Wraps ``jacobi_hermitian`` and ``hermitian_eigenvalues`` at every place
    they are bound across the ``rindler_spin`` modules, as ``from`` imports
    copy the binding.
    """
    from rindler_spin import linalg4
    calls = []
    for name in ("jacobi_hermitian", "hermitian_eigenvalues"):
        original = getattr(linalg4, name)

        def counted(m, _fn=original, _name=name):
            calls.append(_name)
            return _fn(m)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("rindler_spin") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls
