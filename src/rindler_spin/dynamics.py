"""Two-qubit density operators in the Pauli tensor basis and their evolution.

A two-spin density operator is expanded as rho = sum_ij r_ij s_i x s_j
over the sixteen products of {identity, sigma_x, sigma_y, sigma_z}; the
coefficients are real, r_00 = 1/4 fixes the trace, and purity bounds the
remaining fifteen inside a generalized Bloch ball.

The dissipator acts on the first (accelerated) spin only, with jump
operators sqrt(g-/2) sigma-, sqrt(g+/2) sigma+, sqrt(g_z/2) sigma_z in
gamma0 units.  In the coefficient picture the sixteen ODEs decouple row by
row:

    r_0j' = 0
    r_1j' = -(g- + g+ + 4 g_z)/2 * r_1j      (same for r_2j)
    r_3j' = (g- - g+) r_0j - (g- + g+) r_3j

and ``evolve_analytic`` applies their closed-form solutions, while
``evolve_numeric`` integrates the full 4x4 master equation with a
classical fixed-step RK4 as an independent route.  All evolution happens
in the renormalized (interaction) picture; the residual coherent rotation
is a local unitary on the first spin and drops out of every observable
computed downstream (populations along z, concurrence), so it is never
applied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlator import RateSet
from .errors import (BlochBoundWarning, DomainError, IntegrationInstabilityError,
                     ValidationError)
from .linalg4 import hermitian_eigenvalues

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: sixteen tensor-product basis operators stacked (4, 4, 4, 4), PAULI2[i, j] = s_i x s_j
PAULI2 = np.array([[np.kron(si, sj) for sj in SIGMA] for si in SIGMA])
PAULI2.setflags(write=False)

# sigma- = (sigma_x + i sigma_y)/2 maps the excited level (sigma_z = -1) to
# the ground level (sigma_z = +1) of the gap Hamiltonian -mu B sigma_z
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class PauliCoefficients:
    """Real 4x4 coefficient array r_ij of the Pauli tensor expansion."""

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.shape != (4, 4):
            raise ValidationError("coefficients must form a 4x4 real array")
        if abs(r[0, 0] - 0.25) > TRACE_TOL:
            raise ValidationError("r[0][0] must be 1/4 (unit trace)")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    def bloch_vector_norm_sq(self):
        return bloch_norm(self)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense 4x4 complex density operator.

    Construction does not validate, so near-boundary numerics can be
    probed; call :meth:`validate` (or the operations that require valid
    input) to enforce hermiticity, unit trace, and positivity.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if m.shape != (4, 4):
            raise ValidationError("density matrix must be 4x4")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def validate(self, psd_tol=PSD_TOL):
        m = self.m
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValidationError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise ValidationError("density matrix must have unit trace")
        if float(hermitian_eigenvalues(m)[0]) < -psd_tol:
            raise ValidationError("density matrix has a negative eigenvalue")
        return self

    def min_eigenvalue(self):
        return float(hermitian_eigenvalues(self.m)[0])


@dataclass(frozen=True)
class LindbladSpec:
    """Rates plus integrator step for the numeric route, in gamma0 units."""

    rates: RateSet
    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        stiffest = max(self.rates.g_minus, self.rates.g_plus, 4.0 * self.rates.g_z)
        if self.dt * stiffest >= 0.1:
            raise DomainError(
                f"dt too large for these rates (dt*max_rate = {self.dt * stiffest:.3g}, "
                "require < 0.1)")


def coeffs_from_density(rho: DensityMatrix) -> PauliCoefficients:
    """Extract r_ij = Tr(rho s_i x s_j)/4; inverse of density_from_coefficients."""
    m = rho.m
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ValidationError("density matrix is not Hermitian")
    return PauliCoefficients(np.einsum("ab,ijba->ij", m, PAULI2).real / 4.0)


def density_from_coefficients(coeffs: PauliCoefficients) -> DensityMatrix:
    """Assemble rho = sum_ij r_ij s_i x s_j; Hermitian by construction.

    Warns (BlochBoundWarning) when the coefficients lie outside the
    generalized Bloch ball; such a matrix is not positive semidefinite.
    """
    norm = bloch_norm(coeffs)
    if norm > 1.0 + 1e-9:
        warnings.warn(f"Bloch norm {norm:.6f} exceeds 1; state may be unphysical",
                      BlochBoundWarning, stacklevel=2)
    return DensityMatrix(np.einsum("ij,ijab->ab", coeffs.r, PAULI2))


def bell_state() -> PauliCoefficients:
    """Coefficients of the maximally entangled (|uu> + |dd>)/sqrt(2) state."""
    r = np.zeros((4, 4))
    r[0, 0] = r[1, 1] = r[3, 3] = 0.25
    r[2, 2] = -0.25
    return PauliCoefficients(r)


def bloch_norm(coeffs: PauliCoefficients) -> float:
    """Squared generalized Bloch radius: sum of (4 r_ij / sqrt(3))^2, (i,j) != (0,0).

    At most 1 for physical states, with equality exactly for pure states.
    """
    r = coeffs.r
    total = float(np.sum(r * r)) - float(r[0, 0] ** 2)
    return (16.0 / 3.0) * total


def evolve_analytic(coeffs0: PauliCoefficients, rates: RateSet, tau) -> PauliCoefficients:
    """Closed-form coefficient evolution to dimensionless time tau (gamma0 units)."""
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    flip_sum = rates.g_minus + rates.g_plus
    coherence_rate = 0.5 * (flip_sum + 4.0 * rates.g_z)

    r = np.array(coeffs0.r)
    decay = math.exp(-coherence_rate * tau)
    r[1, :] *= decay
    r[2, :] *= decay
    if flip_sum > 0:
        relax = math.exp(-flip_sum * tau)
        asympt = (rates.g_minus - rates.g_plus) / flip_sum
        r[3, :] = r[3, :] * relax + asympt * coeffs0.r[0, :] * (1.0 - relax)
    return PauliCoefficients(r)


def evolve_numeric(rho0: DensityMatrix, spec: LindbladSpec, tau) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation to time tau.

    The jump operators act on the first qubit (identity on the spectator).
    Preserves the trace to roundoff; raises IntegrationInstabilityError if
    the result develops an eigenvalue below -1e-8.
    """
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    rho0.validate()
    if tau == 0:
        return DensityMatrix(rho0.m)

    g_minus, g_plus, g_z = spec.rates.g_minus, spec.rates.g_plus, spec.rates.g_z
    lower = np.kron(_SIGMA_MINUS, _ID2)
    raise_ = lower.conj().T
    sz = np.kron(SIGMA[3], _ID2)
    num = lower.conj().T @ lower      # sigma+ sigma- on qubit 1
    hole = lower @ lower.conj().T     # sigma- sigma+ on qubit 1

    def rhs(rho):
        out = 0.5 * g_minus * (2.0 * lower @ rho @ raise_ - num @ rho - rho @ num)
        out += 0.5 * g_plus * (2.0 * raise_ @ rho @ lower - hole @ rho - rho @ hole)
        out += g_z * (sz @ rho @ sz - rho)
        return out

    steps = max(1, math.ceil(tau / spec.dt))
    h = tau / steps
    rho = np.array(rho0.m)
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    result = DensityMatrix(rho)
    min_eig = result.min_eigenvalue()
    if min_eig < -1e-8:
        raise IntegrationInstabilityError(
            f"evolution lost positivity (min eigenvalue {min_eig:.3e}); "
            "reduce spec.dt", residual=min_eig)
    return result


def steady_state(coeffs0: PauliCoefficients, alpha) -> PauliCoefficients:
    """Long-time limit: thermal first spin times the untouched spectator marginal.

    Depends on the initial state only through its r_0j row; the result is
    [(1 + tanh(pi/alpha) sigma_z)/2] x (2 sum_j r_0j s_j), a product state.
    """
    if alpha <= 0:
        raise DomainError("steady_state requires alpha > 0")
    r = np.zeros((4, 4))
    r[0, :] = coeffs0.r[0, :]
    r[3, :] = math.tanh(math.pi / alpha) * coeffs0.r[0, :]
    return PauliCoefficients(r)
