"""Two-qubit density operators in the Pauli tensor basis and their evolution.

A two-spin density operator is expanded as rho = sum_ij r_ij s_i x s_j
over the sixteen products of {identity, sigma_x, sigma_y, sigma_z}; the
coefficients are real, r_00 = 1/4 fixes the trace, and purity bounds the
remaining fifteen inside a generalized Bloch ball.

The dissipator acts on the first (accelerated) spin only, with jump
operators sqrt(g-) sigma-, sqrt(g+) sigma+, sqrt(g_z) sigma_z in gamma0
units, each entering as g D[J] with D[J] rho = J rho J^+ - {J^+ J, rho}/2.
In the coefficient picture the sixteen ODEs decouple row by row:

    r_0j' = 0
    r_1j' = -(g- + g+ + 4 g_z)/2 * r_1j      (same for r_2j)
    r_3j' = (g- - g+) r_0j - (g- + g+) r_3j

and ``evolve_analytic`` applies their closed-form solutions.  As an
independent route, ``evolve_numeric`` builds the generator of the full
master equation from the jump operators themselves (the 2x2 superoperator
of the accelerated spin vectorized to 4x4, Havel, J. Math. Phys. 44, 534
(2003), then taken to its real Pauli coefficient basis; the spectator
index of r_ij passes through untouched), forms the matrix of one
classical RK4 step and raises it to the number of steps; the power is
cached per (rates, step length, step count), so the equal segments of a
time grid share it.  In that basis the identity row of the generator is
exactly zero, so every power of the step matrix keeps r_0j, and with it
the trace, exact.  All evolution happens in the renormalized (interaction)
picture; the residual coherent rotation is a local unitary on the first
spin and drops out of every observable computed downstream (populations
along z, concurrence), so it is never applied.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .correlator import RateSet
from .errors import BlochBoundWarning, DomainError, NumericError
from .linalg4 import jacobi_hermitian

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: sixteen tensor-product basis operators stacked (4, 4, 4, 4), PAULI2[i, j] = s_i x s_j
PAULI2 = np.array([[np.kron(si, sj) for sj in SIGMA] for si in SIGMA])
PAULI2.setflags(write=False)
#: PAULI2 as a 16x16 matrix, row 4i+j the flattened s_i x s_j, and its conjugate
_BASIS = PAULI2.reshape(16, 16)
_BASIS_CONJ = _BASIS.conj()
_BASIS_CONJ.setflags(write=False)

# sigma- = (sigma_x + i sigma_y)/2 maps the excited level (sigma_z = -1) to
# the ground level (sigma_z = +1) of the gap Hamiltonian -mu B sigma_z
_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
#: the single-spin Pauli matrices as a 4x4 matrix, row i the flattened s_i
_SIGMA_ROWS = np.array(SIGMA).reshape(4, 4)


def _pauli_generator(jump):
    """D[J] for J = jump on the first spin, as a real 4x4 map of its Pauli index.

    Row-major vec(A rho B) = (A x B^T) vec(rho) gives the 2x2 superoperator;
    with S the 4 vectorized Pauli matrices, vec(rho) = S^T r and
    r = conj(S) vec(rho) / 2, which conjugates it to the Pauli basis.  On
    the pair it acts as G @ r, the spectator index j of r_ij untouched.
    """
    jdj = jump.conj().T @ jump
    eye = np.eye(2)
    superop = np.kron(jump, jump.conj()) - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T))
    gen = (_SIGMA_ROWS.conj() @ superop @ _SIGMA_ROWS.T).real / 2.0
    gen.setflags(write=False)
    return gen


#: Pauli-basis generators of the sigma-, sigma+ and sigma_z channels at unit rate
_GEN_MINUS = _pauli_generator(_SIGMA_MINUS)
_GEN_PLUS = _pauli_generator(_SIGMA_MINUS.conj().T)
_GEN_Z = _pauli_generator(SIGMA[3])
_EYE4 = np.eye(4)
_EYE4.setflags(write=False)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
#: index pairs (i, j), i <= j, of the upper triangle of a 4x4 matrix
_UPPER = tuple((i, j) for i in range(4) for j in range(i, 4))


@dataclass(frozen=True, eq=False)
class PauliCoefficients:
    """Real 4x4 coefficient array r_ij of the Pauli tensor expansion.

    Compared and hashed by identity (``eq=False``): the array field has no
    single truth value.
    """

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=float)
        if r.shape != (4, 4):
            raise DomainError("coefficients must form a 4x4 real array")
        if not all(map(math.isfinite, r.reshape(16).tolist())):
            raise DomainError("coefficients must be finite")
        if not abs(r[0, 0] - 0.25) <= TRACE_TOL:
            raise DomainError("r[0][0] must be 1/4 (unit trace)")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense 4x4 complex density operator.

    Construction does not validate, so near-boundary numerics can be
    probed; call :meth:`validate` (or the operations that require valid
    input) to enforce hermiticity, unit trace, and positivity.  The
    finite, Hermitian and unit-trace checks read the sixteen entries as
    Python scalars, which costs less than numpy on a 4x4.  Each instance
    runs those checks and its one Hermitian eigensolve at most once,
    because ``m`` is read-only.  Compared and hashed by identity.
    """

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError("density matrix must be 4x4")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @cached_property
    def eigh(self):
        """(values ascending, vectors) of ``m``, read-only, from one eigensolve."""
        w, v = jacobi_hermitian(self.m)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @cached_property
    def _structural_defect(self):
        """Why ``m`` fails the finite, Hermitian or unit-trace check, or None."""
        m = self.m.tolist()
        if not all(map(cmath.isfinite, m[0] + m[1] + m[2] + m[3])):
            return "density matrix has non-finite entries"
        for i, j in _UPPER:
            if abs(m[i][j] - m[j][i].conjugate()) > HERMITICITY_TOL:
                return "density matrix is not Hermitian"
        # the summation order of ndarray.trace
        trace = m[0][0] + m[1][1] + m[2][2] + m[3][3]
        if abs(trace.real - 1.0) > TRACE_TOL or abs(trace.imag) > TRACE_TOL:
            return "density matrix must have unit trace"
        return None

    def validate(self):
        if self._structural_defect is not None:
            raise DomainError(self._structural_defect)
        if self.min_eigenvalue() < -PSD_TOL:
            raise DomainError("density matrix has a negative eigenvalue")
        return self

    def min_eigenvalue(self):
        return float(self.eigh[0][0])


@dataclass(frozen=True)
class LindbladSpec:
    """Rates plus integrator step for the numeric route, in gamma0 units.

    ``dt`` defaults to min(1e-3, 0.05/stiffest), stiffest = max(g-, g+, 4 g_z);
    an explicit ``dt`` wins, subject to dt*stiffest < 0.1.
    """

    rates: RateSet
    dt: Optional[float] = None

    def __post_init__(self):
        stiffest = max(self.rates.g_minus, self.rates.g_plus, 4.0 * self.rates.g_z)
        if self.dt is None:
            object.__setattr__(self, "dt", min(1e-3, 0.05 / max(stiffest, 1e-12)))
        if not self.dt > 0:
            raise DomainError("dt must be positive")
        if self.dt * stiffest >= 0.1:
            raise DomainError(
                f"dt too large for these rates (dt*max_rate = {self.dt * stiffest:.3g}, "
                "require < 0.1)")


def _pauli_coefficients(m):
    """The real 4x4 array r_ij = Tr(m s_i x s_j)/4 of a Hermitian 4x4 matrix m."""
    # Tr(m P) = sum_ab m_ab conj(P_ab) for each Hermitian basis operator P
    return (_BASIS_CONJ @ m.reshape(16)).real.reshape(4, 4) / 4.0


def coeffs_from_density(rho: DensityMatrix) -> PauliCoefficients:
    """Extract r_ij = Tr(rho s_i x s_j)/4; inverse of density_from_coefficients.

    Requires a finite, Hermitian, unit-trace matrix (positivity is not checked).
    """
    if rho._structural_defect is not None:
        raise DomainError(rho._structural_defect)
    return PauliCoefficients(_pauli_coefficients(rho.m))


def density_from_coefficients(coeffs: PauliCoefficients) -> DensityMatrix:
    """Assemble rho = sum_ij r_ij s_i x s_j; Hermitian by construction.

    Warns (BlochBoundWarning) when the coefficients lie outside the
    generalized Bloch ball; such a matrix is not positive semidefinite.
    """
    norm = bloch_norm(coeffs)
    if norm > 1.0 + 1e-9:
        warnings.warn(f"Bloch norm {norm:.6f} exceeds 1; state may be unphysical",
                      BlochBoundWarning, stacklevel=2)
    return DensityMatrix((coeffs.r.reshape(16) @ _BASIS).reshape(4, 4))


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
    rest = coeffs.r.reshape(16)[1:]
    return (16.0 / 3.0) * float(rest @ rest)


def evolve_analytic(coeffs0: PauliCoefficients, rates: RateSet, tau) -> PauliCoefficients:
    """Closed-form coefficient evolution to dimensionless time tau (gamma0 units)."""
    if not tau >= 0:
        raise DomainError("tau must be nonnegative")
    flip_sum = rates.g_minus + rates.g_plus
    coherence_rate = 0.5 * (flip_sum + 4.0 * rates.g_z)

    decay = math.exp(-coherence_rate * tau) if coherence_rate > 0 else 1.0
    relax = math.exp(-flip_sum * tau) if flip_sum > 0 else 1.0
    r = coeffs0.r * np.array([[1.0], [decay], [decay], [relax]])
    if flip_sum > 0:
        asympt = (rates.g_minus - rates.g_plus) / flip_sum
        r[3] += asympt * coeffs0.r[0] * (1.0 - relax)
    return PauliCoefficients(r)


@lru_cache(maxsize=64)
def _step_power(g_minus, g_plus, g_z, h, steps):
    """P^steps for the RK4 step matrix P of length h at these rates; read-only.

    Keyed on the rates as well as (h, steps), so one alpha never serves
    another; 64 entries hold every segment length of a few time grids.
    """
    hg = h * (g_minus * _GEN_MINUS + g_plus * _GEN_PLUS + g_z * _GEN_Z)
    step = _EYE4 + hg @ (_EYE4 + (hg / 2.0) @ (_EYE4 + (hg / 3.0) @ (_EYE4 + hg / 4.0)))
    power = np.linalg.matrix_power(step, steps)
    power.setflags(write=False)
    return power


def evolve_numeric(rho0: DensityMatrix, spec: LindbladSpec, tau) -> DensityMatrix:
    """Fixed-step classical RK4 integration of the master equation to time tau.

    The jump operators act on the first qubit (identity on the spectator).
    With G the Pauli-basis generator, one RK4 step of length h is the
    matrix P = I + hG(I + hG/2(I + hG/3(I + hG/4))), so ceil(tau/dt) steps
    are the single power P^steps, cached per (rates, h, steps).
    Preserves the trace exactly; raises NumericError if the result develops
    an eigenvalue below -1e-8, and DomainError where the step count tau/dt
    overflows.
    """
    if not tau >= 0:
        raise DomainError("tau must be nonnegative")
    rho0.validate()
    if tau == 0:
        return DensityMatrix(rho0.m)

    ratio = tau / spec.dt
    if not math.isfinite(ratio):
        raise DomainError(f"the RK4 step count tau/dt is beyond the float range at these "
                          f"rates (tau = {tau:g}, step length dt = {spec.dt:.3g})")
    steps = max(1, math.ceil(ratio))
    rates = spec.rates
    # the equal segments of a linspace grid differ in the last ulp; h rounded
    # to 13 significant digits gives them one cache key and one power
    h = float(f"{tau / steps:.12e}")
    power = _step_power(rates.g_minus, rates.g_plus, rates.g_z, h, steps)
    # rho0.validate() has run the structural check coeffs_from_density repeats
    r = power @ _pauli_coefficients(rho0.m)

    result = DensityMatrix((r.reshape(16) @ _BASIS).reshape(4, 4))
    min_eig = result.min_eigenvalue()
    if min_eig < -1e-8:
        raise NumericError(
            f"evolution lost positivity (min eigenvalue {min_eig:.3e}); "
            "reduce spec.dt", residual=min_eig)
    return result


def steady_state(coeffs0: PauliCoefficients, alpha) -> PauliCoefficients:
    """Long-time limit: thermal first spin times the untouched spectator marginal.

    Depends on the initial state only through its r_0j row; the result is
    [(1 + tanh(pi/alpha) sigma_z)/2] x (2 sum_j r_0j s_j), a product state.
    """
    if not alpha > 0:
        raise DomainError("steady_state requires alpha > 0")
    r = np.zeros((4, 4))
    r[0, :] = coeffs0.r[0, :]
    r[3, :] = math.tanh(math.pi / alpha) * coeffs0.r[0, :]
    return PauliCoefficients(r)
