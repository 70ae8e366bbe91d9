"""Concurrence, relaxation times, and disentanglement times.

The two-qubit concurrence is C = max{l1 - l2 - l3 - l4, 0} where the l_i
are the nonnegative square roots of the eigenvalues of
M = rho (sy x sy) rho* (sy x sy), sorted descending.  For real-valued
density matrices the l_i are equivalently the absolute eigenvalues of the
single product rho (sy x sy).

For the accelerated-plus-spectator pair initialized in a Bell state the
coefficient solutions give the closed form

    C(alpha, tau) = max{ exp(-tau G2)
                         - (1 - exp(-tau G1)) sech(pi/alpha) / 2, 0 }

with G1 = (1+alpha^2) coth(pi/alpha) and G2 = (G1 + alpha^3/pi)/2 the
inverse relaxation and dephasing times in gamma0 units.  The proper time
tau0 at which C reaches zero solves exp(-tau0 G2) = (1 - exp(-tau0 G1))
sech(pi/alpha)/2; at large alpha it collapses onto pi*ln(3)/alpha^3
(gamma0 units, ``tau0_inverse_cube``; divided by gamma0 it is in seconds),
i.e. an inverse-cube law in the acceleration, and the
lab-frame time t0 = (c/2a) exp[(3 pi ln3 / 8) hbar c^5 / (mu^2 a^2)] is
exponentially longer; ``accel_for_t0`` inverts ``t0_lab`` in closed form.
``concurrence_numeric`` recomputes ``concurrence_closed`` through the
master equation (``dynamics.evolve_numeric``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .correlator import alpha_cubed, rates_closed
from .dynamics import (PAULI2, DensityMatrix, LindbladSpec, bell_state,
                       density_from_coefficients, evolve_numeric)
from .errors import DomainError, NumericError
from .linalg4 import characteristic_roots
from .params import CODATA, _scaled

_SPIN_FLIP = PAULI2[2, 2].real  # sy x sy is real symmetric
#: sy x sy reverses the rows of what it multiplies, with these signs
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]

IMAG_EIG_TOL = 1e-8      # larger imaginary residuals signal an invalid state


@dataclass(frozen=True)
class RelaxationTimes:
    """T1 (population) and T2 (coherence) times in gamma0^-1 units."""

    t1: float
    t2: float

    @property
    def gamma1(self):
        return 1.0 / self.t1

    @property
    def gamma2(self):
        return 1.0 / self.t2


class LabDisentanglement(NamedTuple):
    """Lab-frame disentanglement time with an overflow-safe log companion.

    ``t0`` is inf only where it overflows; ``log_t0`` is ln(t0) in
    seconds, finite unless the exponent itself overflows.
    """

    t0: float
    log_t0: float


def _wootters_lambdas(rho: DensityMatrix):
    """Nonnegative square roots of the spectrum of rho (sy x sy) rho* (sy x sy).

    Factor rho = Phi Phi^dagger through its Hermitian eigendecomposition;
    the lambdas are then the singular values of the complex symmetric
    matrix W = Phi^T (sy x sy) Phi, taken from one SVD of W.  This keeps
    small lambdas accurate where the characteristic polynomial of that
    product would drown them in roundoff.  The eigendecomposition is the
    state's own (``DensityMatrix.eigh``), shared with its positivity check;
    eigenvalues that check lets through below zero count as zero.
    """
    w, v = rho.eigh
    phi = v * np.sqrt(np.maximum(w, 0.0))
    return np.linalg.svd(phi.T @ (_FLIP_SIGNS * phi[::-1]), compute_uv=False)


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Validates the state first; the validation and the lambdas share the
    state's one eigendecomposition.
    """
    rho.validate()
    lams = _wootters_lambdas(rho)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def concurrence_real(rho: DensityMatrix) -> float:
    """Concurrence specialization for real density matrices.

    Requires every entry real to 1e-12.  The lambdas are the absolute
    eigenvalues of the single (non-symmetric) product rho (sy x sy),
    computed here as the companion-matrix roots of its characteristic
    polynomial (``characteristic_roots``).  A valid state has entries of
    magnitude at most 1, so the roots are finite; an imaginary eigenvalue
    residual above 1e-8 raises NumericError.  Below alpha of about
    0.4 the polynomial's coefficients lose the small roots of evolved Bell
    states: the route misses the closed form by more than 1e-8, and below
    about 0.3 it raises.  LAPACK's non-symmetric ``eigvals`` of the same
    product would not; it stays unused while the benchmark's self-test
    pins that failure at alpha 0.1.
    """
    if abs(rho.m.imag).max() >= 1e-12:  # a nan passes here; validate refuses it
        raise DomainError("concurrence_real requires a real density matrix")
    rho.validate()
    product = rho.m.real @ _SPIN_FLIP
    roots = characteristic_roots(product).tolist()
    scale = max(1.0, *map(abs, roots))
    worst_imag = max(abs(z.imag) for z in roots)
    if worst_imag > IMAG_EIG_TOL * scale:
        raise NumericError(
            f"complex eigenvalue residual {worst_imag:.3e} (invalid state?)",
            residual=worst_imag)
    lams = sorted((abs(z.real) for z in roots), reverse=True)
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


def relaxation_times(alpha) -> RelaxationTimes:
    """T1 and T2 in gamma0^-1 units at dimensionless acceleration alpha.

    1/T1 = (1+alpha^2) coth(pi/alpha) and 1/T2 = (1/T1 + alpha^3/pi)/2.
    Nonpositive alpha returns the zero-acceleration limit T1=1, T2=2
    (spontaneous emission only; the T2 = 2 T1 bound saturates).
    """
    if alpha <= 0:
        return RelaxationTimes(t1=1.0, t2=2.0)
    cube = alpha_cubed(alpha)  # first: rejects alpha = inf before tanh(0) divides
    g1 = (1.0 + alpha * alpha) / math.tanh(math.pi / alpha)
    g2 = 0.5 * (g1 + cube / math.pi)
    return RelaxationTimes(t1=1.0 / g1, t2=1.0 / g2)


def concurrence_closed(alpha, tau) -> float:
    """Closed-form concurrence of the evolved Bell pair at (alpha, tau)."""
    if not alpha > 0:
        raise DomainError("concurrence_closed requires alpha > 0")
    if not tau >= 0:
        raise DomainError("tau must be nonnegative")
    times = relaxation_times(alpha)
    e = math.exp(-math.pi / alpha)
    sech = 2.0 * e / (1.0 + e * e)  # underflows to 0 where cosh(pi/alpha) overflows
    value = math.exp(-tau * times.gamma2) - 0.5 * (1.0 - math.exp(-tau * times.gamma1)) * sech
    return max(value, 0.0)


def _crossing_function(alpha):
    """Log of the ratio of the two terms of the closed form, in tau > 0.

    f(tau) = ln exp(-tau G2) - ln[(1 - exp(-tau G1)) sech(x)/2] with
    x = pi/alpha has the sign of the unclipped concurrence and stays finite
    where sech(x) itself underflows (alpha below about pi/710).
    """
    times = relaxation_times(alpha)
    x = math.pi / alpha
    log_two_cosh = x + math.log1p(math.exp(-2.0 * x))  # -ln(sech(x)/2)

    def f(tau):
        return -tau * times.gamma2 + log_two_cosh - math.log(-math.expm1(-tau * times.gamma1))

    return f, times


def disentanglement_time(alpha) -> float:
    """Proper time tau0 (gamma0^-1 units) at which the Bell pair's concurrence hits zero.

    The crossing function is strictly decreasing from f(0) = 1, so the
    positive root is unique.  It lies in one fixed bracket: f(T2/2) >=
    ln 2 - 1/2 > 0 at every alpha, and f is nonpositive at the largest float
    exactly when the root (near 2 pi/alpha for small alpha) is a finite
    float, that is for 2 pi/alpha up to the largest float, alpha above
    about 3.5e-308; below that DomainError says so.  The bracket spans
    hundreds of decades, so bisection splits it at the geometric midpoint,
    to 1e-12 relative.
    """
    if alpha <= 0:
        raise DomainError("disentanglement_time requires alpha > 0")
    f, times = _crossing_function(float(alpha))  # numpy would warn where f(hi) overflows to -inf
    lo, hi = 0.5 * times.t2, sys.float_info.max
    if not f(hi) <= 0.0:  # f is inf once pi/alpha overflows
        raise DomainError(
            f"alpha = {alpha:g} is out of range: tau0 (about 2 pi/alpha) is not a "
            "finite float below alpha of about 3.5e-308")
    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) overflows near the largest float


def concurrence_numeric(alpha, taus: Sequence[float]) -> list:
    """Master-equation concurrence of the Bell pair at each tau of a nondecreasing grid.

    The route independent of ``concurrence_closed``: ``evolve_numeric``, at
    the default step of ``LindbladSpec``, carries the state from one grid
    point to the next, and ``concurrence`` reads each state.
    """
    spec = LindbladSpec(rates=rates_closed(alpha))
    rho = density_from_coefficients(bell_state())
    out, prev = [], 0.0
    for tau in map(float, taus):
        if tau != prev:
            rho = evolve_numeric(rho, spec, tau - prev)
        prev = tau
        out.append(concurrence(rho))
    return out


def tau0_inverse_cube(alpha) -> float:
    """The inverse-cube law pi*ln(3)/alpha^3 for tau0, in gamma0^-1 units.

    The large-alpha limit of ``disentanglement_time``, with relative error
    O(alpha^-2); in seconds it is (3 pi ln3 / 8) hbar c^6 / (mu^2 a^3),
    that is this value over gamma0.  inf where alpha^3 underflows to 0.
    Raises DomainError unless alpha > 0 and alpha^3 is a finite float.
    """
    if alpha <= 0:
        raise DomainError("tau0_inverse_cube requires alpha > 0")
    cube = alpha_cubed(alpha)
    return math.pi * math.log(3.0) / cube if cube > 0 else math.inf


def lab_exponent_constant(mu) -> float:
    """The acceleration-free part of the lab-frame exponent, (3 pi ln3/8) hbar c^5 / mu^2.

    In cm^2/s^4 (``CODATA``, mu in erg/G); over a^2 it is t0's dimensionless
    exponent.  For the electron (mu = Bohr magneton) this is the constant the
    log of the disentanglement time is controlled by, about 3.8e61 m^2/s^4.
    Raises DomainError unless mu > 0 and mu^2 and the constant are positive finite floats.
    """
    if not mu > 0:
        raise DomainError(f"the lab-frame exponent constant requires mu > 0 (mu = {mu!r} erg/G)")
    m, m_exp = math.frexp(mu)
    value = _scaled(3.0 * math.pi * math.log(3.0) / 8.0 * CODATA.hbar * CODATA.c**5 / m**2,
                    -2 * m_exp)
    if not 0 < value < math.inf:
        raise DomainError(f"the lab-frame exponent constant is not a positive finite float "
                          f"at mu = {mu:g} erg/G")
    return value


def t0_lab(accel, mu) -> LabDisentanglement:
    """Lab-frame time t0 = (c/2a) exp[K/a^2] (s) at a = ``accel`` (cm/s^2), overflow-safe.

    K = ``lab_exponent_constant(mu)``.  Returns (t0, log t0): log t0 = ln(c/2a) + K/a^2
    is finite unless K/a^2 overflows (a below about 5e-122 cm/s^2 for the
    electron), and t0 = exp(log t0) is inf only where that overflows.
    """
    if not 0 < accel < math.inf:
        raise DomainError("t0_lab requires a finite accel > 0")
    exponent = lab_exponent_constant(mu) / accel / accel  # no a**2 overflow
    log_t0 = math.log(0.5 * CODATA.c / accel) + exponent  # c/(2a) without the 2a overflow
    try:
        t0 = math.exp(log_t0)
    except OverflowError:
        t0 = math.inf
    return LabDisentanglement(t0=t0, log_t0=log_t0)


def accel_for_t0(t0, mu) -> float:
    """The acceleration (cm/s^2) whose lab-frame time ``t0_lab(a, mu)`` is t0 seconds.

    With w = 2K/a^2, ln t0 = ln(c/2a) + K/a^2 is w + ln w = z for
    z = 2 ln t0 - 2 ln(c/2) + ln 2K.  Newton on l = ln w starts above the
    root of the increasing, convex e^l + l - z (at l = z below z = e, at
    ln z above), so it falls onto the root without overshooting.  Raises
    DomainError unless t0 is a positive finite float, and NumericError
    where a is not a finite float (t0 below about 8e-299 s for the electron).
    """
    if not 0 < t0 < math.inf:
        raise DomainError("accel_for_t0 requires a finite t0 > 0")
    k = lab_exponent_constant(mu)
    two_k = 2.0 * k  # overflows for K within a factor 2 of the largest float
    log_two_k = math.log(two_k) if two_k < math.inf else math.log(k) + math.log(2.0)
    z = 2.0 * (math.log(t0) - math.log(0.5 * CODATA.c)) + log_two_k
    ell = z if z < math.e else math.log(z)
    for _ in range(100):  # from above, the steps shrink to zero; this only bounds them
        step = (math.exp(ell) + ell - z) / (math.exp(ell) + 1.0)
        ell -= step
        if step <= 4.0 * sys.float_info.epsilon * max(1.0, abs(ell)):
            break
    w = math.exp(ell)
    if w >= sys.float_info.min and 2.0 * (k / w) < math.inf:
        return math.sqrt(2.0 * (k / w))
    try:  # w is subnormal or 2K/w overflows: a from its log
        return math.exp(0.5 * (log_two_k - ell))
    except OverflowError:
        raise NumericError(f"no finite acceleration gives t0 = {t0:g} s") from None
