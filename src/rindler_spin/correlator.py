"""Magnetic-field two-point functions and the spin transition rates.

Along a static path the vacuum correlator of each magnetic-field component
is G = (4 hbar c / pi) (x - x')^-4; along the constant-acceleration
hyperbola it becomes

    G(s) = (hbar a^4 / 4 pi c^7) * sinh^-4( a s / 2 c ),

with the coincidence singularity regulated by an i*epsilon shift of the
proper-time separation s.  The Markovian flip rates are Fourier transforms
of G at the gap frequency; their closed forms (in units of gamma0, with
n the Bose occupation at the bath temperature) are

    g+ = (1 + alpha^2) n,        g- = (1 + alpha^2) (n + 1),
    g_z = alpha^3 / (4 pi),

and ``rates_numeric`` recomputes all three by direct regulated quadrature
plus Richardson extrapolation of the regulator to zero, as an independent
check on the contour-integration results.  That oracle integrates its own
dimensionless form of G (s in units of c/a, the prefactor folded into
3 alpha^3 / 16 pi); it does not call ``wightman_rindler``, which is the
correlator in physical units and is checked by its own tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy.integrate import quad

from .errors import DomainError, NumericError, SingularityError
from .params import CODATA

#: refuse the quadrature route below this alpha: the integrand oscillates
#: with period 2*pi*alpha, too fast for the default window/regulators.
MIN_NUMERIC_ALPHA = 0.1


@dataclass(frozen=True)
class RateSet:
    """Transition and dephasing rates at one operating point, in gamma0 units."""

    alpha: float
    n: float         # Bose occupation of the bath
    g_plus: float    # excitation rate / gamma0
    g_minus: float   # de-excitation rate / gamma0
    g_z: float       # pure dephasing rate / gamma0
    residual: Optional[float] = None  # extrapolation residual (numeric route only)

    def __post_init__(self):
        if min(self.g_plus, self.g_minus, self.g_z) < 0 or self.n < 0:
            raise DomainError("rates and occupation must be nonnegative")
        if self.g_minus < self.g_plus * (1.0 - 1e-9):
            raise DomainError("de-excitation may not be slower than excitation")


@dataclass(frozen=True)
class EpsilonSchedule:
    """Regulator ladder for the numeric rate integrals.

    ``epsilons`` are the i*epsilon shifts in units of c/a, strictly
    decreasing; ``window`` is the half-width of the integration range in the
    same units.  The integrand decays like exp(-2|s|), so the default
    window 40 leaves truncation error ~e^-80.
    """

    epsilons: Sequence[float] = (0.2, 0.1, 0.05, 0.025)
    window: float = 40.0

    def __post_init__(self):
        eps = tuple(self.epsilons)
        if len(eps) < 2 or any(e <= 0 for e in eps):
            raise DomainError("need at least two strictly positive regulators")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise DomainError("regulators must be strictly decreasing")
        if self.window <= 0:
            raise DomainError("window must be positive")
        object.__setattr__(self, "epsilons", eps)


def wightman_flat(interval_sq, constants=CODATA):
    """Flat-space correlator (4 hbar c / pi) / interval_sq^2.

    ``interval_sq`` is the (regulated, complex) squared spacetime interval
    in cm^2; for a static path with time separation s and regulator eps it
    is c^2 (s - i eps)^2.
    """
    w = complex(interval_sq)
    if w == 0:
        raise SingularityError("correlator evaluated at zero interval; regulate with i*eps")
    return 4.0 * constants.hbar * constants.c / math.pi / (w * w)


def wightman_rindler(accel, s, eps, constants=CODATA):
    """Correlator along the constant-acceleration path at separation s - i*eps.

    ``accel`` in cm/s^2 (positive), ``s`` and ``eps`` in seconds.
    """
    if accel <= 0:
        raise DomainError("wightman_rindler requires accel > 0")
    if s == 0 and eps == 0:
        raise SingularityError("on-diagonal correlator needs a nonzero regulator")
    a, c, hbar = accel, constants.c, constants.hbar
    arg = a * complex(s, -eps) / (2.0 * c)
    return hbar * a**4 / (4.0 * math.pi * c**7) * cmath.sinh(arg) ** -4


def bose_occupation(alpha):
    """Thermal occupation 1/(exp(2 pi / alpha) - 1) of the bath mode at the gap.

    Nonpositive alpha returns 0 (zero-acceleration vacuum).
    """
    if alpha <= 0:
        return 0.0
    x = 2.0 * math.pi / alpha
    if x > 700.0:  # expm1 would overflow; occupation is exp(-x) to ~exp(-2x)
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def alpha_cubed(alpha):
    """alpha^3 as a float; DomainError where it leaves the float range (alpha > ~5.6e102)."""
    try:
        cube = float(alpha) ** 3
    except OverflowError:
        cube = math.inf
    if not math.isfinite(cube):
        raise DomainError(f"alpha = {alpha:g} is out of range: alpha^3 is not a finite float")
    return cube


def rates_closed(alpha):
    """Closed-form rates in gamma0 units at dimensionless acceleration alpha."""
    if alpha < 0:
        raise DomainError("alpha must be nonnegative")
    g_z = alpha_cubed(alpha) / (4.0 * math.pi)  # first: rejects alpha = inf before n divides
    n = bose_occupation(alpha)
    boost = 1.0 + alpha * alpha
    return RateSet(alpha=alpha, n=n, g_plus=boost * n, g_minus=boost * (n + 1.0), g_z=g_z)


# dimensionless integrals: with s' = a s / c and eps' in c/a units,
#   g+-/gamma0 = (3 alpha^3 / 16 pi) * Int_{-inf}^{inf} e^{-+ i s'/alpha} / sinh^4((s'-i eps')/2) ds'
#   g_z/gamma0 = (3 alpha^3 / 16 pi) * Int_0^{inf} Re sinh^-4((s'-i eps')/2) ds'
# and the real part of the flip integrand is even in s', so both reduce to
# half-line quadratures of smooth (regulated) real integrands.

def _halfline_integral(omega, eps, window):
    def integrand(s):
        return (cmath.exp(-1j * omega * s) / cmath.sinh((s - 1j * eps) / 2.0) ** 4).real

    interior = [p for p in (eps, 10.0 * eps, 1.0, 5.0) if 0.0 < p < window]
    out = quad(integrand, 0.0, window, points=interior, limit=800,
               epsabs=1e-11, epsrel=1e-11, full_output=1)
    val, abserr = out[0], out[1]
    if len(out) == 4 and abserr > 1e-7 * max(1.0, abs(val)):
        raise NumericError(f"rate quadrature failed: {out[3].strip()}", residual=abserr)
    return val


def _extrapolate_to_zero(xs, ys):
    """Neville polynomial extrapolation to x=0; returns (value, last-step change)."""
    t = list(ys)
    n = len(t)
    best = [t[0]]
    for k in range(1, n):
        for i in range(n - k):
            t[i] = (xs[i] * t[i + 1] - xs[i + k] * t[i]) / (xs[i] - xs[i + k])
        best.append(t[0])
    return best[-1], abs(best[-1] - best[-2])


def rates_numeric(alpha, schedule: EpsilonSchedule = EpsilonSchedule(),
                  residual_tol=1e-2):
    """Rates by regulated quadrature, extrapolated in the regulator.

    For each epsilon in the schedule the three integrals are evaluated by
    adaptive quadrature over the truncated window; a polynomial (Richardson)
    extrapolation in epsilon then removes the regulator.  The attached
    ``residual`` is the change produced by the last extrapolation order,
    a conservative bound on the extrapolation error.  Raises for
    alpha < 0.1, where the oscillation outruns the default schedule, and
    when the residual exceeds ``residual_tol`` relative to the rate.

    The integrand is the dimensionless sinh^-4((s - i eps)/2) of
    ``_halfline_integral``, not a call to ``wightman_rindler``.
    """
    if alpha < MIN_NUMERIC_ALPHA:
        raise DomainError(
            f"rates_numeric supports alpha >= {MIN_NUMERIC_ALPHA} only; "
            "use rates_closed below that")
    eps_list = list(schedule.epsilons)
    prefactor = 3.0 * alpha_cubed(alpha) / (16.0 * math.pi)

    plus_vals, minus_vals, z_vals = [], [], []
    for eps in eps_list:
        # even real part: full-line flip integrals are twice the half line
        plus_vals.append(2.0 * prefactor * _halfline_integral(1.0 / alpha, eps, schedule.window))
        minus_vals.append(2.0 * prefactor * _halfline_integral(-1.0 / alpha, eps, schedule.window))
        z_vals.append(prefactor * _halfline_integral(0.0, eps, schedule.window))

    out = {}
    worst = 0.0
    for key, vals in (("g_plus", plus_vals), ("g_minus", minus_vals), ("g_z", z_vals)):
        value, change = _extrapolate_to_zero(eps_list, vals)
        rel = change / max(abs(value), 1e-30)
        if rel > residual_tol:
            raise NumericError(
                f"regulator extrapolation of {key} did not settle "
                f"(relative residual {rel:.3e})", residual=rel)
        out[key] = value
        worst = max(worst, rel)

    n = bose_occupation(alpha)
    return RateSet(alpha=alpha, n=n, g_plus=max(out["g_plus"], 0.0),
                   g_minus=out["g_minus"], g_z=max(out["g_z"], 0.0),
                   residual=worst)
