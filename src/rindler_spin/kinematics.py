"""Proper-time worldlines for one-dimensional accelerated motion.

A profile a(tau) of rest-frame accelerations determines the boost angle
(rapidity) r(tau) = (1/c) * integral of a, and from it the lab-frame
trajectory

    t(tau) = integral of cosh r,      z(tau) = c * integral of sinh r,

which for constant a reduces to the familiar hyperbola
t = (c/a) sinh(a tau / c), z = (c^2/a) cosh(a tau / c).  ``worldline``
integrates the general case with LSODA (Petzold 1983, the compiled solver
behind ``scipy.integrate.odeint``) and ``rindler_event`` gives the closed
form that it is checked against, with ``rindler_residual`` the distance
between the two.

Only motion along z is supported.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import ODEintWarning, odeint
from scipy.integrate import solve_ivp  # noqa: F401  (the bench tracer wraps it by this name)

from .errors import DomainError, NumericError
from .params import CODATA, finite

#: right-hand-side budget of one ``worldline`` integration; the documented
#: grids need at most about 500, ``sinusoid:1,1000`` over 0..5 about 1.8e5
MAX_RHS_EVALS = 300_000
#: how ``odeint`` reports a run that reached every grid point, or a one-point grid
_LSODA_DONE = ("Integration successful.", "Nothing was done; the integration time was 0.")


@dataclass(frozen=True)
class AccelerationProfile:
    """Rest-frame acceleration a(tau) in cm/s^2 as a function of proper time."""

    a_of_tau: Callable[[float], float]

    @classmethod
    def constant(cls, accel):
        return cls(lambda tau: accel)

    @classmethod
    def sinusoid(cls, a0, omega):
        return cls(lambda tau: a0 * math.sin(omega * tau))


@dataclass(frozen=True)
class WorldlineEvent:
    tau: float        # proper time, s
    t: float          # coordinate time, s
    z: float          # cm
    rapidity: float   # dimensionless
    beta: float       # v/c = tanh(rapidity)


def worldline(profile: AccelerationProfile, tau_grid: Sequence[float], c=CODATA.c):
    """Lab-frame events along a profile, at the given proper-time grid.

    The grid must be strictly increasing and start at 0.  The rapidity and
    the nested t/z integrals are advanced together on the nondimensionalized
    system by one call of LSODA (``scipy.integrate.odeint``), whose
    stepping, error control and interpolation to the grid run in compiled
    code, so the inner rapidity is carried along instead of being
    re-quadratured per point.  The spatial origin is z(0) = c^2/a(0) when
    a(0) > 0, matching the constant-acceleration hyperbola; otherwise z(0) = 0.

    Raises DomainError for a bad grid or where the trajectory leaves the
    float range, and NumericError when the integration fails or needs more
    than MAX_RHS_EVALS right-hand-side evaluations (too fast a profile).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise DomainError("tau_grid must be a nonempty 1-D sequence")
    if taus[0] != 0.0:
        raise DomainError("tau_grid must start at 0")
    if taus.size > 1 and not np.all(np.diff(taus) > 0):
        raise DomainError("tau_grid must be strictly increasing")

    scale = taus[-1] if taus[-1] > 0 else 1.0
    a0 = profile.a_of_tau(0.0)
    evals = 0

    def rhs(u, y):
        nonlocal evals
        evals += 1
        if evals > MAX_RHS_EVALS:
            raise NumericError(f"worldline integration exceeded {MAX_RHS_EVALS} "
                               "right-hand-side evaluations")
        rate = profile.a_of_tau(u * scale) * scale / c
        if not math.isfinite(rate):  # cosh and sinh raise OverflowError themselves
            raise FloatingPointError
        return (rate, math.cosh(y[0]), math.sinh(y[0]))

    try:  # every float-range failure: overflow, 0 * inf, sin(inf), a non-finite z(0)
        with np.errstate(over="raise", divide="raise", invalid="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", ODEintWarning)  # info["message"] tells a failed run
            zhat0 = c / (a0 * scale) if a0 > 0 else 0.0
            # an explicit first step: LSODA's own guess refuses huge rates as illegal input
            rate0 = abs(a0 * scale / c)
            h0 = min(1e-3, 0.1 / rate0) if rate0 > 0 else 1e-3
            y, info = odeint(rhs, (0.0, 0.0, zhat0), taus / scale, tfirst=True,
                             rtol=1e-13, atol=1e-15, h0=h0, mxstep=MAX_RHS_EVALS,
                             full_output=True)
            t, z = y[:, 1] * scale, y[:, 2] * c * scale
    except (ArithmeticError, ValueError):
        raise DomainError("worldline leaves the float range: the acceleration, cosh of "
                          "the rapidity or an event is not a finite float") from None
    if info["message"] not in _LSODA_DONE:
        raise NumericError(f"worldline integration failed: {info['message']}")
    return [WorldlineEvent(tau=tau, t=t_i, z=z_i, rapidity=r, beta=math.tanh(r))
            for tau, r, t_i, z_i in zip(taus, y[:, 0], t, z)]


def rindler_event(accel, tau, c=CODATA.c):
    """Closed-form event on the constant-acceleration hyperbola.

    t = (c/a) sinh(a tau / c), z = (c^2/a) cosh(a tau / c); valid for
    accel > 0 only (use :func:`worldline` for free motion).  Raises
    DomainError where t or z is not a finite float.
    """
    if accel <= 0:
        raise DomainError("rindler_event requires accel > 0")
    r = accel * tau / c
    try:
        t, z = (c / accel) * math.sinh(r), (c**2 / accel) * math.cosh(r)
    except OverflowError:  # sinh or cosh of a rapidity past ~710
        t = z = math.inf
    if not (math.isfinite(t) and math.isfinite(z)):  # also c/a overflowed times sinh(0), or nan
        raise DomainError(f"rindler_event leaves the float range at accel = {accel:g}, "
                          f"tau = {tau:g}")
    return WorldlineEvent(tau=tau, t=t, z=z, rapidity=r, beta=math.tanh(r))


def rindler_residual(event, accel, c=CODATA.c):
    """Largest relative distance of ``event``'s t and z from the hyperbola of ``accel``.

    The reference is ``rindler_event(accel, event.tau, c)``; the relative
    distances are floored at the hyperbola's scales, c/a for t and c^2/a for z.
    Raises DomainError where the residual is not a finite float.
    """
    ref = rindler_event(accel, event.tau, c)
    return finite(max(abs(event.t - ref.t) / max(abs(ref.t), c / accel),
                      abs(event.z - ref.z) / max(abs(ref.z), c**2 / accel)),
                  "the worldline residual")
