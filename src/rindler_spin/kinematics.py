"""Proper-time worldlines for one-dimensional accelerated motion.

A profile a(tau) of rest-frame accelerations determines the boost angle
(rapidity) r(tau) = (1/c) * integral of a, and from it the lab-frame
trajectory

    t(tau) = integral of cosh r,      z(tau) = c * integral of sinh r,

which for constant a reduces to the familiar hyperbola
t = (c/a) sinh(a tau / c), z = (c^2/a) cosh(a tau / c).

Only motion along z is supported.  ``thomas_omega`` is a standalone
3-vector utility for the kinematic spin precession of non-collinear
boosts; for the straight-line trajectories built here it vanishes
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import DomainError, NumericError
from .params import CODATA

_QUAD_TOL = 1e-12
#: right-hand-side budget of one ``worldline`` integration; the documented
#: grids need at most about 500, ``sinusoid:1,1000`` over 0..5 about 1.8e5
MAX_RHS_EVALS = 300_000


@dataclass(frozen=True)
class AccelerationProfile:
    """Rest-frame acceleration a(tau) in cm/s^2 as a function of proper time."""

    a_of_tau: Callable[[float], float]
    description: str = ""

    @classmethod
    def constant(cls, accel):
        return cls(lambda tau: accel, f"constant a={accel:g}")

    @classmethod
    def sinusoid(cls, a0, omega):
        return cls(lambda tau: a0 * math.sin(omega * tau),
                   f"sinusoid a0={a0:g} omega={omega:g}")

    @classmethod
    def zero(cls):
        return cls(lambda tau: 0.0, "zero")


@dataclass(frozen=True)
class WorldlineEvent:
    tau: float        # proper time, s
    t: float          # coordinate time, s
    z: float          # cm
    rapidity: float   # dimensionless
    beta: float       # v/c = tanh(rapidity)


def rapidity(profile: AccelerationProfile, tau, c=CODATA.c):
    """Cumulative boost angle (1/c) * integral_0^tau a(u) du by adaptive quadrature."""
    if tau < 0:
        raise DomainError("tau must be nonnegative")
    if tau == 0:
        return 0.0
    val, err = quad(lambda u: profile.a_of_tau(u) / c, 0.0, tau,
                    epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)
    if err > max(1e-9, 1e-8 * abs(val)):
        raise NumericError(f"rapidity quadrature did not converge (residual {err:.3e})",
                           residual=err)
    return val


def worldline(profile: AccelerationProfile, tau_grid: Sequence[float], c=CODATA.c):
    """Lab-frame events along a profile, at the given proper-time grid.

    The grid must be strictly increasing and start at 0.  The rapidity and
    the nested t/z integrals are advanced together by an adaptive
    high-order integrator on the nondimensionalized system, so the inner
    rapidity is carried as a dense solution instead of being re-quadratured
    per point.  The spatial origin is z(0) = c^2/a(0) when a(0) > 0,
    matching the constant-acceleration hyperbola; otherwise z(0) = 0.

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
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            zhat0 = c / (a0 * scale) if a0 > 0 else 0.0
            sol = solve_ivp(rhs, (0.0, 1.0), (0.0, 0.0, zhat0), t_eval=taus / scale,
                            method="DOP853", rtol=1e-12, atol=1e-14)
            t, z = sol.y[1] * scale, sol.y[2] * c * scale
    except (ArithmeticError, ValueError):
        raise DomainError("worldline leaves the float range: the acceleration, cosh of "
                          "the rapidity or an event is not a finite float") from None
    if not sol.success:
        raise NumericError(f"worldline integration failed: {sol.message}")
    return [WorldlineEvent(tau=tau, t=t_i, z=z_i, rapidity=r, beta=math.tanh(r))
            for tau, r, t_i, z_i in zip(taus, sol.y[0], t, z)]


def rindler_event(accel, tau, c=CODATA.c):
    """Closed-form event on the constant-acceleration hyperbola.

    t = (c/a) sinh(a tau / c), z = (c^2/a) cosh(a tau / c); valid for
    accel > 0 only (use :func:`worldline` for free motion).
    """
    if accel <= 0:
        raise DomainError("rindler_event requires accel > 0")
    r = accel * tau / c
    return WorldlineEvent(tau=tau, t=(c / accel) * math.sinh(r),
                          z=(c**2 / accel) * math.cosh(r),
                          rapidity=r, beta=math.tanh(r))


def thomas_omega(beta, dbeta_dt):
    """Thomas angular velocity (gamma^2/(gamma+1)) * (dbeta/dt x beta), rad/s.

    ``beta`` is v/c (dimensionless 3-vector, |beta| < 1) and ``dbeta_dt``
    its lab-time derivative in 1/s.  Collinear beta and dbeta/dt give the
    zero vector.
    """
    b = np.asarray(beta, dtype=float)
    db = np.asarray(dbeta_dt, dtype=float)
    if b.shape != (3,) or db.shape != (3,):
        raise ValueError("beta and dbeta_dt must be 3-vectors")
    b2 = float(b @ b)
    if b2 >= 1.0:
        raise DomainError("|beta| must be < 1")
    gamma = 1.0 / math.sqrt(1.0 - b2)
    return (gamma**2 / (gamma + 1.0)) * np.cross(db, b)
