"""Physical constants and the dimensionless operating point.

Everything internal runs in Gaussian-cgs units (erg, cm, s, G, statC,
statV/cm); the magnetic-moment normalization of the field correlators only
closes in this system.  Downstream modules work in dimensionless form: the
acceleration enters through

    alpha = a * hbar / (c * Delta),

rates are quoted in units of the zero-acceleration spontaneous flip rate
gamma0 = (8/3) mu^2 Delta^3 / (hbar^4 c^3), and times in units of 1/gamma0.
This module owns the conversions to and from physical units; they read the
snapshot ``CODATA``, and only ``correlator.wightman_rindler`` takes another.
Each conversion forms its product of powers on the ``math.frexp`` mantissas of
its inputs and rescales once (``_scaled``), so no intermediate leaves the normal range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class PhysicalConstants:
    """Gaussian-cgs constants; the unit conversions read the CODATA 2018 set ``CODATA``.

    ``electron_charge`` is the positive elementary charge; the electron's
    signed charge is ``-electron_charge``.
    """

    hbar: float = 1.054571817e-27          # erg s
    c: float = 2.99792458e10               # cm/s (exact)
    electron_charge: float = 4.80320471257e-10  # statC
    electron_mass: float = 9.1093837015e-28     # g
    bohr_magneton: float = 9.2740100783e-21     # erg/G
    boltzmann: float = 1.380649e-16        # erg/K (exact)

    def __post_init__(self):
        for name in ("hbar", "c", "electron_charge", "electron_mass",
                     "bohr_magneton", "boltzmann"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be strictly positive and finite")


CODATA = PhysicalConstants()


def finite(value, name):
    """``value``, or DomainError when it is not a finite float."""
    if not math.isfinite(value):
        raise DomainError(f"{name} is not a finite float ({value!r})")
    return value


def _scaled(mantissa, exponent):
    """mantissa * 2**exponent, rounded once (exact where normal); +-inf where that overflows."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.copysign(math.inf, mantissa)


def alpha_of(accel, gap):
    """Dimensionless acceleration alpha = a*hbar/(c*Delta).

    ``accel`` in cm/s^2 (nonnegative), ``gap`` in erg (positive); DomainError
    where alpha is not a finite float, or is positive but below the float range.
    """
    if not gap > 0:
        raise DomainError("gap must be strictly positive")
    if not accel >= 0:
        raise DomainError("accel must be nonnegative")
    (a, a_exp), (g, g_exp) = math.frexp(accel), math.frexp(gap)
    alpha = _scaled(a * CODATA.hbar / (CODATA.c * g), a_exp - g_exp)
    if alpha == 0 and accel > 0:
        raise DomainError(f"alpha underflows at accel = {accel!r} cm/s^2, gap = {gap!r} erg")
    return finite(alpha, "alpha")


def energy_gap(mu, b_z):
    """Zeeman gap Delta = 2*mu*B_z (erg) of a moment mu (erg/G) in B_z (G).

    DomainError unless mu and b_z are positive and the gap is a finite float.
    """
    if not (mu > 0 and b_z > 0):
        raise DomainError("mu and b_z must be strictly positive")
    return finite(2.0 * mu * b_z, "the energy gap")


def acceleration_from_field(e_z):
    """Rest-frame acceleration of an electron in an axial electric field.

    With the electron's signed charge -e, a = -(q/m) E_z = +(e/m) E_z;
    ``e_z`` in statV/cm, result in cm/s^2.  Raises DomainError where the
    result is not a finite float (a nan or huge ``e_z``).
    """
    return finite(CODATA.electron_charge / CODATA.electron_mass * e_z,
                   f"the acceleration at e_z = {e_z!r} statV/cm")


def gamma0(mu, gap):
    """Zero-acceleration spontaneous flip rate (8/3) mu^2 Delta^3 / (hbar^4 c^3).

    Returns 1/s; this is the rate unit of every dimensionless module.
    Raises DomainError where the rate is not a positive finite float.
    """
    if mu <= 0 or gap <= 0:
        raise DomainError("mu and gap must be strictly positive")
    (m, m_exp), (g, g_exp) = math.frexp(mu), math.frexp(gap)
    rate = _scaled((8.0 / 3.0) * m**2 * g**3 / (CODATA.hbar**4 * CODATA.c**3),
                   2 * m_exp + 3 * g_exp)
    if not 0 < rate < math.inf:
        raise DomainError(f"gamma0 is not a positive finite float at mu = {mu:g} erg/G, "
                          f"gap = {gap:g} erg")
    return rate


def unruh_temperature(accel):
    """Temperature hbar*a/(2*pi*c*k) of the thermal bath seen at acceleration a.

    ``accel`` in cm/s^2 (nonnegative), result in K; DomainError where the
    temperature is not a finite float.
    """
    if not accel >= 0:
        raise DomainError("accel must be nonnegative")
    a, a_exp = math.frexp(accel)
    return finite(_scaled(CODATA.hbar * a / (2.0 * math.pi * CODATA.c * CODATA.boltzmann),
                          a_exp), "the Unruh temperature")
