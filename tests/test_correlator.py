import math

import numpy as np
import pytest

from rindler_spin import correlator
from rindler_spin import (CODATA, DomainError, NumericError, PhysicalConstants,
                          RateSet, SingularityError, bose_occupation, oracle_residual,
                          rates_closed, rates_numeric, wightman_flat, wightman_rindler)

C, HBAR = CODATA.c, CODATA.hbar

# frozen oracle values, mpmath dps=50
N_ALPHA1 = 0.0018709365986606441
G_PLUS_1 = 0.0037418731973212882
G_MINUS_1 = 2.0037418731973213
G_Z_1 = 0.079577471545947668       # 1/(4 pi)
EXP_M2PI = 0.0018674427317079888
SINH_HALF_PI_M4 = 0.035653968688685669
N_ALPHA100 = 15.420729952463711
G_PI_1E26 = 13.747674947239704     # Rindler correlator at s = pi c/a, a = 1e26


def test_flat_static_substitution():
    s, eps = 2.0e-10, 1.0e-13
    interval_sq = C**2 * complex(s, -eps) ** 2
    expected = 4.0 * HBAR / (math.pi * C**3 * complex(s, -eps) ** 4)
    assert wightman_flat(interval_sq) == pytest.approx(expected, rel=1e-14)


def test_flat_singularity():
    with pytest.raises(SingularityError):
        wightman_flat(0.0)


def test_flat_evenness():
    # G(-z) = G(z): the squared interval is insensitive to the sign flip
    s, eps = 3.0e-10, 2.0e-13
    assert wightman_flat(C**2 * complex(-s, eps) ** 2) == wightman_flat(
        C**2 * complex(s, -eps) ** 2)


def test_rindler_evenness():
    # G(-z) = G(z): flipping s with the conjugate-symmetric regulator
    a, s, eps = 1e26, 2.0 * C / 1e26, 0.1 * C / 1e26
    assert wightman_rindler(a, -s, -eps) == pytest.approx(
        wightman_rindler(a, s, eps), rel=1e-14)


def test_rindler_exponential_decay():
    # sinh^-4 falls off like exp(-2 a s / c); ratio over one c/a within 5% of e^-2
    a = 1e26
    g10 = abs(wightman_rindler(a, 10.0 * C / a, 1e-30))
    g11 = abs(wightman_rindler(a, 11.0 * C / a, 1e-30))
    assert g11 / g10 == pytest.approx(math.exp(-2.0), rel=0.05)


def test_rindler_at_pi():
    a = 1e26
    value = wightman_rindler(a, math.pi * C / a, 0.0)
    assert value.imag == pytest.approx(0.0, abs=1e-12 * abs(value))
    assert value.real > 0
    assert value.real == pytest.approx(
        HBAR * a**4 / (4.0 * math.pi * C**7) * SINH_HALF_PI_M4, rel=1e-12)
    assert value.real == pytest.approx(G_PI_1E26, rel=1e-12)


def test_rindler_on_shifted_line_is_sech4():
    # eps = pi c/a puts s - i eps on the line the rate oracle integrates along
    unit = PhysicalConstants(hbar=1.0, c=1.0)
    for x in np.linspace(0.0, 40.0, 401):
        value = 4.0 * math.pi * wightman_rindler(1.0, x, math.pi, unit)
        sech4 = math.cosh(x / 2.0) ** -4
        assert abs(value.real - sech4) <= 1e-14 * sech4
        assert abs(value.imag) <= 1e-15


def test_rindler_flat_limit():
    # small a: sinh^-4(a s/2c) -> (a s/2c)^-4, the static-path flat correlator
    s, eps = 1.0, 1e-3
    a = 5e-4 * C
    flat = wightman_flat(C**2 * complex(s, -eps) ** 2)
    rind = wightman_rindler(a, s, eps)
    assert abs(rind - flat) / abs(flat) < 1e-6


def test_rindler_flat_limit_pointwise():
    a = 1e-4 * C
    for s in np.linspace(0.5, 5.0, 10):
        flat = wightman_flat(C**2 * complex(s, -1e-3) ** 2)
        rind = wightman_rindler(a, s, 1e-3)
        assert abs(rind - flat) / abs(flat) < 1e-6


def test_rindler_domain():
    with pytest.raises(DomainError):
        wightman_rindler(0.0, 1.0, 1e-3)
    with pytest.raises(SingularityError):
        wightman_rindler(1e26, 0.0, 0.0)


def test_bose_occupation_limits():
    assert bose_occupation(0.0) == 0.0
    assert bose_occupation(-1.0) == 0.0
    assert bose_occupation(1e-4) == 0.0  # exp(-2 pi / alpha) underflows
    assert bose_occupation(1.0) == pytest.approx(N_ALPHA1, rel=1e-14)


def test_bose_occupation_refuses_inf_and_nan():
    for alpha in (math.inf, math.nan):
        with pytest.raises(DomainError):
            bose_occupation(alpha)


def test_bose_occupation_large_alpha_series():
    # n ~ alpha/(2 pi) - 1/2 + O(1/alpha)
    series = 100.0 / (2.0 * math.pi) - 0.5
    assert bose_occupation(100.0) == pytest.approx(N_ALPHA100, rel=1e-14)
    assert abs(bose_occupation(100.0) - series) / bose_occupation(100.0) < 1e-3


def test_rates_closed_zero_acceleration():
    rs = rates_closed(0.0)
    assert rs.g_plus == 0.0
    assert rs.g_minus == 1.0
    assert rs.g_z == 0.0
    assert rs.n == 0.0


def test_rates_closed_alpha_one():
    rs = rates_closed(1.0)
    assert rs.g_plus == pytest.approx(G_PLUS_1, rel=1e-14)
    assert rs.g_minus == pytest.approx(G_MINUS_1, rel=1e-14)
    assert rs.g_z == pytest.approx(G_Z_1, rel=1e-14)
    assert rs.g_plus / rs.g_minus == pytest.approx(EXP_M2PI, rel=1e-13)


def test_rates_closed_domain():
    with pytest.raises(DomainError):
        rates_closed(-0.5)
    for alpha in (1e200, math.inf):  # alpha^3 overflows
        with pytest.raises(DomainError):
            rates_closed(alpha)
    with pytest.raises(DomainError):
        rates_numeric(1e200)


def test_detailed_balance_log_grid():
    for alpha in np.logspace(math.log10(0.01), 2, 50):
        rs = rates_closed(alpha)
        assert rs.g_plus / rs.g_minus == pytest.approx(
            math.exp(-2.0 * math.pi / alpha), rel=1e-12)


def test_rate_difference_identity():
    # g_minus - g_plus = 1 + alpha^2 exactly, to roundoff
    for alpha in np.logspace(-2, 2, 50):
        rs = rates_closed(alpha)
        assert rs.g_minus - rs.g_plus == pytest.approx(1.0 + alpha**2, rel=1e-12)


def test_rates_monotone_in_alpha():
    grid = np.logspace(-2, 2, 50)
    rates = [rates_closed(a) for a in grid]
    for lo, hi in zip(rates, rates[1:]):
        assert hi.g_plus > lo.g_plus
        assert hi.g_minus > lo.g_minus
        assert hi.g_z > lo.g_z


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_rates_numeric_matches_closed(alpha):
    closed = rates_closed(alpha)
    num = rates_numeric(alpha)
    assert num.g_plus == pytest.approx(closed.g_plus, rel=1e-4)
    assert num.g_minus == pytest.approx(closed.g_minus, rel=1e-4)
    assert num.g_z == pytest.approx(closed.g_z, rel=1e-4)
    assert num.residual is not None


def test_rates_numeric_dephasing_value():
    # g_z(2) = 8/(4 pi) = 2/pi
    num = rates_numeric(2.0)
    assert num.g_z == pytest.approx(2.0 / math.pi, rel=1e-4)


def test_rates_numeric_detailed_balance():
    num = rates_numeric(5.0)
    assert num.g_plus / num.g_minus == pytest.approx(
        math.exp(-2.0 * math.pi / 5.0), rel=1e-4)


def test_rates_numeric_refuses_small_alpha():
    with pytest.raises(DomainError):
        rates_numeric(0.05)


def test_rates_numeric_residual_guard(monkeypatch):
    monkeypatch.setattr(correlator, "RESIDUAL_TOL", -1.0)  # the residual at alpha 1 is exactly 0
    with pytest.raises(NumericError) as excinfo:
        rates_numeric(1.0)
    assert excinfo.value.residual is not None


@pytest.mark.parametrize("omega", [0.0, 0.1, 1.0, 2.5])
def test_shifted_fourier_matches_the_exact_transform(omega):
    # F(omega) = 2 Int_0^inf cos(omega x) sech^4(x/2) dx = (8 pi/3) omega (1 + omega^2) / sinh(pi omega)
    exact = 8.0 / 3.0 if omega == 0 else (
        8.0 * math.pi / 3.0 * omega * (1.0 + omega * omega) / math.sinh(math.pi * omega))
    value, estimate = correlator._shifted_fourier(omega)
    assert abs(value - exact) <= 1e-13 * exact
    assert estimate <= 1e-13


def test_oracle_residual():
    closed = rates_closed(1.0)
    assert oracle_residual(closed, closed) == 0.0
    off = RateSet(alpha=1.0, n=closed.n, g_plus=closed.g_plus, g_minus=closed.g_minus,
                  g_z=closed.g_z * (1.0 + 1e-6))
    assert oracle_residual(off, closed) == pytest.approx(1e-6, rel=1e-9)
    assert oracle_residual(rates_numeric(1.0), closed) < 1e-12


def test_rateset_validation():
    from rindler_spin import RateSet
    with pytest.raises(DomainError):
        RateSet(alpha=1.0, n=0.1, g_plus=-0.1, g_minus=1.0, g_z=0.0)
    with pytest.raises(DomainError):
        RateSet(alpha=1.0, n=0.1, g_plus=2.0, g_minus=1.0, g_z=0.0)
