import contextlib
import io
import json
import math
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from rindler_spin import (CODATA, DomainError, PhysicalConstants, alpha_of,
                          acceleration_from_field, energy_gap, gamma0,
                          lab_exponent_constant, unruh_temperature, wightman_rindler)
from rindler_spin.cli import main

# frozen oracle values, mpmath dps=50 from the pinned CODATA snapshot
GAP_1G = 1.85480201566e-20            # 2 mu_B * 1 G, erg
ALPHA_1E26 = 189652205.99779526       # alpha(a=1e26, gap=2 mu_B)
FIELD_ACCEL = 5.272809742089444e17    # |e|/m * 1 statV/cm, cm/s^2
GAMMA0_1G = 4.3916708700627577e-23    # gamma0(mu_B, 2 mu_B), 1/s
GAMMA0_TINY_MU = 5.106162805708648e-283   # gamma0(1e-150, 2 mu_B), 1/s
GAMMA0_HUGE_MU = 8.002063258166495e216    # gamma0(1e160, 1e-60), 1/s
UNRUH_247 = 1.0015883401180718        # K at a = 2.47e22 cm/s^2
ACCEL_1K = 2.4660830214026106e22      # cm/s^2 giving exactly 1 K


def test_constants_positive():
    names = ("hbar", "c", "electron_charge", "electron_mass", "bohr_magneton", "boltzmann")
    for name in names:
        assert getattr(CODATA, name) > 0
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match=name):
                PhysicalConstants(**{name: bad})


def test_alpha_defining_case():
    gap = GAP_1G
    accel = CODATA.c * gap / CODATA.hbar
    assert alpha_of(accel, gap) == pytest.approx(1.0, rel=1e-12)


def test_alpha_zero_acceleration():
    assert alpha_of(0.0, GAP_1G) == 0.0


def test_alpha_frozen_value():
    assert alpha_of(1e26, energy_gap(CODATA.bohr_magneton, 1.0)) == pytest.approx(
        ALPHA_1E26, rel=1e-13)


def test_alpha_domain_errors():
    with pytest.raises(DomainError):
        alpha_of(1e20, 0.0)
    with pytest.raises(DomainError):
        alpha_of(-1.0, GAP_1G)


def test_alpha_where_a_product_leaves_the_float_range():
    # a*hbar underflows (a = 1e-300) or c*Delta overflows (Delta = 1e300), alpha does not
    exact = Fraction(1e-300) * Fraction(CODATA.hbar) / (Fraction(CODATA.c) * Fraction(GAP_1G))
    assert abs(alpha_of(1e-300, GAP_1G) - float(exact)) <= 5e-324
    assert alpha_of(1e300, 1e300) == pytest.approx(CODATA.hbar / CODATA.c, rel=1e-15)
    # where the plain expression is nonzero it is kept bit for bit
    assert alpha_of(1e26, GAP_1G) == 1e26 * CODATA.hbar / (CODATA.c * GAP_1G)
    for accel, gap in ((1e-320, GAP_1G), (5e-324, 1.0), (1e-300, 1e300)):
        with pytest.raises(DomainError, match="alpha underflows"):
            alpha_of(accel, gap)


def test_alpha_roundtrip_grid():
    # alpha_of(a, gap) * gap * c / hbar recovers a to 1e-12 relative
    accels = np.logspace(10, 30, 50)
    gaps = np.logspace(-24, -16, 50)
    for a, gap in zip(accels, gaps):
        back = alpha_of(a, gap) * gap * CODATA.c / CODATA.hbar
        assert back == pytest.approx(a, rel=1e-12)


def test_energy_gap_unit_field():
    assert energy_gap(CODATA.bohr_magneton, 1.0) == pytest.approx(GAP_1G, rel=1e-12)
    assert energy_gap(CODATA.bohr_magneton, 1.0) == 2.0 * CODATA.bohr_magneton


def test_energy_gap_linearity():
    assert energy_gap(CODATA.bohr_magneton, 2.0) == 2.0 * energy_gap(CODATA.bohr_magneton, 1.0)


def test_energy_gap_domain():
    with pytest.raises(DomainError):
        energy_gap(-1.0, 1.0)
    with pytest.raises(DomainError):
        energy_gap(CODATA.bohr_magneton, 0.0)


def test_acceleration_from_field_zero():
    assert acceleration_from_field(0.0) == 0.0


def test_acceleration_from_field_sign():
    # negative field with the electron's negative charge decelerates
    assert acceleration_from_field(-1.0) < 0
    assert acceleration_from_field(1.0) > 0


def test_acceleration_from_field_magnitude():
    assert acceleration_from_field(1.0) == pytest.approx(FIELD_ACCEL, rel=1e-12)


def test_gamma0_scaling_laws():
    base = gamma0(CODATA.bohr_magneton, GAP_1G)
    assert gamma0(2.0 * CODATA.bohr_magneton, GAP_1G) == pytest.approx(4.0 * base, rel=1e-14)
    assert gamma0(CODATA.bohr_magneton, 2.0 * GAP_1G) == pytest.approx(8.0 * base, rel=1e-14)


def test_gamma0_frozen_value():
    assert gamma0(CODATA.bohr_magneton, GAP_1G) == pytest.approx(GAMMA0_1G, rel=1e-12)
    # mu**2 * gap**3 underflows to 0, or mu**2 overflows, while the rate is a float
    assert gamma0(1e-150, GAP_1G) == pytest.approx(GAMMA0_TINY_MU, rel=1e-12)
    assert gamma0(1e160, 1e-60) == pytest.approx(GAMMA0_HUGE_MU, rel=1e-12)


def test_gamma0_domain():
    with pytest.raises(DomainError):
        gamma0(0.0, GAP_1G)
    with pytest.raises(DomainError):
        gamma0(CODATA.bohr_magneton, -1.0)
    # mu**2 or gap**3 overflows; the product underflows to 0
    for mu, gap in ((1e200, GAP_1G), (CODATA.bohr_magneton, 1e200), (1e-200, GAP_1G)):
        with pytest.raises(DomainError, match="gamma0"):
            gamma0(mu, gap)


def test_unruh_temperature_zero_and_linear():
    assert unruh_temperature(0.0) == 0.0
    assert unruh_temperature(2e22) == pytest.approx(2.0 * unruh_temperature(1e22), rel=1e-14)
    assert unruh_temperature(1e22) >= 0


def test_unruh_temperature_one_kelvin():
    assert unruh_temperature(2.47e22) == pytest.approx(UNRUH_247, rel=1e-12)
    assert unruh_temperature(ACCEL_1K) == pytest.approx(1.0, rel=1e-12)


def test_unruh_temperature_domain():
    with pytest.raises(DomainError):
        unruh_temperature(-1.0)


# Each unit conversion against its formula in exact rational arithmetic; pi
# and ln 3 enter as the floats the code uses.
HBAR, C, K, PI = (Fraction(x) for x in (CODATA.hbar, CODATA.c, CODATA.boltzmann, math.pi))


def _exact_alpha(accel, gap):
    return accel * HBAR / (C * gap)


def _exact_gamma0(mu, gap):
    return Fraction(8, 3) * mu**2 * gap**3 / (HBAR**4 * C**3)


def _exact_unruh(accel):
    return HBAR * accel / (2 * PI * C * K)


def _exact_lab(mu):
    return 3 * PI * Fraction(math.log(3.0)) / 8 * HBAR * C**5 / mu**2


def _assert_within_4_ulps(got, exact):
    """``got`` lies within 4 ulps of ``exact`` rounded once to a float."""
    want = float(exact)
    assert abs(got - want) <= 4.0 * math.ulp(want), (got, want)


def _magnitudes(*bands):
    """Log-uniform positive floats, one band (lo, hi) of decades at a time."""
    return st.one_of(*(st.floats(min_value=lo * math.log(10.0), max_value=hi * math.log(10.0))
                       .map(math.exp) for lo, hi in bands))


# the whole float range, and a band where a plain product of the formula
# turns subnormal or overflows while the result is a float
EXACTNESS_CASES = {
    "alpha_of": (alpha_of, _exact_alpha, (_magnitudes((-323, 308), (-300, -280)),
                                          _magnitudes((-30, 10)))),
    "gamma0": (gamma0, _exact_gamma0, (_magnitudes((-323, 308), (-170, -150)),
                                       _magnitudes((-323, 308), (20, 40)))),
    "unruh_temperature": (unruh_temperature, _exact_unruh,
                          (_magnitudes((-323, 308), (-300, -280)),)),
    "lab_exponent_constant": (lab_exponent_constant, _exact_lab,
                              (_magnitudes((-323, 308), (150, 175)),)),
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_CASES))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_conversions_are_exact_across_the_float_range(name, data):
    call, exact_of, arguments = EXACTNESS_CASES[name]
    args = data.draw(st.tuples(*arguments))
    exact = exact_of(*map(Fraction, args))
    try:
        got = call(*args)
    except DomainError:  # only where the rounded result is 0 or overflows
        assert exact <= 4 * Fraction(math.ulp(0.0)) or exact > sys.float_info.max
        return
    _assert_within_4_ulps(got, exact)


@pytest.mark.parametrize("got, exact", [
    (lambda: gamma0(1e-160, 1e30), lambda: _exact_gamma0(Fraction(1e-160), Fraction(1e30))),
    (lambda: alpha_of(1e-290, 1e-300), lambda: _exact_alpha(Fraction(1e-290), Fraction(1e-300))),
    (lambda: unruh_temperature(1e-295), lambda: _exact_unruh(Fraction(1e-295))),
    (lambda: unruh_temperature(1e-299), lambda: _exact_unruh(Fraction(1e-299))),
    # a s/2c = 1.7e-71: the flat limit 4 hbar/(pi c^3 s^4), good to 1e-142
    (lambda: wightman_rindler(1e-60, 1.0, 0.0).real, lambda: 4 * HBAR / (PI * C**3)),
], ids=["gamma0(1e-160, 1e30)", "alpha_of(1e-290, 1e-300)", "unruh_temperature(1e-295)",
        "unruh_temperature(1e-299)", "wightman_rindler(1e-60, 1, 0)"])
def test_conversions_exact_where_an_intermediate_is_subnormal(got, exact):
    _assert_within_4_ulps(got(), exact())


def test_constants_cli_exact_at_a_subnormal_intermediate():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["constants", "--accel", "1e-289", "--format", "json"]) == 0
    values = json.loads(out.getvalue())["values"]
    accel, gap = Fraction(1e-289), 2 * Fraction(CODATA.bohr_magneton)
    _assert_within_4_ulps(values["alpha"], _exact_alpha(accel, gap))
    _assert_within_4_ulps(values["unruh_temperature_K"], _exact_unruh(accel))
