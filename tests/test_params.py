import math

import numpy as np
import pytest

from rindler_spin import (CODATA, DomainError, alpha_of,
                          acceleration_from_field, energy_gap, gamma0,
                          unruh_temperature)

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
    for value in (CODATA.hbar, CODATA.c, CODATA.electron_charge,
                  CODATA.electron_mass, CODATA.bohr_magneton, CODATA.boltzmann):
        assert value > 0


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
