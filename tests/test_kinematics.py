import math

import numpy as np
import pytest

from rindler_spin import (AccelerationProfile, CODATA, DomainError, NumericError,
                          kinematics, rapidity, rindler_event, rindler_residual,
                          thomas_omega, worldline)

C = CODATA.c


def test_rapidity_constant_profile():
    a = 1e26
    profile = AccelerationProfile.constant(a)
    tau = 3.0 * C / a
    assert rapidity(profile, tau) == pytest.approx(a * tau / C, rel=1e-12)


def test_rapidity_zero_profile():
    assert rapidity(AccelerationProfile.zero(), 10.0) == 0.0
    assert rapidity(AccelerationProfile.constant(1e26), 0.0) == 0.0


def test_rapidity_sinusoid_antiderivative():
    # analytic oracle: r(tau) = (a0 / c omega) (1 - cos(omega tau))
    a0, omega = 2e25, 3e24
    profile = AccelerationProfile.sinusoid(a0, omega)
    for tau in (1e-25, 5e-25, 2e-24):
        expected = a0 / (C * omega) * (1.0 - math.cos(omega * tau))
        assert rapidity(profile, tau) == pytest.approx(expected, rel=1e-10, abs=1e-18)


def test_rapidity_additivity():
    a0, omega = 1e25, 7e23
    profile = AccelerationProfile.sinusoid(a0, omega)
    tau1, tau2 = 8e-25, 1.1e-24
    shifted = AccelerationProfile(lambda u: profile.a_of_tau(tau1 + u), "shifted")
    total = rapidity(profile, tau1 + tau2)
    assert rapidity(profile, tau1) + rapidity(shifted, tau2) == pytest.approx(
        total, rel=1e-10)


def test_rapidity_negative_tau():
    with pytest.raises(DomainError):
        rapidity(AccelerationProfile.zero(), -1.0)


@pytest.mark.parametrize("accel", [1e26, C])  # cgs worldline and c/a = 1 s
def test_worldline_matches_rindler(accel):
    taus = np.linspace(0.0, 10.0 * C / accel, 101)
    events = worldline(AccelerationProfile.constant(accel), taus)
    for ev in events[1:]:
        ref = rindler_event(accel, ev.tau)
        assert ev.t == pytest.approx(ref.t, rel=1e-8)
        assert ev.z == pytest.approx(ref.z, rel=1e-8)
        assert ev.rapidity == pytest.approx(ref.rapidity, rel=1e-8)
    assert events[0].t == 0.0
    assert events[0].z == pytest.approx(C**2 / accel, rel=1e-12)


def test_worldline_accuracy_across_the_acceptance_range():
    # the cross-check grid (c = 1, tau 0..5) over alpha in [0.5, 10]; about 8.7e-13 measured
    taus = np.linspace(0.0, 5.0, 101)
    worst = 0.0
    for alpha in np.logspace(math.log10(0.5), 1.0, 200):
        events = worldline(AccelerationProfile.constant(alpha), taus, c=1.0)
        for ev in events[1:]:
            ref = rindler_event(alpha, ev.tau, c=1.0)
            worst = max(worst, abs(ev.t - ref.t) / abs(ref.t), abs(ev.z - ref.z) / abs(ref.z),
                        abs(ev.rapidity - ref.rapidity) / ref.rapidity)
    assert worst <= 2e-12


def test_worldline_zero_profile():
    taus = np.linspace(0.0, 5.0, 11)
    events = worldline(AccelerationProfile.zero(), taus, c=1.0)
    for ev in events:
        assert ev.t == pytest.approx(ev.tau, abs=1e-12)
        assert ev.z == pytest.approx(0.0, abs=1e-12)
        assert ev.beta == 0.0


def test_worldline_line_element_residual():
    # centered differences: leading truncation error is h^2/3 for constant a
    a = C  # c/a = 1 s
    h = 1e-3
    taus = np.arange(0.0, 5.0 + h / 2, h)
    events = worldline(AccelerationProfile.constant(a), taus)
    t = np.array([ev.t for ev in events])
    z = np.array([ev.z for ev in events])
    dt = (t[2:] - t[:-2]) / (2.0 * h)
    dz = (z[2:] - z[:-2]) / (2.0 * h)
    residual = np.abs(dt**2 - (dz / C) ** 2 - 1.0)
    assert residual.max() < 1e-6


def test_worldline_sinusoid_line_element():
    a0 = C
    h = 1e-3
    taus = np.arange(0.0, 3.0 + h / 2, h)
    events = worldline(AccelerationProfile.sinusoid(a0, 2.0), taus)
    t = np.array([ev.t for ev in events])
    z = np.array([ev.z for ev in events])
    dt = (t[2:] - t[:-2]) / (2.0 * h)
    dz = (z[2:] - z[:-2]) / (2.0 * h)
    assert np.abs(dt**2 - (dz / C) ** 2 - 1.0).max() < 1e-6


def test_worldline_grid_validation():
    profile = AccelerationProfile.zero()
    with pytest.raises(DomainError):
        worldline(profile, [1.0, 2.0])          # must start at 0
    with pytest.raises(DomainError):
        worldline(profile, [0.0, 2.0, 1.0])     # unsorted
    with pytest.raises(DomainError):
        worldline(profile, [0.0, 0.0, 0.0])     # repeated
    with pytest.raises(DomainError):
        worldline(profile, [])


def test_worldline_outside_the_float_range():
    # cosh of the rapidity overflows; the acceleration or its phase is not finite;
    # z(0) = c^2/a(0) overflows
    cases = [(AccelerationProfile.constant(1e300), [0.0, 5.0]),
             (AccelerationProfile.constant(1.0), [0.0, 1e300]),
             (AccelerationProfile.constant(-1e300), [0.0, 5.0]),
             (AccelerationProfile.constant(math.inf), [0.0, 5.0]),
             (AccelerationProfile.constant(math.nan), [0.0, 5.0]),
             (AccelerationProfile.sinusoid(1.0, math.inf), [0.0, 5.0]),
             (AccelerationProfile.sinusoid(1e300, 1.0), [0.0, 5.0]),
             (AccelerationProfile.constant(1e-320), [0.0, 5.0])]
    for profile, grid in cases:
        with pytest.raises(DomainError, match="float range"):
            worldline(profile, grid, c=1.0)


def test_worldline_evaluation_budget(monkeypatch):
    # a profile too fast to resolve stops at the budget instead of running on
    monkeypatch.setattr(kinematics, "MAX_RHS_EVALS", 2000)
    with pytest.raises(NumericError, match="2000"):
        worldline(AccelerationProfile.sinusoid(1.0, 1e300), [0.0, 5.0], c=1.0)
    # the documented sinusoid grid fits in it
    events = worldline(AccelerationProfile.sinusoid(1.0, 0.5), np.linspace(0, 5, 101), c=1.0)
    assert len(events) == 101


def test_rindler_event_vertex():
    ev = rindler_event(1e26, 0.0)
    assert ev.t == 0.0
    assert ev.z == pytest.approx(C**2 / 1e26, rel=1e-14)
    assert ev.beta == 0.0


def test_rindler_event_unit_values():
    ev = rindler_event(1.0, 1.0, c=1.0)
    assert ev.t == pytest.approx(math.sinh(1.0), rel=1e-14)   # 1.17520
    assert ev.z == pytest.approx(math.cosh(1.0), rel=1e-14)   # 1.54308
    assert ev.beta == pytest.approx(math.tanh(1.0), rel=1e-14)


def test_rindler_hyperbola_invariant():
    a = 3e25
    for tau in np.linspace(0.0, 8.0 * C / a, 100):
        ev = rindler_event(a, tau)
        assert ev.z**2 - C**2 * ev.t**2 == pytest.approx(C**4 / a**2, rel=1e-10)


def test_rindler_event_domain():
    with pytest.raises(DomainError):
        rindler_event(0.0, 1.0)
    with pytest.raises(DomainError):
        rindler_event(-1e20, 1.0)


@pytest.mark.parametrize("accel, tau", [
    (1.0, 1e60),       # sinh of the rapidity overflows
    (1e60, 1.0),
    (5e-324, 1.0),     # c/a overflows and meets sinh(0)
    (1.0, math.nan),
])
def test_rindler_event_refuses_events_outside_the_float_range(accel, tau):
    with pytest.raises(DomainError):
        rindler_event(accel, tau)


def test_rindler_residual():
    ev = rindler_event(2.0, 1.5, c=1.0)
    assert rindler_residual(ev, 2.0, c=1.0) == 0.0
    # at the vertex t = 0, so the t distance is relative to the floor c/a
    vertex = rindler_event(1e26, 0.0)
    shifted = kinematics.WorldlineEvent(tau=0.0, t=1e-6 * C / 1e26, z=vertex.z,
                                        rapidity=0.0, beta=0.0)
    assert rindler_residual(shifted, 1e26) == pytest.approx(1e-6, rel=1e-12)
    # z relative to the hyperbola's own z, which never drops below c^2/a
    off = kinematics.WorldlineEvent(tau=0.0, t=0.0, z=vertex.z * (1.0 + 1e-9),
                                    rapidity=0.0, beta=0.0)
    assert rindler_residual(off, 1e26) == pytest.approx(1e-9, rel=1e-6)


def test_thomas_collinear_vanishes():
    beta = np.array([0.0, 0.0, 0.7])
    omega = thomas_omega(beta, 2.5 * beta)
    assert np.allclose(omega, 0.0, atol=1e-15)


def test_thomas_zero_velocity():
    assert np.allclose(thomas_omega([0, 0, 0], [0.1, 0.2, 0.3]), 0.0)


def test_thomas_hand_value():
    # gamma = 1.25, gamma^2/(gamma+1) = 25/36, cross = (0, 0, -0.06)
    omega = thomas_omega([0.6, 0.0, 0.0], [0.0, 0.1, 0.0])
    assert omega == pytest.approx([0.0, 0.0, -(25.0 / 36.0) * 0.06], rel=1e-13)


def test_thomas_scalar_multiple_annihilates():
    rng = np.random.default_rng(11)
    for _ in range(20):
        beta = rng.uniform(-0.5, 0.5, 3)
        lam = rng.uniform(-3, 3)
        assert np.allclose(thomas_omega(beta, lam * beta), 0.0, atol=1e-14)


def test_thomas_domain():
    with pytest.raises(DomainError):
        thomas_omega([1.0, 0.0, 0.0], [0.0, 0.1, 0.0])


def test_worldline_beta_consistency():
    events = worldline(AccelerationProfile.constant(1.0), np.linspace(0, 3, 7), c=1.0)
    for ev in events:
        assert abs(ev.beta) < 1.0
        assert ev.beta == pytest.approx(math.tanh(ev.rapidity), rel=1e-14)
