"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math

import numpy as np
import pytest

from rindler_spin import (AccelerationProfile, CODATA, LindbladSpec,
                          bell_state, concurrence, concurrence_closed,
                          density_from_coefficients, disentanglement_time,
                          evolve_analytic, evolve_numeric,
                          lab_exponent_constant, rates_closed, rates_numeric,
                          relaxation_times, rindler_event, steady_state,
                          thomas_omega, worldline)
from rindler_spin.dynamics import DensityMatrix

from helpers import random_density, random_unitary2

C = CODATA.c


def _report(number, label, worst, bound, passed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} {status}: {label} (worst {worst:.3e}, bound {bound:.0e})")
    assert passed, f"criterion {number}: worst {worst:.3e} exceeds {bound:.0e}"


def test_criterion_1_detailed_balance():
    worst = 0.0
    for alpha in np.logspace(math.log10(0.01), 2.0, 50):
        rs = rates_closed(alpha)
        expected = math.exp(-2.0 * math.pi / alpha)
        worst = max(worst, abs(rs.g_plus / rs.g_minus - expected) / expected)
    _report(1, "detailed balance g+/g- = exp(-2 pi/alpha) on 50-point log grid",
            worst, 1e-12, worst < 1e-12)


def test_criterion_2_rate_integral_oracle():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
        closed = rates_closed(alpha)
        num = rates_numeric(alpha)
        for a, b in ((num.g_plus, closed.g_plus), (num.g_minus, closed.g_minus),
                     (num.g_z, closed.g_z)):
            worst = max(worst, abs(a - b) / abs(b))
    _report(2, "shifted-contour trapezoid matches closed-form rates",
            worst, 1e-4, worst < 1e-4)


def test_criterion_3_master_equation_oracle():
    worst_diff = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    bell = bell_state()
    rho0 = density_from_coefficients(bell)
    for alpha in (0.5, 1.0, 5.0):
        rates = rates_closed(alpha)
        spec = LindbladSpec(rates=rates, dt=1e-3)
        for tau in (0.1, 1.0, 5.0):
            numeric = evolve_numeric(rho0, spec, tau)
            analytic = density_from_coefficients(evolve_analytic(bell, rates, tau))
            worst_diff = max(worst_diff, float(np.max(np.abs(numeric.m - analytic.m))))
            worst_trace = max(worst_trace, abs(np.trace(numeric.m).real - 1.0))
            worst_eig = min(worst_eig, numeric.min_eigenvalue())
    ok = worst_diff < 1e-8 and worst_trace < 1e-10 and worst_eig >= -1e-8
    _report(3, f"RK4 vs analytic coefficients (trace drift {worst_trace:.1e}, "
               f"min eig {worst_eig:.1e})", worst_diff, 1e-8, ok)


def test_criterion_4_relaxation_time_ordering():
    worst_violation = 0.0
    for alpha in np.logspace(-2.0, 2.0, 100):
        times = relaxation_times(alpha)
        assert times.t1 < times.t2, f"T1 >= T2 at alpha={alpha}"
        worst_violation = max(worst_violation, times.t2 - 2.0 * times.t1)
    saturation = relaxation_times(0.01)
    gap_to_2 = abs(saturation.t2 / saturation.t1 - 2.0)
    ok = worst_violation <= 1e-12 and gap_to_2 < 1e-5
    _report(4, f"T1 < T2 <= 2 T1 on 100-point grid; T2/T1 -> 2 as alpha -> 0 "
               f"(gap {gap_to_2:.1e})", worst_violation, 1e-12, ok)


def test_criterion_5_concurrence_closed_form():
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 5.0):
        rates = rates_closed(alpha)
        for tau in np.linspace(0.0, 5.0, 20):
            rho = density_from_coefficients(evolve_analytic(bell_state(), rates, tau))
            worst = max(worst, abs(concurrence(rho) - concurrence_closed(alpha, tau)))
        assert concurrence_closed(alpha, 0.0) == 1.0
        assert concurrence_closed(alpha, 1e4) == 0.0
        # steady state factorizes into kron(first-spin thermal, spectator)
        steady = density_from_coefficients(steady_state(bell_state(), alpha)).m
        first = np.array([[steady[0, 0] + steady[1, 1], steady[0, 2] + steady[1, 3]],
                          [steady[2, 0] + steady[3, 1], steady[2, 2] + steady[3, 3]]])
        second = np.array([[steady[0, 0] + steady[2, 2], steady[0, 1] + steady[2, 3]],
                           [steady[1, 0] + steady[3, 2], steady[1, 1] + steady[3, 3]]])
        assert np.max(np.abs(np.kron(first, second) - steady)) < 1e-12
        assert concurrence(DensityMatrix(steady)) == 0.0
    _report(5, "eigen-route concurrence equals closed form on 20x4 grid; "
               "C(0)=1, steady state separable", worst, 1e-8, worst < 1e-8)


def test_criterion_6_disentanglement_asymptote():
    tau0 = disentanglement_time(100.0)
    asym = math.pi * math.log(3.0) / 100.0**3
    rel = abs(tau0 - asym) / tau0
    _report(6, "bisection tau0 at alpha=100 vs inverse-cube asymptote",
            rel, 1e-3, rel < 1e-3)


def test_criterion_7_lab_exponent_constant():
    value_si = lab_exponent_constant(CODATA, CODATA.bohr_magneton) / 1e4
    rel = abs(value_si - 3.8e61) / 3.8e61
    _report(7, f"lab-frame exponent constant {value_si:.4e} m^2/s^4 vs 3.8e61",
            rel, 3e-2, rel < 3e-2)


def test_criterion_8_kinematics():
    accel = 1e26
    taus = np.linspace(0.0, 10.0 * C / accel, 51)
    events = worldline(AccelerationProfile.constant(accel), taus)
    worst_rel = 0.0
    for ev in events[1:]:
        ref = rindler_event(accel, ev.tau)
        worst_rel = max(worst_rel, abs(ev.t - ref.t) / abs(ref.t),
                        abs(ev.z - ref.z) / abs(ref.z))

    # line-element residual by centered differences (h^2/3 truncation regime)
    h = 1e-3
    fd_taus = np.arange(0.0, 5.0 + h / 2, h) * (C / C)  # c/a = 1 s with a = c
    fd_events = worldline(AccelerationProfile.constant(C), fd_taus)
    t = np.array([ev.t for ev in fd_events])
    z = np.array([ev.z for ev in fd_events])
    dt = (t[2:] - t[:-2]) / (2.0 * h)
    dz = (z[2:] - z[:-2]) / (2.0 * h)
    fd_worst = float(np.max(np.abs(dt**2 - (dz / C) ** 2 - 1.0)))

    thomas_worst = float(np.max(np.abs(thomas_omega([0.0, 0.0, 0.6], [0.0, 0.0, 0.2]))))
    ok = worst_rel < 1e-8 and fd_worst < 1e-6 and thomas_worst == 0.0
    _report(8, f"worldline vs Rindler closed form (line-element residual "
               f"{fd_worst:.1e}, collinear Thomas {thomas_worst:.1e})",
            worst_rel, 1e-8, ok)


def test_criterion_9_local_unitary_invariance():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        rho = random_density(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        rotated = DensityMatrix(u @ rho.m @ u.conj().T)
        worst = max(worst, abs(concurrence(rotated) - concurrence(rho)))
    _report(9, "concurrence invariant under 100 random local unitaries",
            worst, 1e-9, worst < 1e-9)
