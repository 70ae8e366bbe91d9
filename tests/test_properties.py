"""Property tests of the closed forms, the rate oracle and the library and CLI contracts over decades of alpha and tau."""
import cmath
import contextlib
import dataclasses
import io
import math
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import rindler_spin
from rindler_spin import (CODATA, DomainError, PauliCoefficients, RateSet, RindlerSpinError,
                          accel_for_t0, acceleration_from_field, alpha_of, bell_state,
                          bose_occupation, concurrence_closed, disentanglement_time, energy_gap,
                          evolve_analytic, gamma0, lab_exponent_constant, rates_closed,
                          rates_numeric, relaxation_times, rindler_event, rindler_residual,
                          steady_state, t0_lab, tau0_inverse_cube,
                          unruh_temperature, wightman_rindler)
from rindler_spin.correlator import MIN_NUMERIC_ALPHA
from rindler_spin.cli import main

ULPS = 4.0 * 2.0**-52
MU_B = CODATA.bohr_magneton
CLI_EXIT_CODES = {0, 2, 3, 4}

# alpha log-uniform on [1e-6, 1e6]
alphas = st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)).map(math.exp)
taus = st.floats(min_value=0.0, max_value=1e6)


def _decades(lo, hi, physical):
    """Log-uniform magnitudes from 1e<lo> to 1e<hi>, either sign, plus the edge values
    and, as often, a positive value in the physical range ``physical``."""
    def log_uniform(a, b):
        return st.floats(min_value=math.log(a), max_value=math.log(b)).map(math.exp)

    signed = st.tuples(st.sampled_from((1.0, -1.0)), log_uniform(10.0**lo, 10.0**hi)).map(
        lambda p: p[0] * p[1])
    # 3e102: alpha^3 is finite but curve's step dt = 0.05/(4 g_z) is subnormal
    edges = st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 3e102, 1.7e308))
    return st.one_of(edges, signed, log_uniform(*physical))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha=alphas, tau_a=taus, tau_b=taus)
def test_closed_forms_hold_across_the_domain(alpha, tau_a, tau_b):
    early, late = sorted((tau_a, tau_b))
    c_early, c_late = concurrence_closed(alpha, early), concurrence_closed(alpha, late)
    assert 0.0 <= c_late <= c_early <= 1.0

    tau0 = disentanglement_time(alpha)
    assert math.isfinite(tau0) and tau0 > 0.0

    times = relaxation_times(alpha)
    assert times.t1 < times.t2 * (1.0 + ULPS)
    assert times.t2 <= 2.0 * times.t1 * (1.0 + ULPS)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alpha=alphas)
def test_detailed_balance_across_the_domain(alpha):
    rs = rates_closed(alpha)
    assert abs(rs.g_plus - rs.g_minus * math.exp(-2.0 * math.pi / alpha)) <= 1e-12 * rs.g_minus


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(min_value=math.log(MIN_NUMERIC_ALPHA), max_value=math.log(10.0)).map(
    math.exp))
def test_rate_oracle_matches_closed_form(alpha):
    closed, num = rates_closed(alpha), rates_numeric(alpha)
    for got, want in ((num.g_plus, closed.g_plus), (num.g_minus, closed.g_minus),
                      (num.g_z, closed.g_z)):
        assert abs(got - want) <= 1e-12 * want
    assert num.residual <= 1e-10


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(min_value=0.0, max_value=MIN_NUMERIC_ALPHA, exclude_max=True))
def test_rate_oracle_refuses_alpha_below_its_floor(alpha):
    with pytest.raises(DomainError):
        rates_numeric(alpha)


def _exit_code(argv):
    """cli.main's exit code with its output swallowed; argparse's SystemExit counts too."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


#: command -> its arguments at one drawn alpha (a value in alpha's decades) and accel
CLI_CASES = {
    "rates": lambda a, accel: ["rates", f"--alpha={a!r}"],
    "rates --oracle": lambda a, accel: ["rates", "--oracle", f"--alpha={a!r}"],
    "curve": lambda a, accel: ["curve", f"--alpha={a!r}", "--tau-grid", "0:5:6"],
    "surface": lambda a, accel: ["surface", f"--alpha={a!r}", "--tau-grid", "0:5:6"],
    "constants": lambda a, accel: ["constants", f"--accel={accel!r}"],
    "constants --target-t0": lambda a, accel: ["constants", f"--target-t0={accel!r}"],
    "worldline --profile": lambda a, accel: ["worldline", f"--profile=constant:{a!r}",
                                             "--tau-grid", "0:5:6"],
    "worldline --tau-grid": lambda a, accel: ["worldline", f"--tau-grid=0:{a!r}:3"],
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(alpha=_decades(-320, 308, (1e-2, 1e3)), accel=_decades(-320, 308, (1e20, 1e35)),
       command=st.sampled_from(sorted(CLI_CASES)))
def test_cli_exit_codes_across_the_domain(alpha, accel, command):
    assert _exit_code(CLI_CASES[command](alpha, accel)) in CLI_EXIT_CODES


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t0=st.floats(min_value=math.log(1e-298), max_value=math.log(1.7e308)).map(math.exp))
def test_accel_for_t0_round_trip(t0):
    accel = accel_for_t0(t0, CODATA.bohr_magneton)
    log_t0 = t0_lab(accel, CODATA.bohr_magneton).log_t0
    assert abs(log_t0 - math.log(t0)) <= 1e-12 * max(1.0, abs(math.log(t0)))


#: entry points whose domain guard a nan or a non-finite value used to slip past
DOMAIN_HOLES = {
    "concurrence_closed(1, nan)": lambda: concurrence_closed(1.0, math.nan),
    "evolve_analytic(bell, rates, nan)": lambda: evolve_analytic(bell_state(), rates_closed(1.0),
                                                                 math.nan),
    "steady_state(bell, nan)": lambda: steady_state(bell_state(), math.nan),
    "alpha_of(nan, 1)": lambda: alpha_of(math.nan, 1.0),
    "alpha_of(1, nan)": lambda: alpha_of(1.0, math.nan),
    "unruh_temperature(nan)": lambda: unruh_temperature(math.nan),
    "energy_gap(nan, 1)": lambda: energy_gap(math.nan, 1.0),
    "wightman_rindler(nan, 1, 1)": lambda: wightman_rindler(math.nan, 1.0, 1.0),
    "acceleration_from_field(nan)": lambda: acceleration_from_field(math.nan),
    "wightman_rindler(1e30, 1, 1)": lambda: wightman_rindler(1e30, 1.0, 1.0),
    "wightman_rindler(1, 1e30, 1)": lambda: wightman_rindler(1.0, 1e30, 1.0),
    "wightman_rindler(inf, 1, 1)": lambda: wightman_rindler(math.inf, 1.0, 1.0),
    "wightman_rindler(1, inf, 1)": lambda: wightman_rindler(1.0, math.inf, 1.0),
    "wightman_rindler(1, nan, 1)": lambda: wightman_rindler(1.0, math.nan, 1.0),
    "wightman_rindler(1, 1, inf)": lambda: wightman_rindler(1.0, 1.0, math.inf),
    "wightman_rindler(1, 1, nan)": lambda: wightman_rindler(1.0, 1.0, math.nan),
    "alpha_of(inf, 1)": lambda: alpha_of(math.inf, 1.0),
    "alpha_of(1e26, 5e-324)": lambda: alpha_of(1e26, 5e-324),
    "energy_gap(1.7e308, 1)": lambda: energy_gap(1.7e308, 1.0),
    "energy_gap(1, inf)": lambda: energy_gap(1.0, math.inf),
    "unruh_temperature(inf)": lambda: unruh_temperature(math.inf),
    "rindler_residual(event at 1e-100, 1e300)": lambda: rindler_residual(
        rindler_event(1e-100, 0.0), 1e300),
    "lab_exponent_constant(-1e-20)": lambda: lab_exponent_constant(-1e-20),
    "t0_lab(1e26, -mu_B)": lambda: t0_lab(1e26, -MU_B),
    "accel_for_t0(3.15e7, -mu_B)": lambda: accel_for_t0(3.15e7, -MU_B),
    "RateSet(g_minus=nan)": lambda: RateSet(alpha=1.0, n=0.0, g_plus=0.0, g_minus=math.nan,
                                            g_z=0.0),
    "RateSet(g_z=inf)": lambda: RateSet(alpha=1.0, n=0.0, g_plus=0.0, g_minus=0.0,
                                        g_z=math.inf),
    "PauliCoefficients(r00=nan)": lambda: PauliCoefficients(np.diag([math.nan, 0.0, 0.0, 0.0])),
    "PauliCoefficients(r11=inf)": lambda: PauliCoefficients(np.diag([0.25, math.inf, 0.0, 0.0])),
}


@pytest.mark.parametrize("call", list(DOMAIN_HOLES.values()), ids=list(DOMAIN_HOLES))
def test_entry_points_refuse_nan_and_out_of_range(call):
    with pytest.raises(DomainError):
        call()


def test_zero_rates_keep_the_state_at_infinite_tau():
    # -0.0 * inf is nan: a zero rate must not be multiplied by an infinite tau
    zero = RateSet(alpha=0.0, n=0.0, g_plus=0.0, g_minus=0.0, g_z=0.0)
    assert np.array_equal(evolve_analytic(bell_state(), zero, math.inf).r, bell_state().r)


class Draw(NamedTuple):
    """One drawn value per kind of argument the scalar exports take."""

    alpha: float
    tau: float    # gamma0^-1 units
    accel: float  # cm/s^2
    mu: float     # erg/G
    gap: float    # erg
    field: float  # G for a Zeeman field, statV/cm for an electric one
    s: float      # s, a proper-time separation
    eps: float    # s, its regulator
    t0: float     # s, a lab-frame time


draws = st.builds(
    Draw, alpha=_decades(-320, 308, (1e-2, 1e3)), tau=_decades(-320, 308, (1e-3, 1e3)),
    accel=_decades(-320, 308, (1e20, 1e35)), mu=_decades(-320, 308, (1e-21, 1e-19)),
    gap=_decades(-320, 308, (1e-21, 1e-17)), field=_decades(-320, 308, (1e-3, 1e8)),
    s=_decades(-320, 308, (1e-20, 1e-10)), eps=_decades(-320, 308, (1e-20, 1e-10)),
    t0=_decades(-320, 308, (1e-3, 1e300)))

#: scalar export -> its call at one draw
SCALAR_CASES = {
    "alpha_of": lambda v: alpha_of(v.accel, v.gap),
    "energy_gap": lambda v: energy_gap(v.mu, v.field),
    "gamma0": lambda v: gamma0(v.mu, v.gap),
    "unruh_temperature": lambda v: unruh_temperature(v.accel),
    "acceleration_from_field": lambda v: acceleration_from_field(v.field),
    "rindler_event": lambda v: rindler_event(v.accel, v.tau),
    "rindler_residual": lambda v: rindler_residual(rindler_event(v.alpha, v.tau), v.accel),
    "wightman_rindler": lambda v: wightman_rindler(v.accel, v.s, v.eps),
    "bose_occupation": lambda v: bose_occupation(v.alpha),
    "rates_closed": lambda v: rates_closed(v.alpha),
    "rates_numeric": lambda v: rates_numeric(v.alpha),
    "relaxation_times": lambda v: relaxation_times(v.alpha),
    "concurrence_closed": lambda v: concurrence_closed(v.alpha, v.tau),
    "disentanglement_time": lambda v: disentanglement_time(v.alpha),
    "evolve_analytic": lambda v: evolve_analytic(bell_state(), rates_closed(v.alpha), v.tau),
    "steady_state": lambda v: steady_state(bell_state(), v.alpha),
    "lab_exponent_constant": lambda v: lab_exponent_constant(v.mu),
    "accel_for_t0": lambda v: accel_for_t0(v.t0, v.mu),
    "t0_lab": lambda v: t0_lab(v.accel, v.mu),
    "tau0_inverse_cube": lambda v: tau0_inverse_cube(v.alpha),
}
#: documented saturations: these may return inf or 0 where the value leaves the float range
SATURATING = {"t0_lab", "tau0_inverse_cube"}


def _numbers(result):
    """Every number a result carries, through dataclasses, tuples and arrays; None carries none."""
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in _numbers(getattr(result, f.name))]
    if isinstance(result, (tuple, np.ndarray)):
        return [x for item in result for x in _numbers(item)]
    return [] if result is None else [result]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(export=st.sampled_from(sorted(SCALAR_CASES)), v=draws)
def test_scalar_exports_return_finite_values_or_refuse(export, v):
    try:
        numbers = _numbers(SCALAR_CASES[export](v))
    except RindlerSpinError:
        return
    assert numbers
    if export in SATURATING:
        assert not any(cmath.isnan(x) for x in numbers), numbers
    else:
        assert all(cmath.isfinite(x) for x in numbers), numbers


def test_public_surface_resolves():
    names = rindler_spin.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(rindler_spin, name)] == []
