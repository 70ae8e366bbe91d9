"""Property tests of the closed forms, the rate oracle and the CLI contract over decades of alpha and tau."""
import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from rindler_spin import (CODATA, AccelerationProfile, DomainError, accel_for_t0,
                          acceleration_from_field, alpha_of, bell_state, concurrence_closed,
                          disentanglement_time, energy_gap, evolve_analytic, rapidity,
                          rates_closed, rates_numeric, relaxation_times, steady_state, t0_lab,
                          thomas_omega, unruh_temperature, wightman_rindler)
from rindler_spin.correlator import MIN_NUMERIC_ALPHA
from rindler_spin.cli import main

ULPS = 4.0 * 2.0**-52
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
    accel = accel_for_t0(t0, CODATA, CODATA.bohr_magneton)
    log_t0 = t0_lab(accel, CODATA, CODATA.bohr_magneton).log_t0
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
    "rapidity(constant, nan)": lambda: rapidity(AccelerationProfile.constant(1.0), math.nan),
    "rapidity(constant, inf)": lambda: rapidity(AccelerationProfile.constant(1.0), math.inf),
    "thomas_omega(2-vector)": lambda: thomas_omega((1.0, 0.0), (0.0, 0.0, 0.0)),
    "thomas_omega(1e200)": lambda: thomas_omega((1e200, 0.0, 0.0), (0.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("call", list(DOMAIN_HOLES.values()), ids=list(DOMAIN_HOLES))
def test_entry_points_refuse_nan_and_out_of_range(call):
    with pytest.raises(DomainError):
        call()
