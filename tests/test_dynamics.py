import math
import warnings

import numpy as np
import pytest

from rindler_spin import (BlochBoundWarning, DensityMatrix, DomainError,
                          LindbladSpec, PauliCoefficients, RateSet,
                          NumericError, bell_state, bloch_norm,
                          coeffs_from_density, concurrence, concurrence_numeric,
                          density_from_coefficients, evolve_analytic,
                          evolve_numeric, rates_closed, steady_state)
from rindler_spin.dynamics import _BASIS, SIGMA, _step_power

from helpers import bell_density, random_density, rk4_reference

# frozen: Gamma2(alpha=1) = 1.1628968162892166, r11(tau=1) = exp(-Gamma2)/4
R11_TAU1 = 0.078144845763714733
TANH_PI = math.tanh(math.pi)


def _partial_trace_first(m):
    """Trace out qubit 1 (the accelerated spin); returns the 2x2 spectator state."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            out[i, j] = m[i, j] + m[2 + i, 2 + j]
    return out


def test_coeffs_maximally_mixed():
    r = coeffs_from_density(DensityMatrix(np.eye(4, dtype=complex) / 4.0)).r
    assert r[0, 0] == pytest.approx(0.25, abs=1e-15)
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 0] = False
    assert np.max(np.abs(r[mask])) < 1e-15


def test_coeffs_bell_pattern():
    r = coeffs_from_density(bell_density()).r
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[3, 3] = 0.25
    expected[2, 2] = -0.25
    assert np.max(np.abs(r - expected)) < 1e-14


def test_coeffs_roundtrip_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        rho = random_density(rng)
        coeffs = coeffs_from_density(rho)
        back = density_from_coefficients(coeffs)
        assert np.max(np.abs(back.m - rho.m)) < 1e-12
        again = coeffs_from_density(back)
        assert np.max(np.abs(again.r - coeffs.r)) < 1e-14


def test_coeffs_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.2
    with pytest.raises(DomainError, match="not Hermitian"):
        coeffs_from_density(DensityMatrix(bad))


def test_coeffs_rejects_non_finite():
    bad = np.eye(4, dtype=complex) / 4.0
    bad[1, 2] = bad[2, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        coeffs_from_density(DensityMatrix(bad))


@pytest.mark.parametrize("make", [
    lambda: DensityMatrix(np.eye(4) / 4.0),
    lambda: PauliCoefficients(np.diag([0.25, 0.0, 0.0, 0.0])),
], ids=["DensityMatrix", "PauliCoefficients"])
def test_state_classes_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_density_identity_from_trace_only():
    r = np.zeros((4, 4))
    r[0, 0] = 0.25
    rho = density_from_coefficients(PauliCoefficients(r))
    assert np.max(np.abs(rho.m - np.eye(4) / 4.0)) < 1e-15


def test_density_bell_corners():
    rho = density_from_coefficients(bell_state())
    assert np.max(np.abs(rho.m - bell_density().m)) < 1e-14


def test_density_trace_validation():
    r = np.zeros((4, 4))
    r[0, 0] = 0.3
    with pytest.raises(DomainError, match="unit trace"):
        PauliCoefficients(r)
    with pytest.raises(DomainError, match="4x4 real array"):
        PauliCoefficients(np.zeros((3, 4)))


def test_density_bloch_bound_warning():
    r = np.zeros((4, 4))
    r[0, 0] = 0.25
    r[1, 1] = 0.5   # norm 4/3, outside the ball
    with pytest.warns(BlochBoundWarning):
        density_from_coefficients(PauliCoefficients(r))


def test_bell_state_purity():
    bell = bell_state()
    assert bloch_norm(bell) == pytest.approx(1.0, abs=1e-14)
    rho = density_from_coefficients(bell)
    assert np.trace(rho.m @ rho.m).real == pytest.approx(1.0, abs=1e-12)


def test_bloch_norm_maximally_mixed():
    r = np.zeros((4, 4))
    r[0, 0] = 0.25
    assert bloch_norm(PauliCoefficients(r)) == 0.0


def test_bloch_norm_early_monotone_then_rises():
    # non-increasing up to the minimum near tau ~ 1.17; the norm then climbs
    # back toward the steady-state value tanh(pi)^2/3, so global
    # monotonicity fails for this channel
    rates = rates_closed(1.0)
    bell = bell_state()
    values = [bloch_norm(evolve_analytic(bell, rates, t))
              for t in np.linspace(0.0, 1.1, 20)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert bloch_norm(evolve_analytic(bell, rates, 3.0)) > bloch_norm(
        evolve_analytic(bell, rates, 1.5))
    assert bloch_norm(steady_state(bell, 1.0)) == pytest.approx(
        TANH_PI**2 / 3.0, rel=1e-12)


def test_evolve_analytic_identity_at_zero():
    rates = rates_closed(1.0)
    bell = bell_state()
    out = evolve_analytic(bell, rates, 0.0)
    assert np.max(np.abs(out.r - bell.r)) == 0.0


def test_evolve_analytic_frozen_coherence():
    out = evolve_analytic(bell_state(), rates_closed(1.0), 1.0)
    assert out.r[1, 1] == pytest.approx(R11_TAU1, rel=1e-12)
    assert out.r[2, 2] == pytest.approx(-R11_TAU1, rel=1e-12)


def test_evolve_analytic_long_time_steady_pattern():
    rates = rates_closed(1.0)
    out = evolve_analytic(bell_state(), rates, 50.0)
    target = steady_state(bell_state(), 1.0)
    assert np.max(np.abs(out.r - target.r)) < 1e-12
    assert out.r[3, 0] == pytest.approx(TANH_PI * 0.25, rel=1e-10)


def test_evolve_analytic_bit_exact_rows():
    # row by row: rows 1 and 2 decay at the coherence rate, row 3 relaxes
    # toward the asymptote fed by row 0; without flips row 3 stays put
    rng = np.random.default_rng(37)
    no_flip = RateSet(alpha=1.0, n=0.0, g_plus=0.0, g_minus=0.0, g_z=0.3)
    starts = (bell_state(), coeffs_from_density(random_density(rng, real=True)))
    for rates in [rates_closed(a) for a in (0.5, 1.0, 3.7, 10.0)] + [no_flip]:
        flip_sum = rates.g_minus + rates.g_plus
        for tau in (0.0, 0.37, 1.0, 4.2):
            for coeffs in starts:
                r0 = coeffs.r
                decay = math.exp(-0.5 * (flip_sum + 4.0 * rates.g_z) * tau)
                want = np.array(r0)
                want[1] = r0[1] * decay
                want[2] = r0[2] * decay
                if flip_sum > 0:
                    relax = math.exp(-flip_sum * tau)
                    asympt = (rates.g_minus - rates.g_plus) / flip_sum
                    want[3] = r0[3] * relax + asympt * r0[0] * (1.0 - relax)
                np.testing.assert_array_equal(evolve_analytic(coeffs, rates, tau).r, want)


def test_evolve_analytic_negative_tau():
    with pytest.raises(DomainError):
        evolve_analytic(bell_state(), rates_closed(1.0), -0.1)


def test_evolve_numeric_matches_analytic():
    rates = rates_closed(1.0)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    rho0 = density_from_coefficients(bell_state())
    for tau in (0.1, 1.0, 5.0):
        numeric = evolve_numeric(rho0, spec, tau)
        analytic = density_from_coefficients(evolve_analytic(bell_state(), rates, tau))
        assert np.max(np.abs(numeric.m - analytic.m)) < 1e-8


@pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
def test_evolve_numeric_matches_reference_loop(alpha):
    # the step-matrix power against the explicit per-step loop, same discretization
    rates = rates_closed(alpha)
    dt = min(1e-3, 0.05 / max(rates.g_minus, rates.g_plus, 4.0 * rates.g_z))
    spec = LindbladSpec(rates=rates, dt=dt)
    rng = np.random.default_rng(int(alpha * 100))
    for rho0 in (density_from_coefficients(bell_state()), random_density(rng)):
        for steps in (1, 7, 300):
            tau = steps * dt
            out = evolve_numeric(rho0, spec, tau)
            ref = rk4_reference(rho0, rates, tau, dt)
            assert np.max(np.abs(out.m - ref.m)) < 1e-13


def test_evolve_numeric_cached_propagator():
    # a warm cache gives the cold result bit for bit, and still the loop's
    rates = rates_closed(1.0)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    rho0 = density_from_coefficients(bell_state())
    _step_power.cache_clear()
    cold = evolve_numeric(rho0, spec, 0.25)
    warm = evolve_numeric(rho0, spec, 0.25)
    assert _step_power.cache_info().hits == 1
    assert np.array_equal(cold.m, warm.m)
    assert np.max(np.abs(warm.m - rk4_reference(rho0, rates, 0.25, 1e-3).m)) < 1e-13
    power = _step_power(rates.g_minus, rates.g_plus, rates.g_z, 1e-3, 250)
    assert not power.flags.writeable
    with pytest.raises(ValueError):
        power[0, 0] = 0.0
    # the key holds the rates: another alpha with the same steps is its own entry
    other = evolve_numeric(rho0, LindbladSpec(rates=rates_closed(2.0), dt=1e-3), 0.25)
    assert _step_power.cache_info().misses == 2
    assert not np.array_equal(other.m, warm.m)


def test_equal_segments_share_one_step_power():
    # linspace steps differ in the last ulp; they must still hit one cache entry
    _step_power.cache_clear()
    concurrence_numeric(1.0, np.linspace(0.0, 5.0, 61))
    assert _step_power.cache_info().misses == 1


def test_density_eigh_read_only():
    rho = density_from_coefficients(bell_state())
    w, v = rho.eigh
    assert rho.eigh[0] is w
    assert not w.flags.writeable and not v.flags.writeable
    assert rho.min_eigenvalue() == w[0]


def test_evolve_numeric_high_temperature():
    # alpha = 20 needs about 2.5e5 steps to tau = 5: the trace stays exact
    rates = rates_closed(20.0)
    spec = LindbladSpec(rates=rates, dt=0.05 / (4.0 * rates.g_z))
    out = evolve_numeric(density_from_coefficients(bell_state()), spec, 5.0)
    assert abs(np.trace(out.m) - 1.0) <= 1e-14
    analytic = density_from_coefficients(evolve_analytic(bell_state(), rates, 5.0))
    assert np.max(np.abs(out.m - analytic.m)) < 1e-8


def test_evolve_numeric_step_count_domain(capsys):
    rates = rates_closed(1.0)
    rho0 = density_from_coefficients(bell_state())
    spec = LindbladSpec(rates=rates, dt=1e-3)
    same = evolve_numeric(rho0, spec, 0.0)
    assert same is not rho0 and np.array_equal(same.m, rho0.m)
    for tau in (-0.1, math.nan):
        with pytest.raises(DomainError, match="tau must be nonnegative"):
            evolve_numeric(rho0, spec, tau)
    with pytest.raises(DomainError, match=r"step count tau/dt is beyond the float range"):
        evolve_numeric(rho0, spec, math.inf)
    with pytest.raises(DomainError, match=r"beyond the float range .*dt = 1e-309\)"):
        evolve_numeric(rho0, LindbladSpec(rates=rates, dt=1e-309), 1.0)  # tau/dt overflows
    # the curve command's master-equation column, where the default step is subnormal
    from rindler_spin.cli import main
    assert main(["curve", "--alpha", "5e102", "--tau-grid", "0:1:2"]) == 2
    assert capsys.readouterr().err == (
        "error: the RK4 step count tau/dt is beyond the float range at these rates "
        "(tau = 1, step length dt = 1.26e-309)\n")


def test_curve_high_alpha_cli(capsys):
    from rindler_spin.cli import main
    assert main(["curve", "--alpha", "50"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 120
    assert max(abs(float(r[1]) - float(r[2])) for r in rows) <= 1e-6


def test_evolve_numeric_order_four():
    # halving dt shrinks the defect ~16x (checked loosely for roundoff headroom)
    rates = rates_closed(1.0)
    rho0 = density_from_coefficients(bell_state())
    ref = density_from_coefficients(evolve_analytic(bell_state(), rates, 1.0))
    err = []
    for dt in (4e-2, 2e-2):
        out = evolve_numeric(rho0, LindbladSpec(rates=rates, dt=dt), 1.0)
        err.append(np.max(np.abs(out.m - ref.m)))
    assert err[0] / err[1] == pytest.approx(16.0, rel=0.3)


def test_evolve_numeric_spectator_untouched():
    # maximally mixed input: the inertial spin's reduced state stays 1/2
    rates = rates_closed(1.0)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    rho0 = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    for tau in (0.5, 2.0):
        out = evolve_numeric(rho0, spec, tau)
        spectator = _partial_trace_first(out.m)
        assert np.max(np.abs(spectator - np.eye(2) / 2.0)) < 1e-12


def test_evolve_numeric_spectator_marginal_conserved():
    # r_0j are constants of motion, so the traced-out spectator is conserved
    rng = np.random.default_rng(33)
    rates = rates_closed(0.5)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    for _ in range(5):
        rho0 = random_density(rng)
        out = evolve_numeric(rho0, spec, 1.0)
        assert np.max(np.abs(_partial_trace_first(out.m)
                             - _partial_trace_first(rho0.m))) < 1e-10


def test_evolve_numeric_zero_rates():
    rates = RateSet(alpha=0.0, n=0.0, g_plus=0.0, g_minus=0.0, g_z=0.0)
    spec = LindbladSpec(rates=rates, dt=1e-2)
    rng = np.random.default_rng(8)
    rho0 = random_density(rng)
    out = evolve_numeric(rho0, spec, 3.0)
    assert np.max(np.abs(out.m - rho0.m)) < 1e-14


def test_evolve_numeric_trace_and_hermiticity():
    rates = rates_closed(1.0)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    out = evolve_numeric(density_from_coefficients(bell_state()), spec, 10.0)
    assert abs(np.trace(out.m).real - 1.0) < 1e-10
    assert abs(np.trace(out.m).imag) < 1e-12
    assert np.max(np.abs(out.m - out.m.conj().T)) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 5.0])
def test_evolve_numeric_positivity_random_states(alpha):
    rng = np.random.default_rng(int(alpha * 10))
    rates = rates_closed(alpha)
    spec = LindbladSpec(rates=rates, dt=1e-3)
    for _ in range(34):
        out = evolve_numeric(random_density(rng), spec, 0.3)
        assert out.min_eigenvalue() >= -1e-8


def test_evolve_numeric_refuses_lost_positivity(monkeypatch):
    import rindler_spin.dynamics as dynamics
    # tripling the Bell state's correlations leaves rho an eigenvalue 1/4 - 3/4
    monkeypatch.setattr(dynamics, "_step_power", lambda *key: np.diag([1.0, 3.0, 3.0, 3.0]))
    spec = LindbladSpec(rates=rates_closed(1.0), dt=1e-3)
    with pytest.raises(NumericError, match="reduce spec.dt") as excinfo:
        evolve_numeric(density_from_coefficients(bell_state()), spec, 0.1)
    assert excinfo.value.residual == pytest.approx(-0.5, abs=1e-12)


def test_lindblad_spec_step_guard():
    rates = rates_closed(5.0)   # 4 g_z ~ 39.8
    with pytest.raises(DomainError):
        LindbladSpec(rates=rates, dt=1e-2)
    LindbladSpec(rates=rates, dt=1e-3)  # fine
    for dt in (0.0, math.nan):
        with pytest.raises(DomainError, match="dt must be positive"):
            LindbladSpec(rates=rates, dt=dt)


@pytest.mark.parametrize("alpha", [1.0, 50.0])
def test_lindblad_spec_default_step(alpha):
    # the step the `curve` command has always used: a twentieth of the
    # shortest decay time, never coarser than 1e-3
    rates = rates_closed(alpha)
    stiffest = max(rates.g_minus, rates.g_plus, 4.0 * rates.g_z, 1e-12)
    assert LindbladSpec(rates).dt == min(1e-3, 0.05 / stiffest)
    assert LindbladSpec(rates, dt=1e-7).dt == 1e-7  # an explicit step wins


def test_density_validate_errors():
    good = np.eye(4, dtype=complex) / 4.0
    DensityMatrix(good).validate()
    with pytest.raises(DomainError, match="must be 4x4"):
        DensityMatrix(np.eye(2))
    bad_trace = np.eye(4, dtype=complex) / 3.0
    with pytest.raises(DomainError, match="unit trace"):
        DensityMatrix(bad_trace).validate()
    non_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainError, match="negative eigenvalue"):
        DensityMatrix(non_psd).validate()
    non_herm = np.array(good)
    non_herm[0, 1] = 1e-3
    with pytest.raises(DomainError, match="not Hermitian"):
        DensityMatrix(non_herm).validate()
    for value in (math.nan, math.inf):
        for i, j in ((1, 1), (0, 2)):  # a diagonal entry; a Hermitian off-diagonal pair
            non_finite = np.array(good)
            non_finite[i, j] = non_finite[j, i] = value
            with pytest.raises(DomainError, match="non-finite"):
                DensityMatrix(non_finite).validate()


def _numpy_structural_defect(m):
    """The finite, Hermitian and unit-trace checks written with numpy, as a reference."""
    if not np.isfinite(m).all():
        return "density matrix has non-finite entries"
    if np.abs(m - m.conj().T).max() > 1e-12:
        return "density matrix is not Hermitian"
    trace = complex(m.trace())
    if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
        return "density matrix must have unit trace"
    return None


def _bell_with(deltas):
    """The Bell density matrix with ``deltas[(i, j)]`` added to each entry m[i, j]."""
    m = np.array(bell_density().m)
    for index, delta in deltas.items():
        m[index] += delta
    return m


STRUCTURAL_CASES = {
    "bell": _bell_with({}),
    "nan-off-diagonal": _bell_with({(1, 2): math.nan}),
    "inf-diagonal": _bell_with({(1, 1): math.inf}),
    "hermitian-looking-i-inf": _bell_with({(0, 1): complex(0.0, math.inf),
                                           (1, 0): complex(0.0, -math.inf)}),
    "skew-0.9e-12": _bell_with({(0, 1): 0.9e-12}),
    "skew-1.1e-12": _bell_with({(0, 1): 1.1e-12}),
    "trace-real-off-1.1e-12": _bell_with({(1, 1): 1.1e-12}),
    "diagonal-imag-0.4e-12": _bell_with({(i, i): 0.4e-12j for i in range(4)}),
    "diagonal-imag-0.6e-12": _bell_with({(i, i): 0.6e-12j for i in range(4)}),
}


@pytest.mark.parametrize("m", list(STRUCTURAL_CASES.values()), ids=list(STRUCTURAL_CASES))
def test_structural_check_matches_numpy_reference(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _numpy_structural_defect(m)
        assert DensityMatrix(m)._structural_defect == expected
        if expected is None:
            return
        spec = LindbladSpec(rates_closed(1.0))
        for check in (lambda rho: rho.validate(), coeffs_from_density,
                      lambda rho: evolve_numeric(rho, spec, 0.5)):
            with pytest.raises(DomainError) as info:
                check(DensityMatrix(m))
            assert str(info.value) == expected


def test_structural_cases_cover_every_verdict():
    verdicts = [_numpy_structural_defect(m) for m in STRUCTURAL_CASES.values()]
    assert verdicts.count(None) == 2
    assert len(set(verdicts)) == 4


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.7])
def test_concurrence_numeric_matches_coefficient_object_chain(alpha):
    # evolve_numeric with each segment's coefficients taken through a
    # PauliCoefficients, as coeffs_from_density gives them, bit for bit
    taus = np.linspace(0.0, 5.0, 61)
    spec = LindbladSpec(rates=rates_closed(alpha))
    rates = spec.rates
    rho, prev, expected = density_from_coefficients(bell_state()), 0.0, []
    for tau in map(float, taus):
        if tau != prev:
            steps = max(1, math.ceil((tau - prev) / spec.dt))
            h = float(f"{(tau - prev) / steps:.12e}")
            power = _step_power(rates.g_minus, rates.g_plus, rates.g_z, h, steps)
            r = power @ coeffs_from_density(rho).r
            rho = DensityMatrix((r.reshape(16) @ _BASIS).reshape(4, 4))
        prev = tau
        expected.append(concurrence(rho))
    assert concurrence_numeric(alpha, taus) == expected


def test_steady_state_bell_product():
    ss = steady_state(bell_state(), 1.0)
    rho = density_from_coefficients(ss)
    first = (np.eye(2) + TANH_PI * SIGMA[3].real) / 2.0
    expected = np.kron(first, np.eye(2) / 2.0)
    assert np.max(np.abs(rho.m - expected)) < 1e-14


def test_steady_state_infinite_temperature():
    ss = steady_state(bell_state(), 1e12)
    assert np.max(np.abs(ss.r[3, :])) < 1e-11  # tanh(pi/alpha) -> 0
    rho = density_from_coefficients(ss)
    assert np.max(np.abs(rho.m - np.eye(4) / 4.0)) < 1e-11


def test_steady_state_depends_only_on_marginal_row():
    rng = np.random.default_rng(13)
    c1 = coeffs_from_density(random_density(rng))
    c2_r = np.array(c1.r)
    c2_r[1:, :] = rng.standard_normal((3, 4)) * 0.01
    c2 = PauliCoefficients(c2_r)
    assert np.max(np.abs(steady_state(c1, 2.0).r - steady_state(c2, 2.0).r)) == 0.0


def test_steady_state_domain():
    with pytest.raises(DomainError):
        steady_state(bell_state(), 0.0)
