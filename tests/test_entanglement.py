import json
import math
import sys

import numpy as np
import pytest

from rindler_spin import (CODATA, DensityMatrix, DomainError, NumericError, accel_for_t0,
                          bell_state, concurrence, concurrence_closed,
                          concurrence_numeric, concurrence_real,
                          density_from_coefficients, disentanglement_time,
                          evolve_analytic, gamma0, lab_exponent_constant,
                          rates_closed, relaxation_times, steady_state,
                          t0_lab, tau0_inverse_cube)
from rindler_spin.dynamics import PAULI2, SIGMA
from rindler_spin.linalg4 import characteristic_roots

from helpers import (bell_density, count_eigensolves, evolved_bell_density,
                     random_density, random_unitary2, wootters_reference)

# frozen oracle values, mpmath dps=50
GAMMA1_A1 = 2.0074837463946426
GAMMA2_A1 = 1.1628968162892166
T1_A1 = 0.49813603811037497
T2_A1 = 0.8599215218345704
TAU0_A1 = 2.7068896432990886
TAU0_A100 = 3.4514387463029793e-6
C_CLOSED_1_1 = 0.275239957561284
PREFACTOR = 1.294272110708701          # 3 pi ln3 / 8
EXPONENT_SI = 3.8429978491748763e61    # (3 pi ln3/8) hbar c^5 / mu_B^2, m^2/s^4


def test_concurrence_bell():
    assert concurrence(bell_density()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_product_state():
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    assert concurrence(DensityMatrix(up_up)) == 0.0


def test_concurrence_maximally_mixed():
    assert concurrence(DensityMatrix(np.eye(4, dtype=complex) / 4.0)) == 0.0


def test_concurrence_matches_reference_on_random_states():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = random_density(rng)
        assert concurrence(rho) == pytest.approx(wootters_reference(rho), abs=1e-9)


def test_concurrence_pure_states():
    # for a pure state the lambdas collapse to one: C = |psi^T (sy x sy) psi|
    spin_flip = np.kron(SIGMA[2], SIGMA[2])
    rng = np.random.default_rng(37)
    for _ in range(200):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho = DensityMatrix(np.outer(psi, psi.conj()))
        assert concurrence(rho) == pytest.approx(abs(psi @ spin_flip @ psi), abs=1e-12)


def test_concurrence_rank_two_states():
    # rank-deficient rho: the Hermitian eigen-solve returns tiny negative
    # eigenvalues, which the factorization clips.  A Bell-pair mixture
    # p Phi+ + (1-p) Psi+ under local unitaries has C = |2p - 1| exactly.
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = rng.uniform()
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        mix = p * np.outer(phi_plus, phi_plus) + (1.0 - p) * np.outer(psi_plus, psi_plus)
        rho = DensityMatrix(u @ mix @ u.conj().T)
        assert concurrence(rho) == pytest.approx(abs(2.0 * p - 1.0), abs=1e-12)
    # generic rank 2: the reference squares the lambdas, so its two zero
    # lambdas carry sqrt(machine eps) ~ 1e-8 of noise
    for _ in range(200):
        a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        assert concurrence(rho) == pytest.approx(wootters_reference(rho), abs=1e-7)


def test_concurrence_evolved_bell_vs_closed():
    rho = evolved_bell_density(1.0, 1.0)
    assert concurrence(rho) == pytest.approx(concurrence_closed(1.0, 1.0), abs=1e-8)
    assert concurrence_closed(1.0, 1.0) == pytest.approx(C_CLOSED_1_1, rel=1e-12)


def test_concurrence_rejects_invalid_state():
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(DomainError, match="negative eigenvalue"):
        concurrence(DensityMatrix(bad))
    good = np.eye(4, dtype=complex) / 4.0
    slightly_negative = np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]).astype(complex)
    non_herm, bad_trace, non_finite = np.array(good), good * 1.01, np.array(good)
    non_herm[0, 1] = 1e-3
    non_finite[1, 1] = math.nan
    for m, defect in ((slightly_negative, "negative eigenvalue"), (non_herm, "not Hermitian"),
                      (bad_trace, "unit trace"), (non_finite, "non-finite")):
        with pytest.raises(DomainError, match=defect):
            concurrence(DensityMatrix(m))
    # within the positivity tolerance of DensityMatrix.validate
    edge = np.diag([0.5 + 1e-11, 0.5, 0.0, -1e-11]).astype(complex)
    assert concurrence(DensityMatrix(edge)) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_single_eigensolve(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    rho = evolved_bell_density(1.0, 1.0)
    concurrence(rho)
    assert calls == ["jacobi_hermitian"]
    # the spectrum is the state's own: validate and the real route reuse it
    rho.validate()
    concurrence_real(rho)
    assert calls == ["jacobi_hermitian"]


def test_curve_one_eigensolve_per_state(monkeypatch):
    # the curve pipeline: evolve segment by segment, concurrence per sample
    calls = count_eigensolves(monkeypatch)
    taus = np.linspace(0.0, 5.0, 120)
    values = concurrence_numeric(1.0, taus)
    assert len(values) == 120
    # the Bell state plus 119 evolved states, each solved once
    assert calls == ["jacobi_hermitian"] * 120


def test_concurrence_real_bell_and_mixed():
    assert concurrence_real(bell_density()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_real(DensityMatrix(np.eye(4, dtype=complex) / 4.0)) == 0.0


def test_concurrence_real_matches_general_route():
    rng = np.random.default_rng(19)
    for _ in range(100):
        rho = random_density(rng, real=True)
        assert concurrence_real(rho) == pytest.approx(concurrence(rho), abs=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_concurrence_real_evolved_bell_vs_closed(alpha):
    # the cross-check bound, on the curve's default grid across the acceptance range
    rates = rates_closed(alpha)
    for tau in np.linspace(0.0, 5.0, 120):
        rho = density_from_coefficients(evolve_analytic(bell_state(), rates, tau))
        assert concurrence_real(rho) == pytest.approx(concurrence_closed(alpha, tau), abs=1e-8)


def test_concurrence_real_double_root():
    # rho (sy x sy) has two double roots here, the hard case for a polynomial route
    alpha, tau = 6.393839029309495, float(np.linspace(0.0, 5.0, 120)[108])
    rho = density_from_coefficients(evolve_analytic(bell_state(), rates_closed(alpha), tau))
    roots = characteristic_roots(rho.m.real @ PAULI2[2, 2].real)
    assert np.isfinite(roots).all()
    assert concurrence_real(rho) == pytest.approx(concurrence(rho), abs=1e-9)


def test_concurrence_real_rejects_complex_roots(monkeypatch):
    import rindler_spin.entanglement as entanglement
    monkeypatch.setattr(entanglement, "characteristic_roots",
                        lambda m: np.array([0.5 + 0.1j, 0.5 - 0.1j, 0.0, 0.0]))
    with pytest.raises(NumericError, match="complex eigenvalue residual") as excinfo:
        concurrence_real(bell_density())
    assert excinfo.value.residual == 0.1


def test_concurrence_real_requires_real_input():
    rng = np.random.default_rng(23)
    with pytest.raises(DomainError, match="requires a real density matrix"):
        concurrence_real(random_density(rng))
    # a nan imaginary part passes the realness check; validate refuses it
    m = np.eye(4, dtype=complex) / 4.0
    m[1, 2] = m[2, 1] = complex(0.0, math.nan)
    with pytest.raises(DomainError, match="non-finite"):
        concurrence_real(DensityMatrix(m))


def test_local_unitary_invariance():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rho = random_density(rng)
        u = np.kron(random_unitary2(rng), random_unitary2(rng))
        rotated = DensityMatrix(u @ rho.m @ u.conj().T)
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_concurrence_closed_endpoints():
    assert concurrence_closed(1.0, 0.0) == 1.0
    assert concurrence_closed(1.0, 1e3) == 0.0
    assert concurrence_closed(0.7, 0.0) == 1.0


def test_concurrence_closed_domain():
    with pytest.raises(DomainError):
        concurrence_closed(0.0, 1.0)
    with pytest.raises(DomainError):
        concurrence_closed(1.0, -0.1)


def test_concurrence_closed_zero_crossing():
    assert concurrence_closed(1.0, TAU0_A1 - 1e-6) > 0.0
    assert concurrence_closed(1.0, TAU0_A1 + 1e-6) == 0.0


def test_closed_form_equivalence_grid():
    for alpha in (0.5, 1.0, 2.0, 5.0):
        rates = rates_closed(alpha)
        for tau in np.linspace(0.0, 5.0, 20):
            evolved = density_from_coefficients(evolve_analytic(bell_state(), rates, tau))
            assert concurrence(evolved) == pytest.approx(
                concurrence_closed(alpha, tau), abs=1e-8)


def test_relaxation_times_alpha_one():
    times = relaxation_times(1.0)
    assert times.gamma1 == pytest.approx(GAMMA1_A1, rel=1e-13)
    assert times.gamma2 == pytest.approx(GAMMA2_A1, rel=1e-13)
    assert times.t1 == pytest.approx(T1_A1, rel=1e-13)
    assert times.t2 == pytest.approx(T2_A1, rel=1e-13)


def test_relaxation_times_zero_acceleration_limit():
    times = relaxation_times(0.0)
    assert times.t1 == 1.0
    assert times.t2 == 2.0
    assert relaxation_times(-3.0).t2 == 2.0


def test_relaxation_times_large_alpha_merge():
    # Gamma1 and Gamma2 both approach alpha^3/pi: within 0.1% at alpha=100
    times = relaxation_times(100.0)
    assert times.gamma1 == pytest.approx(times.gamma2, rel=1e-3)
    assert times.gamma1 == pytest.approx(100.0**3 / math.pi, rel=5e-3)


def test_relaxation_ordering_log_grid():
    for alpha in np.logspace(-2, 2, 100):
        times = relaxation_times(alpha)
        assert times.t1 < times.t2 <= 2.0 * times.t1 * (1.0 + 1e-12)


def test_disentanglement_time_alpha_one():
    tau0 = disentanglement_time(1.0)
    assert tau0 == pytest.approx(TAU0_A1, rel=1e-10)
    # residual of the crossing equation at the root
    times = relaxation_times(1.0)
    residual = math.exp(-tau0 * times.gamma2) - 0.5 * (
        1.0 - math.exp(-tau0 * times.gamma1)) / math.cosh(math.pi)
    assert abs(residual) < 1e-10


def test_disentanglement_time_asymptote():
    tau0 = disentanglement_time(100.0)
    assert tau0 == pytest.approx(TAU0_A100, rel=1e-10)
    assert tau0 == pytest.approx(math.pi * math.log(3.0) / 100.0**3, rel=1e-3)


def test_disentanglement_time_monotone():
    grid = np.logspace(0.0, 2.0, 30)
    taus = [disentanglement_time(a) for a in grid]
    assert all(hi < lo for lo, hi in zip(taus, taus[1:]))


def test_disentanglement_time_domain():
    with pytest.raises(DomainError):
        disentanglement_time(0.0)
    with pytest.raises(DomainError):  # alpha^3 overflows
        disentanglement_time(1e200)
    with pytest.raises(DomainError):
        relaxation_times(1e200)


def test_disentanglement_time_small_alpha():
    # cosh(pi/alpha) overflows below alpha ~ pi/710; the log-form crossing does not
    alpha = 1e-3
    tau0 = disentanglement_time(alpha)
    times = relaxation_times(alpha)
    x = math.pi / alpha
    residual = (-tau0 * times.gamma2 + x + math.log1p(math.exp(-2.0 * x))
                - math.log(-math.expm1(-tau0 * times.gamma1)))
    assert abs(residual) < 1e-8
    assert tau0 == pytest.approx(2.0 * math.pi / alpha, rel=1e-5)
    # roots hundreds of decades above T2, up to near the largest float
    for alpha in (1e-120, 1e-300, 4e-308, 7e-308, 1e-307):
        assert disentanglement_time(alpha) == pytest.approx(2.0 * math.pi / alpha, rel=1e-9)
    for alpha in (3e-308, 1e-309, 5e-324):  # the root ~2 pi/alpha is not a float
        with pytest.raises(DomainError, match="3.5e-308"):
            disentanglement_time(alpha)


def test_concurrence_curve_structure():
    taus = np.linspace(0.0, 4.0, 30)
    values = [concurrence_closed(1.0, float(tau)) for tau in taus]
    tau0 = disentanglement_time(1.0)
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert tau0 == pytest.approx(TAU0_A1, rel=1e-10)
    for tau, c in zip(taus, values):
        if tau >= tau0:
            assert c == 0.0


def test_concurrence_decreasing_in_alpha():
    for tau in (0.5, 1.0, 2.0):
        values = [concurrence_closed(a, tau) for a in (0.5, 1.0, 2.0, 5.0)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_steady_state_concurrence_zero():
    rng = np.random.default_rng(31)
    from rindler_spin import coeffs_from_density
    for alpha in (0.5, 1.0, 5.0):
        coeffs = coeffs_from_density(random_density(rng))
        rho = density_from_coefficients(steady_state(coeffs, alpha))
        assert concurrence(rho) <= 1e-12


def test_tau0_asymptotic_prefactor_and_scaling(capsys):
    from rindler_spin.cli import main

    def tau0_asymptotic_s(accel):
        assert main(["constants", "--accel", accel, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["values"]["tau0_asymptotic_s"]

    assert 3.0 * math.pi * math.log(3.0) / 8.0 == pytest.approx(PREFACTOR, rel=1e-14)
    base = tau0_asymptotic_s("1e26")
    assert tau0_asymptotic_s("2e26") == pytest.approx(base / 8.0, rel=1e-13)
    assert base == pytest.approx(0.011521017712928494, rel=1e-12)


def test_tau0_asymptotic_dimensionless_crosscheck():
    # the cgs inverse-cube law (3 pi ln3/8) hbar c^6/(mu^2 a^3) is pi ln3/alpha^3 over gamma0
    from rindler_spin import alpha_of
    mu = CODATA.bohr_magneton
    gap = 2.0 * mu
    accel = 100.0 * CODATA.c * gap / CODATA.hbar   # alpha = 100
    alpha, rate0 = alpha_of(accel, gap), gamma0(mu, gap)
    cgs = 3.0 * math.pi * math.log(3.0) / 8.0 * CODATA.hbar * CODATA.c**6 / (mu**2 * accel**3)
    assert cgs == pytest.approx(tau0_inverse_cube(alpha) / rate0, rel=1e-12)
    assert cgs == pytest.approx(disentanglement_time(alpha) / rate0, rel=1e-3)


def test_tau0_inverse_cube_domain():
    assert tau0_inverse_cube(1.0) == math.pi * math.log(3.0)
    assert tau0_inverse_cube(1e-110) == math.inf  # alpha^3 underflows to 0
    for alpha in (0.0, -1.0, 1e103):
        with pytest.raises(DomainError):
            tau0_inverse_cube(alpha)


def test_lab_exponent_constant():
    value_si = lab_exponent_constant(CODATA.bohr_magneton) / 1e4
    assert value_si == pytest.approx(EXPONENT_SI, rel=1e-12)
    assert abs(value_si - 3.8e61) / 3.8e61 < 0.03
    # mu**2 overflows, K/mu^2 overflows, mu**2 underflows to 0
    for mu in (1e200, 1e-150, 1e-200):
        with pytest.raises(DomainError, match="exponent constant"):
            lab_exponent_constant(mu)


def test_t0_lab_overflow_and_log():
    lab = t0_lab(1e26, CODATA.bohr_magneton)
    assert lab.t0 == math.inf
    expected_log = math.log(CODATA.c / 2e26) + EXPONENT_SI * 1e4 / 1e52
    assert lab.log_t0 == pytest.approx(expected_log, rel=1e-10)


def test_t0_lab_finite_branch():
    mu = CODATA.bohr_magneton
    accel = 7e31
    lab = t0_lab(accel, mu)
    assert math.isfinite(lab.t0)
    assert math.log(lab.t0) == pytest.approx(lab.log_t0, rel=1e-12)


def test_t0_lab_exponent_quarter_scaling():
    mu = CODATA.bohr_magneton
    e1 = lab_exponent_constant(mu) / (1e26) ** 2
    e2 = lab_exponent_constant(mu) / (2e26) ** 2
    assert e2 == pytest.approx(e1 / 4.0, rel=1e-14)


def test_t0_reduces_to_sinh_relation():
    # (c/a) sinh(a tau / c) ~ (c/2a) exp(a tau / c) once a tau / c > 10
    for x in (10.5, 15.0, 30.0):
        assert math.sinh(x) == pytest.approx(math.exp(x) / 2.0, rel=1e-6)


def test_t0_lab_domain():
    mu = CODATA.bohr_magneton
    for accel in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            t0_lab(accel, mu)


def test_t0_lab_float_range_edges():
    # 2a overflows, and K/a^2 overflows, without an exception
    mu = CODATA.bohr_magneton
    lab = t0_lab(1.7e308, mu)
    assert lab.t0 == pytest.approx(CODATA.c / 2.0 / 1.7e308, rel=1e-12)
    assert lab.log_t0 == pytest.approx(math.log(CODATA.c / 2.0) - math.log(1.7e308), rel=1e-14)
    assert t0_lab(1e-200, mu).t0 == math.inf


def test_t0_lab_finite_where_the_exponential_alone_overflows():
    # a > c/2: the prefactor c/2a < 1 brings back into range an exp that overflows
    mu = CODATA.bohr_magneton
    assert lab_exponent_constant(mu) / 2.3e31**2 > math.log(sys.float_info.max)
    lab = t0_lab(2.3e31, mu)
    assert lab.t0 == pytest.approx(2.0589e294, rel=1e-4)
    assert math.log(lab.t0) == pytest.approx(lab.log_t0, rel=1e-14)


def test_accel_for_t0_inverts_t0_lab():
    mu = CODATA.bohr_magneton
    for target in (1e-298, 1e-20, 1.0, 3.15e7, 1e300, 1.7e308):
        accel = accel_for_t0(target, mu)
        log_t0 = t0_lab(accel, mu).log_t0
        assert abs(log_t0 - math.log(target)) <= 1e-12 * max(1.0, abs(math.log(target)))
    # the lab time falls as the acceleration grows
    assert accel_for_t0(1e300, mu) < accel_for_t0(3.15e7, mu)
    assert t0_lab(accel_for_t0(1e300, mu), mu).t0 == pytest.approx(
        1e300, rel=1e-12)
    # another moment: K scales as 1/mu^2
    accel = accel_for_t0(100.0, 2e-20)
    assert t0_lab(accel, 2e-20).log_t0 == pytest.approx(math.log(100.0), rel=1e-13)


def test_accel_for_t0_where_twice_the_exponent_constant_overflows():
    # K is finite here but 2K is not; the inversion works from ln K + ln 2
    mu = 5.749136687039799e-142
    assert 2.0 * lab_exponent_constant(mu) == math.inf
    accel = accel_for_t0(3.15e7, mu)
    assert math.isfinite(accel)
    assert abs(t0_lab(accel, mu).log_t0 - math.log(3.15e7)) <= 1e-12 * math.log(3.15e7)


def test_accel_for_t0_domain():
    mu = CODATA.bohr_magneton
    for target in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            accel_for_t0(target, mu)
    for target in (1e-300, 5e-324):  # the acceleration would overflow
        with pytest.raises(NumericError):
            accel_for_t0(target, mu)
