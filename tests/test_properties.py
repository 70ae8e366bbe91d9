"""Property tests of the closed forms over decades of alpha and tau."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_spin import concurrence_closed, disentanglement_time, relaxation_times

ULPS = 4.0 * 2.0**-52

# alpha log-uniform on [1e-6, 1e6]
alphas = st.floats(min_value=math.log(1e-6), max_value=math.log(1e6)).map(math.exp)
taus = st.floats(min_value=0.0, max_value=1e6)


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
