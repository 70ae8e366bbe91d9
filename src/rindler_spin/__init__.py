"""Spin-entanglement decay for a uniformly accelerated electron.

Simulates the open-system dynamics of two initially entangled electron
spins, one inertial and one uniformly accelerated through the thermal
magnetic-field fluctuations it perceives: worldline kinematics, Wightman
correlators and flip/dephasing rates, Lindblad evolution of the pair,
concurrence decay, and the proper- and lab-frame disentanglement times.
"""

import os
import sys

# Every matrix here is at most 16x16, so OpenBLAS worker threads only spin.
# OpenBLAS reads its thread count once, when it loads; numpy's and scipy's
# copies both load during the imports below.  Where this package is the first
# to import numpy and the caller set no count, load them with one thread, then
# restore os.environ so child processes see the caller's environment.
_ONE_BLAS_THREAD = "numpy" not in sys.modules and not any(
    k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _ONE_BLAS_THREAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .params import (CODATA, PhysicalConstants, alpha_of, acceleration_from_field,
                         energy_gap, gamma0, unruh_temperature)
    from .kinematics import (AccelerationProfile, WorldlineEvent, rindler_event,
                             rindler_residual, worldline)
    from .correlator import (RateSet, bose_occupation, oracle_residual, rates_closed,
                             rates_numeric, wightman_rindler)
    from .dynamics import (DensityMatrix, LindbladSpec, PauliCoefficients,
                           bell_state, bloch_norm, coeffs_from_density,
                           density_from_coefficients, evolve_analytic,
                           evolve_numeric, steady_state)
    from .entanglement import (LabDisentanglement, RelaxationTimes, accel_for_t0,
                               concurrence, concurrence_closed, concurrence_numeric,
                               concurrence_real, disentanglement_time,
                               lab_exponent_constant, relaxation_times, t0_lab,
                               tau0_inverse_cube)
    from .errors import BlochBoundWarning, DomainError, NumericError, RindlerSpinError
finally:
    if _ONE_BLAS_THREAD:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del _ONE_BLAS_THREAD

__version__ = "0.1.0"

__all__ = [
    "CODATA", "PhysicalConstants", "alpha_of", "acceleration_from_field",
    "energy_gap", "gamma0", "unruh_temperature",
    "AccelerationProfile", "WorldlineEvent", "rindler_event", "rindler_residual",
    "worldline",
    "RateSet", "bose_occupation", "oracle_residual", "rates_closed", "rates_numeric",
    "wightman_rindler",
    "DensityMatrix", "LindbladSpec", "PauliCoefficients", "bell_state",
    "bloch_norm", "coeffs_from_density", "density_from_coefficients",
    "evolve_analytic", "evolve_numeric", "steady_state",
    "LabDisentanglement", "RelaxationTimes",
    "accel_for_t0", "concurrence", "concurrence_closed",
    "concurrence_numeric", "concurrence_real", "disentanglement_time",
    "lab_exponent_constant", "relaxation_times", "t0_lab", "tau0_inverse_cube",
    "BlochBoundWarning", "DomainError", "NumericError", "RindlerSpinError",
    "__version__",
]
