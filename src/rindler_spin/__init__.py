"""Spin-entanglement decay for a uniformly accelerated electron.

Simulates the open-system dynamics of two initially entangled electron
spins, one inertial and one uniformly accelerated through the thermal
magnetic-field fluctuations it perceives: worldline kinematics, Wightman
correlators and flip/dephasing rates, Lindblad evolution of the pair,
concurrence decay, and the proper- and lab-frame disentanglement times.
"""

from .params import (CODATA, OperatingPoint, PhysicalConstants, alpha_of,
                     acceleration_from_field, energy_gap, gamma0,
                     unruh_temperature)
from .kinematics import (AccelerationProfile, WorldlineEvent, rapidity,
                         rindler_event, rindler_residual, thomas_omega, worldline)
from .correlator import (RateSet, bose_occupation, oracle_residual, rates_closed,
                         rates_numeric, wightman_flat, wightman_rindler)
from .dynamics import (DensityMatrix, LindbladSpec, PauliCoefficients,
                       bell_state, bloch_norm, coeffs_from_density,
                       density_from_coefficients, evolve_analytic,
                       evolve_numeric, steady_state)
from .entanglement import (ConcurrenceCurve, LabDisentanglement, RelaxationTimes,
                           accel_for_t0, concurrence, concurrence_closed,
                           concurrence_curve, concurrence_numeric, concurrence_real,
                           disentanglement_time, lab_exponent_constant,
                           relaxation_times, t0_lab, tau0_asymptotic,
                           tau0_inverse_cube)
from .errors import (BlochBoundWarning, DomainError,
                     IntegrationInstabilityError, NumericError,
                     RindlerSpinError, SingularityError, ValidationError)

__version__ = "0.1.0"

__all__ = [
    "CODATA", "OperatingPoint", "PhysicalConstants", "alpha_of",
    "acceleration_from_field", "energy_gap", "gamma0", "unruh_temperature",
    "AccelerationProfile", "WorldlineEvent", "rapidity", "rindler_event",
    "rindler_residual", "thomas_omega", "worldline",
    "RateSet", "bose_occupation", "oracle_residual", "rates_closed", "rates_numeric",
    "wightman_flat", "wightman_rindler",
    "DensityMatrix", "LindbladSpec", "PauliCoefficients", "bell_state",
    "bloch_norm", "coeffs_from_density", "density_from_coefficients",
    "evolve_analytic", "evolve_numeric", "steady_state",
    "ConcurrenceCurve", "LabDisentanglement", "RelaxationTimes",
    "accel_for_t0", "concurrence", "concurrence_closed", "concurrence_curve",
    "concurrence_numeric", "concurrence_real", "disentanglement_time",
    "lab_exponent_constant", "relaxation_times", "t0_lab", "tau0_asymptotic",
    "tau0_inverse_cube",
    "BlochBoundWarning", "DomainError", "IntegrationInstabilityError",
    "NumericError", "RindlerSpinError", "SingularityError", "ValidationError",
    "__version__",
]
