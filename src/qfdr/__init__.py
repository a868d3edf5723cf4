"""Two-point-measurement work statistics for a driven qubit.

Monte Carlo sampling of coherent and incoherent driving protocols,
closed-form predictions for the quantum correction to the work
fluctuation-dissipation relation, readout-error modeling, and the bootstrap
and sigma-distance machinery that certifies measured corrections against
classical explanations.
"""

from .analytics import (
    FdrEstimate,
    coherent_asymptote,
    coherent_cumulants,
    delta_free_energy,
    incoherent_correction,
    incoherent_region_sweep,
    quantum_correction,
    spam_correction,
    temperature_profile,
)
from .protocol import (
    ProtocolSpec,
    SpamModel,
    StepTable,
    WorkSampleSet,
    apply_spam,
    coherent_step_distribution,
    sample_work,
)
from .qubit import ThermalSpec, population_to_beta
from .reference import load_reference_points
from .stats import (
    BootstrapReport,
    beta_error,
    binomial_error,
    bootstrap_q,
    calibrate_rotation_time,
    drift_scan,
    estimate_from_samples,
    sigma_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapReport",
    "FdrEstimate",
    "ProtocolSpec",
    "SpamModel",
    "StepTable",
    "ThermalSpec",
    "WorkSampleSet",
    "apply_spam",
    "beta_error",
    "binomial_error",
    "bootstrap_q",
    "calibrate_rotation_time",
    "coherent_asymptote",
    "coherent_cumulants",
    "coherent_step_distribution",
    "delta_free_energy",
    "drift_scan",
    "estimate_from_samples",
    "incoherent_correction",
    "incoherent_region_sweep",
    "load_reference_points",
    "population_to_beta",
    "quantum_correction",
    "sample_work",
    "sigma_distance",
    "spam_correction",
    "temperature_profile",
]
