"""Thermal state of a driven qubit: inverse temperature and occupation.

Energies are measured in units of the qubit gap (hbar * omega_q = 1), so the
bare Hamiltonian is -sigma_z/2 with eigenvalues -1/2 (ground state |0>) and
+1/2 (excited state |1>).  A Gibbs state at inverse temperature beta
occupies the excited level with p = 1 / (1 + exp(beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Tolerance for algebraic identities on 2x2 matrices; double precision is
# ample at this size.
ATOL = 1e-12

# Inverse temperatures above this cap are treated as the zero-temperature
# limit.  Keeps arithmetic total instead of special-casing beta = inf.
BETA_CAP = 1e3


def thermal_population(beta: float) -> float:
    """Excited-state occupation of the Gibbs state at inverse temperature beta.

    p = exp(-beta) / (1 + exp(-beta)), evaluated in the overflow-safe form.
    Satisfies 1 - 2p = tanh(beta/2).
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    e = math.exp(-beta)
    return e / (1.0 + e)


def population_to_beta(population: float) -> float:
    """Invert the thermal occupation: beta = 2 * artanh(1 - 2p).

    Only populations strictly inside (0, 1/2) map to a finite positive beta;
    p = 0 corresponds to beta = inf and p >= 1/2 to a non-positive beta.
    """
    if not 0.0 < population < 0.5:
        raise ValueError(
            f"population {population} outside (0, 0.5): beta would be infinite or non-positive"
        )
    return 2.0 * math.atanh(1.0 - 2.0 * population)


@dataclass(frozen=True)
class ThermalSpec:
    """Inverse temperature and the equivalent excited-state population.

    The two fields are redundant by construction (1 - 2p = tanh(beta/2));
    build from :meth:`from_beta` so they stay consistent.
    """

    beta: float
    population: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0.0 <= self.population <= 0.5:
            raise ValueError(f"population must lie in [0, 1/2], got {self.population}")
        if abs((1.0 - 2.0 * self.population) - math.tanh(self.beta / 2.0)) > ATOL:
            raise ValueError(
                "inconsistent thermal parameters: 1 - 2p must equal tanh(beta/2)"
            )

    @classmethod
    def from_beta(cls, beta: float) -> "ThermalSpec":
        """Build from an inverse temperature, capping beta = inf at ``BETA_CAP``."""
        if math.isnan(beta):
            raise ValueError("beta must not be NaN")
        if beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        beta = min(beta, BETA_CAP)
        return cls(beta=beta, population=thermal_population(beta))
