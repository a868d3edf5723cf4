"""Thermal state of a driven qubit, and the Rabi law of its pulses.

Energies are measured in units of the qubit gap (hbar * omega_q = 1), so the
bare Hamiltonian is -sigma_z/2 with eigenvalues -1/2 (ground state |0>) and
+1/2 (excited state |1>).  A Gibbs state at inverse temperature beta
occupies the excited level with p = 1 / (1 + exp(beta)).  A resonant pulse
of area theta flips the qubit with probability sin^2(theta/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Inverse temperatures above this cap are treated as the zero-temperature
# limit.  Keeps arithmetic total instead of special-casing beta = inf.
BETA_CAP = 1e3


def flip_probability(theta: float) -> float:
    """The one Rabi law: a pulse of area theta flips the qubit with
    probability sin^2(theta/2)."""
    return math.sin(theta / 2.0) ** 2


def population_to_beta(population: float) -> float:
    """Invert the thermal occupation, beta = 2 artanh(1 - 2p), clamped to [0, ``BETA_CAP``]:
    p <= 0 reads as the cap (the zero-temperature limit) and p >= 1/2 as beta = 0."""
    if population <= 0.0:
        return BETA_CAP
    if population >= 0.5:
        return 0.0
    return 2.0 * math.atanh(1.0 - 2.0 * population)


@dataclass(frozen=True)
class ThermalSpec:
    """A Gibbs state, stored as its inverse temperature alone.

    The excited-state population is derived from beta on each read
    (1 - 2p = tanh(beta/2)); build from :meth:`from_beta` to cap beta = inf.
    """

    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")

    @classmethod
    def from_beta(cls, beta: float) -> "ThermalSpec":
        """Build from an inverse temperature, capping beta = inf at ``BETA_CAP``."""
        return cls(min(beta, BETA_CAP))

    @property
    def population(self) -> float:
        """Excited-state occupation p = exp(-beta) / (1 + exp(-beta)), in the
        overflow-safe form."""
        e = math.exp(-self.beta)
        return e / (1.0 + e)
