"""Exact 2x2 density-matrix algebra for a driven qubit.

Energies are measured in units of the qubit gap (hbar * omega_q = 1), so the
bare Hamiltonian is -sigma_z/2 with eigenvalues -1/2 (ground state |0>) and
+1/2 (excited state |1>).  Everything here is a pure function on small numpy
arrays; this module doubles as the brute-force reference implementation that
validates the closed-form outcome tables used by the protocol engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for algebraic identities on 2x2 matrices; double precision is
# ample at this size.
ATOL = 1e-12

# Inverse temperatures above this cap are treated as the zero-temperature
# limit.  Keeps arithmetic total instead of special-casing beta = inf.
BETA_CAP = 1e3

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
IDENTITY = np.eye(2, dtype=np.complex128)


class StateIntegrityError(ValueError):
    """Raised when a 2x2 matrix fails the density-matrix invariants."""


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate that ``rho`` is a physical qubit density matrix.

    Checks shape, finiteness, Hermiticity, unit trace and positivity
    (eigenvalues >= -ATOL), each to within ``ATOL``.  Returns ``rho``
    unchanged so the call can be inlined.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise StateIntegrityError(f"expected a 2x2 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(np.float64))):
        raise StateIntegrityError("density matrix has non-finite entries")
    if not np.allclose(rho, rho.conj().T, atol=ATOL, rtol=0.0):
        raise StateIntegrityError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > ATOL or abs(np.trace(rho).imag) > ATOL:
        raise StateIntegrityError("density matrix trace is not 1")
    eigenvalues = np.linalg.eigvalsh(rho)
    if eigenvalues.min() < -ATOL:
        raise StateIntegrityError(f"density matrix has negative eigenvalue {eigenvalues.min()}")
    return rho


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
    use :meth:`from_beta` or :meth:`from_population` so they stay consistent.
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

    @classmethod
    def from_population(cls, population: float) -> "ThermalSpec":
        return cls(beta=population_to_beta(population), population=population)


def gibbs_state(thermal: ThermalSpec) -> np.ndarray:
    """Gibbs state of the bare qubit: diag(1, exp(-beta)) / Z in the logical basis.

    The excited-state matrix element equals ``thermal.population`` and the
    off-diagonals are exactly zero.
    """
    p = thermal.population
    return np.array([[1.0 - p, 0.0], [0.0, p]], dtype=np.complex128)


def rotation(theta: float) -> np.ndarray:
    """Bloch rotation exp(-i * theta/2 * sigma_x) as an explicit 2x2 unitary."""
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=np.complex128)


def effective_hamiltonian(theta: float) -> np.ndarray:
    """Rotated qubit Hamiltonian (sin(theta) sigma_y - cos(theta) sigma_z) / 2.

    A pure basis change of -sigma_z/2: the eigenvalues are -1/2 and +1/2 for
    every angle, so driving along theta changes no level spacing and the
    equilibrium free energy is angle-independent.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return 0.5 * (math.sin(theta) * PAULI_Y - math.cos(theta) * PAULI_Z)


def apply_unitary(rho: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    return unitary @ rho @ unitary.conj().T


def basis_state(outcome: int) -> np.ndarray:
    """Projector |e><e| for a logical-basis measurement outcome e in {0, 1}."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    rho = np.zeros((2, 2), dtype=np.complex128)
    rho[outcome, outcome] = 1.0
    return rho


def measure_energy_basis(state: np.ndarray) -> tuple[float, float]:
    """Born-rule probabilities (P(|0>), P(|1>)) of a logical-basis readout."""
    rho = check_density_matrix(state)
    p0 = float(rho[0, 0].real)
    p1 = float(rho[1, 1].real)
    return p0, p1


def tpm_step_distribution(thermal: ThermalSpec, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """Work-outcome table for one two-point-measurement step, by full simulation.

    Simulates the whole step on the density matrix: thermalize to the Gibbs
    state, project in the logical basis, re-prepare the measured basis state,
    rotate by ``angle``, and read out again.  Work is the difference of the
    two readouts in energy quanta, so the support is {-1, 0, +1}.

    Returns ``(works, probs)`` with works ascending.  This is the oracle the
    closed-form table in the protocol engine is checked against.
    """
    probs = {-1: 0.0, 0: 0.0, +1: 0.0}
    first = measure_energy_basis(gibbs_state(thermal))
    u = rotation(angle)
    for e_first, p_first in enumerate(first):
        rotated = apply_unitary(basis_state(e_first), u)
        second = measure_energy_basis(rotated)
        for e_second, p_second in enumerate(second):
            probs[e_second - e_first] += p_first * p_second
    works = np.array([-1.0, 0.0, 1.0])
    return works, np.array([probs[-1], probs[0], probs[+1]])
