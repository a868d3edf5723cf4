"""Brute-force density-matrix reference for the closed-form step tables.

Simulates one two-point-measurement step of the driven qubit on its 2x2
density matrix (Gibbs preparation, projective readout, rotation, second
readout) so that tests can check the protocol engine's exact work tables
against it.  Energies are in units of the qubit gap, as in ``qfdr.qubit``.
"""

import math

import numpy as np

from qfdr.qubit import ThermalSpec

# Tolerance for algebraic identities on 2x2 matrices; double precision is
# ample at this size.
ATOL = 1e-12

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
