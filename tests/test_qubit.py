"""Thermal-state checks and exact-algebra checks of the density-matrix oracle."""

import math

import numpy as np
import pytest

from qfdr.qubit import BETA_CAP, ThermalSpec, flip_probability, population_to_beta

from oracle import (
    ATOL,
    IDENTITY,
    PAULI_Y,
    PAULI_Z,
    StateIntegrityError,
    apply_unitary,
    basis_state,
    check_density_matrix,
    effective_hamiltonian,
    gibbs_state,
    measure_energy_basis,
    rotation,
    tpm_step_distribution,
)


class TestGibbsState:
    def test_experiment_population(self):
        """beta = 3.413 prepares the 0.032 excited-state occupation."""
        thermal = ThermalSpec.from_beta(3.413)
        rho = gibbs_state(thermal)
        assert round(float(rho[1, 1].real), 3) == 0.032
        assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0

    def test_infinite_temperature_is_maximally_mixed(self):
        rho = gibbs_state(ThermalSpec.from_beta(0.0))
        np.testing.assert_allclose(rho, IDENTITY / 2.0, atol=ATOL)

    def test_zero_temperature_cap(self):
        thermal = ThermalSpec.from_beta(math.inf)
        assert thermal.beta == BETA_CAP
        assert thermal.population < 1e-300
        np.testing.assert_allclose(gibbs_state(thermal), basis_state(0), atol=ATOL)

    def test_population_matches_spec_field(self):
        for beta in (0.1, 1.0, 3.413, 10.0):
            thermal = ThermalSpec.from_beta(beta)
            rho = gibbs_state(thermal)
            assert abs(rho[1, 1].real - thermal.population) < ATOL

    def test_states_pass_invariants(self):
        for beta in (0.0, 0.5, 3.413, 100.0):
            check_density_matrix(gibbs_state(ThermalSpec.from_beta(beta)))

    def test_non_finite_beta_rejected(self):
        with pytest.raises(ValueError):
            ThermalSpec(math.nan).population
        with pytest.raises(ValueError):
            ThermalSpec.from_beta(math.nan)


class TestPopulationToBeta:
    def test_experiment_value(self):
        # 2 artanh(1 - 2 * 0.032) lands within the measured uncertainty of 3.413
        beta = population_to_beta(0.032)
        np.testing.assert_allclose(beta, 3.4094961844768497, rtol=1e-12)
        assert abs(beta - 3.413) < 0.025

    def test_quarter_population(self):
        np.testing.assert_allclose(population_to_beta(0.25), 2.0 * math.atanh(0.5), rtol=1e-14)
        np.testing.assert_allclose(population_to_beta(0.25), math.log(3.0), rtol=1e-14)

    def test_near_half_linearizes(self):
        eps = 1e-9
        np.testing.assert_allclose(population_to_beta(0.5 - eps), 4.0 * eps, rtol=1e-6)

    @pytest.mark.parametrize("population, beta", [(0.0, BETA_CAP), (-0.1, BETA_CAP),
                                                  (0.5, 0.0), (0.7, 0.0)])
    def test_out_of_domain(self, population, beta):
        """Outside (0, 1/2) the inverse is clamped: no excited readout reads as
        the capped zero-temperature limit, half or more as infinite temperature."""
        assert population_to_beta(population) == beta

    def test_round_trip_with_gibbs_state(self):
        for p in (1e-6, 0.032, 0.2, 0.4999):
            thermal = ThermalSpec.from_beta(population_to_beta(p))
            assert abs(float(gibbs_state(thermal)[1, 1].real) - p) < 1e-10


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(rotation(0.0), IDENTITY, atol=ATOL)

    def test_pi_pulse_flips_ground_state(self):
        flipped = apply_unitary(basis_state(0), rotation(math.pi))
        np.testing.assert_allclose(flipped, basis_state(1), atol=ATOL)

    def test_quarter_pulse_population(self):
        rotated = apply_unitary(basis_state(0), rotation(math.pi / 4.0))
        _, p1 = measure_energy_basis(rotated)
        np.testing.assert_allclose(p1, math.sin(math.pi / 8.0) ** 2, atol=ATOL)

    def test_unitarity_over_random_angles(self):
        rng = np.random.default_rng(20230413)
        for theta in rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=1000):
            u = rotation(theta)
            np.testing.assert_allclose(u @ u.conj().T, IDENTITY, atol=ATOL)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(50, 2)):
            np.testing.assert_allclose(rotation(a) @ rotation(b), rotation(a + b), atol=ATOL)

    def test_non_finite_angle_rejected(self):
        with pytest.raises(ValueError):
            rotation(math.inf)


class TestEffectiveHamiltonian:
    def test_initial_hamiltonian(self):
        np.testing.assert_allclose(effective_hamiltonian(0.0), -PAULI_Z / 2.0, atol=ATOL)

    def test_final_hamiltonian(self):
        np.testing.assert_allclose(effective_hamiltonian(math.pi / 2.0), PAULI_Y / 2.0, atol=ATOL)

    def test_spectrum_is_angle_independent(self):
        """Basis rotation only: eigenvalues stay (-1/2, +1/2), so dF = 0."""
        for theta in np.linspace(-2.0 * math.pi, 2.0 * math.pi, 101):
            h = effective_hamiltonian(theta)
            np.testing.assert_allclose(h, h.conj().T, atol=ATOL)
            np.testing.assert_allclose(np.linalg.eigvalsh(h), [-0.5, 0.5], atol=ATOL)

    def test_rotated_ground_state_is_eigenstate(self):
        theta = 0.7371
        rho = apply_unitary(basis_state(0), rotation(theta))
        h = effective_hamiltonian(theta)
        # the rotated state is the lower eigenstate of the rotated Hamiltonian
        np.testing.assert_allclose(h @ rho, -0.5 * rho, atol=ATOL)


class TestMeasurement:
    def test_maximally_mixed(self):
        assert measure_energy_basis(IDENTITY / 2.0) == (0.5, 0.5)

    def test_gibbs_readout(self):
        p0, p1 = measure_energy_basis(gibbs_state(ThermalSpec.from_beta(3.413)))
        assert round(p0, 3) == 0.968
        assert round(p1, 3) == 0.032
        assert abs(p0 + p1 - 1.0) < ATOL

    def test_rotated_ground_state_five_steps(self):
        rotated = apply_unitary(basis_state(0), rotation(math.pi / 10.0))
        _, p1 = measure_energy_basis(rotated)
        np.testing.assert_allclose(p1, math.sin(math.pi / 20.0) ** 2, atol=ATOL)
        np.testing.assert_allclose(p1, 0.024472, atol=5e-7)

    def test_invariant_violations_raise(self):
        with pytest.raises(StateIntegrityError):
            measure_energy_basis(np.array([[0.7, 0.0], [0.0, 0.7]]))
        with pytest.raises(StateIntegrityError):
            measure_energy_basis(np.array([[1.2, 0.0], [0.0, -0.2]]))
        with pytest.raises(StateIntegrityError):
            measure_energy_basis(np.array([[0.5, 0.3], [0.1, 0.5]]))
        with pytest.raises(StateIntegrityError):
            measure_energy_basis(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_flip_probability_oracle_identity(self):
        """Born rule reproduces the Rabi law at the step angle pi/(2N), which
        is sin^2(pi/(4N)) bit for bit, for every step count up to 64."""
        for n in range(1, 65):
            theta = math.pi / (2.0 * n)
            rotated = apply_unitary(basis_state(0), rotation(theta))
            _, p1 = measure_energy_basis(rotated)
            assert abs(p1 - flip_probability(theta)) < ATOL
            assert flip_probability(theta) == math.sin(math.pi / (4.0 * n)) ** 2

    def test_unitary_conjugation_preserves_state_health(self):
        rng = np.random.default_rng(99)
        rho = gibbs_state(ThermalSpec.from_beta(1.3))
        for theta in rng.uniform(-math.pi, math.pi, size=20):
            rho = apply_unitary(rho, rotation(theta))
            check_density_matrix(rho)


class TestTpmStepOracle:
    def test_probabilities_normalize(self):
        works, probs = tpm_step_distribution(ThermalSpec.from_beta(2.2), 0.3)
        assert abs(probs.sum() - 1.0) < ATOL
        np.testing.assert_array_equal(works, [-1.0, 0.0, 1.0])

    def test_zero_angle_never_flips(self):
        _, probs = tpm_step_distribution(ThermalSpec.from_beta(1.0), 0.0)
        np.testing.assert_allclose(probs, [0.0, 1.0, 0.0], atol=ATOL)
