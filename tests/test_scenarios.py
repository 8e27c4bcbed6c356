import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from helpers import expectation, integrate_invariant, integrate_state
from weakinv import linalg, scenarios
from weakinv.dynamics import TimeGrid, conservation_series
from weakinv.errors import ConfigError
from weakinv.model import constant, sinusoidal


class TestLadderOperator:
    def test_matrix_elements(self):
        a = scenarios.lowering_operator(4)
        for n in range(1, 4):
            ket = np.zeros(4)
            ket[n] = 1.0
            out = a @ ket
            assert out[n - 1] == pytest.approx(math.sqrt(n))
        assert_allclose(a @ np.array([1.0, 0, 0, 0]), 0.0)

    def test_number_operator(self):
        a = scenarios.lowering_operator(5)
        assert_allclose(linalg.dagger(a) @ a, np.diag([0.0, 1.0, 2.0, 3.0, 4.0]))


class TestAmplitudeDamping:
    def test_population_decay(self):
        spec = scenarios.amplitude_damping_qubit(1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 1000)
        traj, _ = integrate_state(spec.model, spec.default_rho0, grid)
        assert traj.samples[-1][1, 1].real == pytest.approx(math.exp(-1.0), abs=1e-8)

    def test_gamma_zero_is_unitary(self):
        spec = scenarios.amplitude_damping_qubit(1.0, 0.0)
        grid = TimeGrid(0.0, 2.0, 800)
        inv = integrate_invariant(spec.model, spec.default_invariant_seed, "start", grid)
        from weakinv.invariant import spectrum_series

        assert float(np.max(spectrum_series(inv).total_variation)) <= 1e-8

    def test_pure_dissipation_keeps_diagonal(self):
        spec = scenarios.amplitude_damping_qubit(0.0, 1.0)
        grid = TimeGrid(0.0, 2.0, 800)
        traj, _ = integrate_state(spec.model, spec.default_rho0, grid)
        for s in traj.samples:
            assert abs(s[0, 1]) <= 1e-12

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            scenarios.amplitude_damping_qubit(1.0, -0.1)


class TestDephasing:
    def test_coherence_decay(self):
        omega, gamma = 1.0, 0.25
        spec = scenarios.dephasing_qubit(omega, gamma)
        grid = TimeGrid(0.0, 1.0, 1000)
        traj, _ = integrate_state(spec.model, spec.default_rho0, grid)
        for t, s in zip(grid.nodes(), traj.samples):
            exact = helpers.dephasing_state(t, omega, gamma, spec.default_rho0)
            assert linalg.maxabs(s - exact) <= 1e-8
        assert abs(traj.samples[-1][0, 1]) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-8)

    def test_diagonal_state_is_stationary(self):
        spec = scenarios.dephasing_qubit(1.0, 0.25)
        rho0 = np.diag([0.3, 0.7]).astype(complex)
        grid = TimeGrid(0.0, 1.0, 400)
        traj, _ = integrate_state(spec.model, rho0, grid)
        for s in traj.samples:
            assert linalg.maxabs(s - rho0) <= 1e-12

    def test_gamma_zero_keeps_coherence_magnitude(self):
        spec = scenarios.dephasing_qubit(1.0, 0.0)
        grid = TimeGrid(0.0, 2.0, 800)
        traj, _ = integrate_state(spec.model, spec.default_rho0, grid)
        for s in traj.samples:
            assert abs(abs(s[0, 1]) - 0.5) <= 1e-10


class TestDampedOscillator:
    def test_unitary_limit_conserves_energy(self):
        spec = scenarios.damped_oscillator(8, 1.0, 0.0)
        grid = TimeGrid(0.0, 2.0, 800)
        traj, _ = integrate_state(spec.model, spec.default_rho0, grid)
        h0 = spec.model.snapshot(0.0).h
        energies = [expectation(h0, s).real for s in traj.samples]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-8

    def test_number_decay_rate(self):
        # d<N>/dt = -2 gamma <N> independent of omega(t); central differences
        spec = scenarios.damped_oscillator(12)
        grid = TimeGrid(0.0, 2.0, 1000)
        traj, mon = integrate_state(spec.model, spec.default_rho0, grid,
                                    leakage_index=11)
        assert mon.max_leakage <= 1e-8
        a = scenarios.lowering_operator(12)
        n_op = linalg.dagger(a) @ a
        series = [expectation(n_op, s).real for s in traj.samples]
        dt = grid.dt
        gamma = 0.1
        for k in range(1, grid.n_steps):
            deriv = (series[k + 1] - series[k - 1]) / (2 * dt)
            assert abs(deriv + 2 * gamma * series[k]) <= 1e-6

    def test_number_closed_form(self):
        spec = scenarios.damped_oscillator(12)
        rho0 = np.zeros((12, 12), dtype=complex)
        rho0[1, 1] = 1.0
        grid = TimeGrid(0.0, 3.0, 1500)
        traj, _ = integrate_state(spec.model, rho0, grid)
        a = scenarios.lowering_operator(12)
        n_op = linalg.dagger(a) @ a
        for t, s in list(zip(grid.nodes(), traj.samples))[::250]:
            assert expectation(n_op, s).real == pytest.approx(
                math.exp(-0.2 * t), abs=1e-7
            )

    @pytest.mark.parametrize("omega", [None, 1.0], ids=["driven-omega", "constant-omega"])
    def test_default_invariant_spectrum_closed_form(self, omega):
        # with omega(0) = 1 and constant gamma the default seed evolves to
        # I(t) = N e^{2 gamma t} + 1/2 exactly, whatever omega(t) is, so
        # lambda_{n+1}(t) = n e^{2 gamma t} + 1/2. On the default grid the
        # lowest five levels read <= 6.1e-13 off; the bound is 2.5x that. The
        # top levels carry amplified roundoff (~8e-3 at lambda_20) and are
        # not checked.
        spec = scenarios.damped_oscillator(omega_schedule=omega)
        grid = spec.default_grid
        inv = integrate_invariant(spec.model, spec.default_invariant_seed, "start", grid)
        low = linalg.hermitian_eigenvalues(inv.samples)[:, :5]
        exact = np.arange(5) * np.exp(0.2 * grid.nodes())[:, None] + 0.5
        assert np.max(np.abs(low - exact)) <= 1.5e-12

    def test_truncation_stress_flagged(self):
        # population parked on the top retained level: leakage monitor trips
        spec = scenarios.damped_oscillator(6)
        rho0 = np.zeros((6, 6), dtype=complex)
        rho0[5, 5] = 1.0
        grid = TimeGrid(0.0, 0.5, 100)
        _, mon = integrate_state(spec.model, rho0, grid, leakage_index=5)
        assert mon.max_leakage > scenarios.LEAKAGE_THRESHOLD

    def test_conservation_with_growing_dual(self):
        spec = scenarios.damped_oscillator(10)
        grid = TimeGrid(0.0, 2.0, 1000)
        state, _ = integrate_state(spec.model, spec.default_rho0, grid)
        inv = integrate_invariant(spec.model, spec.default_invariant_seed, "start", grid)
        series = conservation_series(inv, state)
        assert np.max(np.abs(series - series[0])) <= 1e-6

    def test_coherent_like_default_state(self):
        spec = scenarios.damped_oscillator(10)
        rho0 = spec.default_rho0
        assert linalg.trace(rho0).real == pytest.approx(1.0)
        assert linalg.hermitian_eigenvalues(rho0)[0] >= -1e-14
        # amplitudes proportional to (1, 1, 1/sqrt 2, 1/sqrt 6), zero above
        diag = np.diag(rho0).real
        norm2 = 1.0 + 1.0 + 0.5 + 1.0 / 6.0
        assert_allclose(diag[:4], np.array([1.0, 1.0, 0.5, 1.0 / 6.0]) / norm2, atol=1e-14)
        assert_allclose(diag[4:], 0.0)

    def test_validation_errors(self):
        for n_trunc in (1, 2, 3):
            with pytest.raises(ValueError, match="n_trunc"):
                scenarios.damped_oscillator(n_trunc)
        with pytest.raises(ValueError, match="negative"):
            scenarios.damped_oscillator(8, 1.0, sinusoidal(0.0, 0.2, 1.0))


class TestRegistry:
    def test_all_scenarios_validate_on_default_grid(self):
        for name, builder in scenarios.SCENARIOS.items():
            spec = builder()
            grid = spec.default_grid
            # every node and cell midpoint is sampled and checked without raising
            lattice = spec.model.on_grid(grid)
            assert lattice.constant or lattice.scale.shape == (2 * grid.n_steps + 1, 1, 1)
            assert linalg.trace(spec.default_rho0).real == pytest.approx(1.0)
            assert linalg.hermiticity_defect(spec.default_invariant_seed) <= 1e-14

    def test_build_by_name_with_args(self):
        spec = scenarios.build_scenario("amp-damp", omega=2.0, gamma=0.0)
        assert_allclose(spec.model.snapshot(0.0).h, np.diag([0.0, 2.0]))

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenarios.build_scenario("squeezed-bath")

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            scenarios.build_scenario("amp-damp", frequency=2.0)

    @pytest.mark.parametrize("name, kwargs, message", [
        ("damped-ho", {"n_trunc": 4.0}, "scenario_args.n_trunc must be an integer, got 4.0"),
        ("amp-damp", {"frequency": 2.0}, "scenario_args.frequency is not a config key"),
        ("amp-damp", {"name": "dephase"}, "scenario_args.name is not a config key"),
    ], ids=["n_trunc-float", "unknown-key", "name-key"])
    def test_args_read_by_their_table(self, name, kwargs, message):
        with pytest.raises(ConfigError) as err:
            scenarios.build_scenario(name, **kwargs)
        assert str(err.value).startswith(message)
