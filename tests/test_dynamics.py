import errno
import math
import os
import pickle
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from helpers import (PLUS_STATE, SMINUS, SX, SZ, integrate_invariant, integrate_state,
                     random_constant_model, random_density, random_hermitian)
from weakinv import dynamics, linalg, scenarios
from weakinv.dynamics import (TimeGrid, Trajectory, beside, conservation_series, invariant_flow,
                              state_flow)
from weakinv.errors import (BlowupError, ConfigError, IntegrationError, ModelValidationError,
                            NotHermitianError)
from weakinv.model import LindbladModel, scaled, sinusoidal, tabulated
from weakinv.superop import Generator

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def amp_damp(omega=1.0, gamma=0.5):
    return LindbladModel(2, omega * EXCITED, [(SMINUS, gamma)])


def driven_amp_damp(gamma=0.5):
    """H(t) = (1 + 0.5 sin 2t) diag(0, 1): every node and midpoint differs."""
    return LindbladModel(2, scaled(sinusoidal(1.0, 0.5, 2.0), EXCITED), [(SMINUS, gamma)])


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(0.0, 1.0, 4)
        assert_allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.dt == 0.25
        assert g.midpoints()[0] == 0.125

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(1.0, 1.0, 5)

    @pytest.mark.parametrize("t_start, t_end, n_steps, dt", [
        (-1e308, 1e308, 50, "inf"),  # t_end - t_start overflows
        (0.0, 5e-324, 2, "0.0"),  # dt underflows
    ], ids=["infinite", "zero"])
    def test_step_must_be_finite_and_positive(self, t_start, t_end, n_steps, dt):
        with pytest.raises(ConfigError) as err:
            TimeGrid(t_start, t_end, n_steps)
        assert err.value.field == "grid"
        assert str(err.value) == (f"grid step (t_end - t_start) / n_steps = {dt} "
                                  "is not finite and positive")


class TestIntegrateState:
    def test_unitary_precession(self):
        """H = sigma_z, rho0 = |+><+|: exact solution by phase conjugation.

        The coherence picks up exp(-2it), so |-><-| is reached at t = pi/2
        and the state returns to |+><+| at t = pi.
        """
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, math.pi, 1000)
        traj, _ = integrate_state(m, PLUS_STATE, grid)
        for t, s in zip(grid.nodes(), traj.samples):
            exact = helpers.unitary_conjugation(t, [1.0, -1.0], PLUS_STATE)
            assert linalg.maxabs(s - exact) <= 1e-9
        minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        assert linalg.maxabs(traj.samples[500] - minus) <= 1e-9
        assert linalg.maxabs(traj.samples[-1] - PLUS_STATE) <= 1e-9

    def test_amplitude_damping_populations(self):
        omega, gamma = 1.0, 0.5
        grid = TimeGrid(0.0, 5.0, 5000)
        traj, _ = integrate_state(amp_damp(omega, gamma), EXCITED, grid)
        for t, s in zip(grid.nodes(), traj.samples):
            assert abs(s[1, 1].real - math.exp(-2 * gamma * t)) <= 1e-8
        assert traj.samples[-1][1, 1].real == pytest.approx(math.exp(-5.0), abs=1e-8)

    def test_amplitude_damping_coherences(self):
        omega, gamma = 1.0, 0.5
        grid = TimeGrid(0.0, 2.0, 2000)
        traj, _ = integrate_state(amp_damp(omega, gamma), PLUS_STATE, grid)
        for t, s in zip(grid.nodes(), traj.samples):
            exact = helpers.amp_damp_state(t, omega, gamma, PLUS_STATE)
            assert linalg.maxabs(s - exact) <= 1e-8

    def test_stationary_state(self):
        grid = TimeGrid(0.0, 2.0, 500)
        ground = np.diag([1.0, 0.0]).astype(complex)
        traj, _ = integrate_state(amp_damp(), ground, grid)
        for s in traj.samples:
            assert linalg.maxabs(s - ground) <= 1e-12

    def test_monitors(self):
        grid = TimeGrid(0.0, 5.0, 5000)
        _, mon = integrate_state(amp_damp(), EXCITED, grid)
        assert mon.max_trace_drift <= 1e-10
        assert mon.min_eigenvalue >= -1e-8
        assert mon.max_hermiticity_defect <= 1e-12
        assert mon.max_leakage == 0.0

    def test_leakage_monitor(self):
        grid = TimeGrid(0.0, 1.0, 200)
        _, mon = integrate_state(amp_damp(), EXCITED, grid, leakage_index=1)
        assert mon.max_leakage == pytest.approx(1.0)

    def test_rejects_bad_initial_states(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(NotHermitianError):
            integrate_state(amp_damp(), SMINUS, grid)
        with pytest.raises(ValueError, match="trace"):
            integrate_state(amp_damp(), 2.0 * EXCITED, grid)
        with pytest.raises(ValueError, match="eigenvalue"):
            integrate_state(amp_damp(), np.diag([1.5, -0.5]).astype(complex), grid)

    def test_rejects_invalid_model(self):
        m = LindbladModel(2, SZ, [(SMINUS, sinusoidal(0.1, 0.2, 1.0))])
        with pytest.raises(ModelValidationError, match="negative-rate"):
            integrate_state(m, EXCITED, TimeGrid(0.0, 6.0, 10))

    def test_non_finite_aborts_with_step(self):
        # explicit method far outside its stability region overflows
        m = amp_damp(gamma=50.0)
        with pytest.raises(IntegrationError) as err:
            integrate_state(m, EXCITED, TimeGrid(0.0, 100.0, 50))
        assert err.value.step > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            integrate_state(amp_damp(), EXCITED, TimeGrid(0.0, 1.0, 10), "euler")


class TestConvergence:
    def _error(self, n, method):
        omega, gamma = 1.0, 0.5
        grid = TimeGrid(0.0, 1.0, n)
        traj, _ = integrate_state(amp_damp(omega, gamma), PLUS_STATE, grid, method)
        return max(
            linalg.maxabs(s - helpers.amp_damp_state(t, omega, gamma, PLUS_STATE))
            for t, s in zip(grid.nodes(), traj.samples)
        )

    def test_rk4_fourth_order(self):
        assert self._error(100, "rk4") / self._error(200, "rk4") >= 12.0

    def test_midpoint_second_order(self):
        assert self._error(100, "midpoint") / self._error(200, "midpoint") >= 3.5

    @staticmethod
    def _driven_error(n, method):
        # the model is read at the nodes and midpoints of the grid lattice
        gamma = 0.5
        grid = TimeGrid(0.0, 2.0, n)
        traj, _ = integrate_state(driven_amp_damp(gamma), PLUS_STATE, grid, method)
        return max(
            linalg.maxabs(s - helpers.driven_amp_damp_state(t, gamma, PLUS_STATE))
            for t, s in zip(grid.nodes(), traj.samples)
        )

    def test_driven_rk4_fourth_order(self):
        assert self._driven_error(100, "rk4") <= 1e-7
        assert self._driven_error(100, "rk4") / self._driven_error(200, "rk4") >= 12.0

    def test_driven_midpoint_second_order(self):
        assert self._driven_error(100, "midpoint") / self._driven_error(200, "midpoint") >= 3.5


class TestIntegrateInvariant:
    def test_unitary_flow_is_isospectral(self):
        """Constant H = sigma_z, seed sigma_x: the flow conjugates by
        exp(-iHt), so I(t) = [[0, e^{-2it}], [e^{2it}, 0]] with eigenvalues
        pinned at -1, 1."""
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 10.0, 4000)
        traj = integrate_invariant(m, SX, "start", grid)
        for t, s in zip(grid.nodes()[::100], traj.samples[::100]):
            exact = helpers.unitary_conjugation(t, [1.0, -1.0], SX)
            assert linalg.maxabs(s - exact) <= 1e-9
        for s in traj.samples:
            assert_allclose(linalg.hermitian_eigenvalues(s), [-1.0, 1.0], atol=1e-9)

    def test_amplitude_damping_closed_form(self):
        gamma = 0.5
        grid = TimeGrid(0.0, 1.0, 1000)
        traj = integrate_invariant(amp_damp(1.0, gamma), SZ, "start", grid)
        for t, s in zip(grid.nodes(), traj.samples):
            assert linalg.maxabs(s - helpers.amp_damp_invariant(t, gamma)) <= 1e-8
        low = linalg.hermitian_eigenvalues(traj.samples[-1])[0]
        assert low == pytest.approx(1.0 - 2.0 * math.e, abs=1e-8)

    def test_identity_seed_is_fixed(self):
        grid = TimeGrid(0.0, 2.0, 500)
        for seed_time in ("start", "end"):
            traj = integrate_invariant(amp_damp(), linalg.identity(2), seed_time, grid)
            for s in traj.samples:
                assert linalg.maxabs(s - linalg.identity(2)) <= 1e-12

    def test_backward_forward_round_trip(self):
        grid = TimeGrid(0.0, 1.0, 400)
        fwd = integrate_invariant(amp_damp(), SZ, "start", grid)
        back = integrate_invariant(amp_damp(), fwd.samples[-1], "end", grid)
        assert linalg.maxabs(back.samples[0] - SZ) <= 1e-9

    @pytest.mark.parametrize("method, bound", [("rk4", 1e-11), ("midpoint", 2e-5)])
    def test_driven_round_trip_and_conservation(self, method, bound):
        # backward steps read the lattice from the far end; a misread midpoint
        # breaks both the round trip and the conserved expectation
        m = driven_amp_damp()
        grid = TimeGrid(0.0, 1.0, 400)
        fwd = integrate_invariant(m, SX, "start", grid, method)
        back = integrate_invariant(m, fwd.samples[-1], "end", grid, method)
        assert linalg.maxabs(back.samples[0] - SX) <= bound
        state, _ = integrate_state(m, PLUS_STATE, grid, method)
        series = conservation_series(back, state)
        assert np.max(np.abs(series - series[0])) <= bound

    def test_rejects_non_hermitian_seed(self):
        with pytest.raises(NotHermitianError):
            integrate_invariant(amp_damp(), SMINUS, "start", TimeGrid(0.0, 1.0, 10))

    def test_blowup_reports_step_and_magnitude(self):
        m = amp_damp(gamma=40.0)
        with pytest.raises(BlowupError) as err:
            integrate_invariant(m, SZ, "start", TimeGrid(0.0, 1.0, 100))
        assert err.value.step > 0
        assert err.value.magnitude > dynamics.BLOWUP_CAP

    def test_bad_seed_time(self):
        with pytest.raises(ValueError, match="seed_time"):
            integrate_invariant(amp_damp(), SZ, "middle", TimeGrid(0.0, 1.0, 10))


class TestFlowInputs:
    """A flow's initial operator is refused, naming it, when its Hermitian
    part is not finite; no arithmetic on it may warn first."""

    OVERFLOWS = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)  # (a + a†)/2 overflows

    @pytest.mark.parametrize("make, name", [
        (lambda a, grid: state_flow(amp_damp(), a, grid), "rho0"),
        (lambda a, grid: invariant_flow(amp_damp(), a, "start", grid), "invariant seed"),
        (lambda a, grid: invariant_flow(amp_damp(), a, "end", grid, what="lambda_final"),
         "lambda_final"),
    ], ids=["rho0", "invariant-seed", "lambda-final"])
    def test_non_finite_hermitian_part(self, make, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as err:
                make(self.OVERFLOWS, TimeGrid(0.0, 1.0, 10))
        assert str(err.value) == f"{name} has a Hermitian part that is not finite"

    def test_a_nan_eigenvalue_is_not_positive(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
        with pytest.raises(ConfigError, match="rho0 has negative eigenvalue nan"):
            state_flow(amp_damp(), EXCITED, TimeGrid(0.0, 1.0, 10))


def direct_twin(m):
    """The same model with H wrapped as 1.0 * H(t) and each rate as rate + 0
    sin t: bitwise the same snapshots, but a sampling that varies on every
    entry a flow can reach, so the integrators take the direct stages."""
    h = m.hamiltonian.value
    return LindbladModel(m.dim, scaled(sinusoidal(1.0, 0.0, 1.0), h),
                         [(ch.op, sinusoidal(ch.alpha.value, 0.0, 1.0)) for ch in m.channels])


def counting_steps(monkeypatch):
    """Count the calls of the RK4/midpoint step: one per step on the direct
    path, one per integration (on the unit operators) on the step-matrix path."""
    calls = []
    direct = dynamics._step

    def counted(*args):
        calls.append(1)
        return direct(*args)

    monkeypatch.setattr(dynamics, "_step", counted)
    return calls


class TestStepMatrix:
    """A constant model of dimension at most STEP_MATRIX_MAX_DIM steps by one
    precomputed matrix P, a chunk of K steps per product with P, ..., P^K;
    it must agree with the direct stages and keep every per-step check."""

    # K = 512, 227, 128, 52 and 8 at d = 2, 3, 4, 5 and 8 (4·BLOCK_ENTRIES // d⁴ or
    # a block of 512, 227, 128, 81 and 32 steps, and at most the grid): 300 steps
    # are fewer than K at d=2 and leave a partial last chunk from d=3 on; 1100
    # leave one at every d
    @pytest.mark.parametrize("dim, n_steps", [(1, 300), (2, 300), (3, 300), (5, 300), (4, 300),
                                              (8, 300), (2, 1100), (4, 1100), (8, 1100)],
                             ids=["1", "2", "3", "5", "4", "8", "2-1100", "4-1100", "8-1100"])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_parity_with_direct_path(self, rng, monkeypatch, method, dim, n_steps):
        m = random_constant_model(rng, dim)
        twin = direct_twin(m)
        grid = TimeGrid(0.0, 1.5 * n_steps / 300, n_steps)
        rho0 = random_density(rng, dim)
        seed = random_hermitian(rng, dim) + 2.0 * linalg.identity(dim)
        steps = counting_steps(monkeypatch)

        fast, fast_mon = integrate_state(m, rho0, grid, method)
        fast_inv = [integrate_invariant(m, seed, at, grid, method) for at in ("start", "end")]
        assert len(steps) == 3  # one step of the unit operators per integration
        direct, direct_mon = integrate_state(twin, rho0, grid, method)
        direct_inv = [integrate_invariant(twin, seed, at, grid, method) for at in ("start", "end")]
        assert len(steps) == 3 + 3 * grid.n_steps

        for a, b in [(fast, direct)] + list(zip(fast_inv, direct_inv)):
            assert linalg.maxabs(a.samples - b.samples) <= 1e-12 * linalg.maxabs(b.samples)
            # every node re-symmetrized, exactly
            assert np.array_equal(a.samples, linalg.dagger(a.samples))
        assert fast_mon.max_trace_drift <= 1e-12
        assert fast_mon.min_eigenvalue == pytest.approx(direct_mon.min_eigenvalue, abs=1e-12)
        # the defect is taken from the raw step, before re-symmetrization
        assert fast_mon.max_hermiticity_defect <= 1e-14
        if dim > 1:
            assert fast_mon.max_hermiticity_defect > 0.0

    @pytest.mark.parametrize("offset, direct_steps", [(0, 1), (1, 4)])
    def test_dimension_cap(self, rng, monkeypatch, offset, direct_steps):
        dim = dynamics.STEP_MATRIX_MAX_DIM + offset
        m = random_constant_model(rng, dim)
        steps = counting_steps(monkeypatch)
        integrate_state(m, random_density(rng, dim), TimeGrid(0.0, 0.1, 4))
        assert len(steps) == direct_steps

    def test_blowup_at_the_same_node(self):
        errors = []
        for m in (amp_damp(gamma=40.0), direct_twin(amp_damp(gamma=40.0))):
            with warnings.catch_warnings(), pytest.raises(BlowupError) as err:
                warnings.simplefilter("error")
                integrate_invariant(m, SZ, "start", TimeGrid(0.0, 1.0, 100))
            errors.append(err.value)
        fast, direct = errors
        assert fast.step == direct.step > 0
        assert fast.magnitude == pytest.approx(direct.magnitude, rel=1e-12)

    def test_non_finite_at_the_same_step(self):
        # far outside the stability region: both paths overflow at one step, and
        # so do the step matrix's higher powers, silently
        steps = []
        for m in (amp_damp(gamma=50.0), direct_twin(amp_damp(gamma=50.0))):
            with warnings.catch_warnings(), pytest.raises(IntegrationError) as err:
                warnings.simplefilter("error")
                integrate_state(m, EXCITED, TimeGrid(0.0, 100.0, 50))
            steps.append(err.value.step)
        assert steps[0] == steps[1] > 0

    def test_overflowed_powers_are_left_out(self):
        # dt = 6 puts dephasing's coherences far outside RK4's stability region, so
        # P^207 and higher overflow; a diagonal state never reaches the coherences
        # and stays put, stepped one by one or a chunk at a time
        m = LindbladModel(2, 0.5 * SZ, [(SZ, 0.25)])
        rho0 = np.diag([0.3, 0.7]).astype(complex)
        grid = TimeGrid(0.0, 3000.0, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast, _ = integrate_state(m, rho0, grid)
        direct, _ = integrate_state(direct_twin(m), rho0, grid)
        assert np.array_equal(fast.samples, direct.samples)
        assert (fast.samples == rho0).all()

    @pytest.mark.parametrize("dim, n_steps, products", [
        (2, 300, 1),  # K = 300, the grid
        (2, 1300, 3),  # K = 512: chunks of 512, 512 and 276 steps
        (4, 300, 3),  # K = 128: 128, 128 and 44
        (8, 100, 13),  # K = 8, in blocks of 32 steps: 4 + 4 + 4 + 1 chunks
        (12, 20, 20),  # K = 1: one product per step
    ])
    def test_products_per_flow(self, rng, monkeypatch, dim, n_steps, products):
        calls = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            if np.ndim(a) == 1:  # a node times the powers, not a power being built
                calls.append(1)
            return matmul(a, b, **kwargs)

        _, run = state_flow(random_constant_model(rng, dim), random_density(rng, dim),
                            TimeGrid(0.0, 1.0, n_steps))
        monkeypatch.setattr(np, "matmul", counted)
        run()
        assert len(calls) == products


def ho_and_twin(gamma=0.1):
    """``damped_oscillator(8)`` at rate ``gamma``, and its twin at rate gamma
    + 0 sin t: bitwise the same snapshots, but a rate that varies, so the
    twin's flows take the direct stages on every entry."""
    return (scenarios.damped_oscillator(8, gamma_schedule=gamma).model,
            scenarios.damped_oscillator(8, gamma_schedule=sinusoidal(gamma, 0.0, 1.0)).model)


class TestStepMatrixOnSupport:
    """On the driven oscillator's diagonal the scaled H cancels, and the
    channel's gather keeps a diagonal operator diagonal: a diagonal flow is
    a constant linear flow on 8 entries, stepped by the step matrix there,
    though omega(t) varies."""

    # the forward flow amplifies roundoff (two roundings of it differ by ~2e-12
    # relative over [0, 5], by <1e-13 over [0, 2]), so the grid is [0, 2]
    GRID = TimeGrid(0.0, 2.0, 1000)
    NUMBER = np.diag(np.arange(8.0)).astype(complex)
    OFF_DIAGONAL = ~np.eye(8, dtype=bool)

    @pytest.mark.parametrize("at", ["start", "end"])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_a_diagonal_flow_matches_its_twin(self, monkeypatch, method, at):
        m, twin = ho_and_twin()
        seed = self.NUMBER + 0.5 * linalg.identity(8) if at == "start" else self.NUMBER
        steps = counting_steps(monkeypatch)
        fast = integrate_invariant(m, seed, at, self.GRID, method)
        assert len(steps) == 1  # one step of the 8 unit operators
        direct = integrate_invariant(twin, seed, at, self.GRID, method)
        assert len(steps) == 1 + self.GRID.n_steps
        assert (linalg.maxabs(fast.samples - direct.samples)
                <= 1e-12 * linalg.maxabs(direct.samples))
        assert (fast.samples[:, self.OFF_DIAGONAL] == 0).all()
        assert np.array_equal(fast.samples, linalg.dagger(fast.samples))

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_a_coherence_steps_by_stages(self, monkeypatch, method):
        seed = self.NUMBER.copy()
        seed[0, 1] = seed[1, 0] = 0.1  # on the first off-diagonal, where omega(t) acts
        steps = counting_steps(monkeypatch)
        integrate_invariant(ho_and_twin()[0], seed, "start", self.GRID, method)
        assert len(steps) == self.GRID.n_steps

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    def test_blowup_at_the_same_node(self, method):
        # at gamma = 2 a seed on the top level grows as e^(28 t), beyond the cap near t = 1
        top = np.zeros((8, 8), dtype=complex)
        top[7, 7] = 1.0
        errors = []
        for m in ho_and_twin(gamma=2.0):
            with warnings.catch_warnings(), pytest.raises(BlowupError) as err:
                warnings.simplefilter("error")
                integrate_invariant(m, top, "start", self.GRID, method)
            errors.append(err.value)
        fast, direct = errors
        assert fast.step == direct.step > 0
        assert fast.magnitude == pytest.approx(direct.magnitude, rel=1e-12)

    def test_damped_ho_supports(self):
        # a gather slot of zero weight (the lowering operator's empty row and column) is no
        # edge: rho0's lowest 4x4 block is closed under the channel, and so is a block of Lam
        spec = scenarios.build_scenario("damped-ho", omega_schedule=1.0)
        lattice = spec.model.on_grid(spec.default_grid)
        block = np.zeros((20, 20), dtype=complex)
        block[:4, :4] = 1.0
        low = (20 * np.arange(4)[:, None] + np.arange(4)).reshape(-1)
        assert np.array_equal(Generator(lattice, False).support(spec.default_rho0), low)
        for seed, size in [(spec.default_invariant_seed, 20), (block, 128),
                           (np.diag(np.arange(20.0)).astype(complex), 19)]:
            assert Generator(lattice, True).support(seed).size == size

    def test_a_constant_omega_state_stays_on_its_block(self, monkeypatch):
        spec = scenarios.build_scenario("damped-ho", omega_schedule=1.0)
        units, step = [], dynamics._step
        monkeypatch.setattr(dynamics, "_step", lambda *args: units.append(len(args[2]))
                            or step(*args))
        traj, _ = integrate_state(spec.model, spec.default_rho0, spec.default_grid)
        assert units == [16]  # one step of the 16 unit operators of the block
        off = np.ones((20, 20), dtype=bool)
        off[:4, :4] = False
        assert (traj.samples[:, off] == 0).all()


class TestStepGuard:
    """Both flows share one per-step guard: a finite magnitude beyond
    BLOWUP_CAP is a BlowupError, a non-finite one a plain IntegrationError."""

    def test_state_beyond_cap_is_a_blowup(self):
        for m in (amp_damp(gamma=50.0), direct_twin(amp_damp(gamma=50.0))):
            with pytest.raises(BlowupError) as err:
                integrate_state(m, EXCITED, TimeGrid(0.0, 100.0, 50))
            node = err.value.step
            assert node > 0
            assert str(err.value).startswith("state magnitude")
            assert str(err.value).endswith(f"at node {node}")
            assert err.value.magnitude > dynamics.BLOWUP_CAP

    @pytest.mark.parametrize("flow, bad, node", [
        ("state", np.nan, 3), ("start", np.nan, 3), ("end", np.nan, 7), ("end", np.inf, 7),
    ])
    def test_non_finite_is_not_a_blowup(self, monkeypatch, flow, bad, node):
        # the third step (from node 0 forward, from node 10 backward) is poisoned
        calls = []
        direct = dynamics._step

        def poisoned(*args):
            calls.append(1)
            out = direct(*args)
            if len(calls) == 3:
                out[0, 0] = bad
            return out

        monkeypatch.setattr(dynamics, "_step", poisoned)
        m, grid = driven_amp_damp(), TimeGrid(0.0, 1.0, 10)
        with pytest.raises(IntegrationError) as err:
            if flow == "state":
                integrate_state(m, PLUS_STATE, grid)
            else:
                integrate_invariant(m, SX, flow, grid)
        assert not isinstance(err.value, BlowupError)
        assert err.value.step == node
        kind = "state" if flow == "state" else "invariant"
        assert str(err.value) == f"non-finite {kind} at node {node}"


def dense_driven(rng, dim, rate=None):
    """A K-form model: a driven dense H and a dense jump, at a sinusoidal
    rate unless ``rate`` is given."""
    l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return LindbladModel(dim, scaled(sinusoidal(1.0, 0.5, 2.0), random_hermitian(rng, dim)),
                         [(l / linalg.maxabs(l), rate or sinusoidal(0.4, 0.2, 3.0))])


def tabulated_h(rng, dim):
    """A K-form model whose H is tabulated, so stacked per lattice entry."""
    h = [random_hermitian(rng, dim) for _ in range(2)]
    return LindbladModel(dim, tabulated([0.0, 1.0], h), [(scenarios.lowering_operator(dim), 0.3)])


def flows(m, rho0, seed, grid, method):
    """Both flows, each direction of the invariant's: (samples, defect) each."""
    state, mon = integrate_state(m, rho0, grid, method)
    out = [(state.samples, mon.max_hermiticity_defect)]
    for at in ("start", "end"):
        out.append((integrate_invariant(m, seed, at, grid, method).samples, None))
    return out


def per_step_flows(m, rho0, seed, grid, method):
    return [helpers.per_step_flow(m, rho0, grid, False, 0, method),
            (helpers.per_step_flow(m, seed, grid, True, 0, method)[0], None),
            (helpers.per_step_flow(m, seed, grid, True, grid.n_steps, method)[0], None)]


class TestBlockedLoop:
    """The flows step a block of steps at a time and guard each block once;
    they must equal a per-step RK4 (or midpoint) on ``apply_liouvillian`` /
    ``apply_adjoint`` that guards and re-symmetrizes every step: bitwise on
    a K-form lattice stepped directly, to roundoff where a step matrix or the
    Hadamard form (with its folded constants) runs. Blocks of 7 steps over 50
    leave a last block of one step."""

    LATTICES = [
        pytest.param(lambda rng: random_constant_model(rng, 3), False, id="step-matrix"),
        pytest.param(lambda rng: helpers.random_hadamard_model(rng, 18, driven=False), False,
                     id="hadamard-constant"),
        pytest.param(lambda rng: scenarios.damped_oscillator(n_trunc=6).model, False,
                     id="hadamard-affine"),
        pytest.param(lambda rng: helpers.random_hadamard_model(rng, 4), False,
                     id="hadamard-sinusoidal-rate"),
        pytest.param(lambda rng: dense_driven(rng, 4), True, id="k-form"),
        pytest.param(lambda rng: dense_driven(rng, 4, rate=0.3), True, id="k-form-affine"),
        pytest.param(lambda rng: tabulated_h(rng, 4), True, id="k-form-tabulated-h"),
    ]

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("make_model, bitwise", LATTICES)
    def test_equals_the_per_step_flow(self, rng, monkeypatch, make_model, bitwise, method):
        m = make_model(rng)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * 7 * m.dim ** 2)  # 7 steps a block
        grid = TimeGrid(0.0, 1.0, 50)
        rho0, seed = random_density(rng, m.dim), random_hermitian(rng, m.dim)
        got, want = flows(m, rho0, seed, grid, method), per_step_flows(m, rho0, seed, grid, method)
        for (a, a_defect), (b, b_defect) in zip(got, want):
            assert np.array_equal(a, linalg.dagger(a))
            if bitwise:
                assert a.tobytes() == b.tobytes() and a_defect == b_defect
            else:
                assert linalg.maxabs(a - b) <= 1e-12 * linalg.maxabs(b)
                if a_defect is not None:
                    assert a_defect <= 1e-14 * linalg.maxabs(b)

    def test_only_the_state_flow_takes_the_defect(self, rng):
        # the state monitor reports it; the invariant and Lam flows' callers would discard it
        m, grid = random_constant_model(rng, 3), TimeGrid(0.0, 1.0, 20)
        out = np.empty((21, 3, 3), dtype=complex)
        seed = random_hermitian(rng, 3)
        assert dynamics._propagate(m, seed, grid, True, 0, "rk4", "invariant", out) is None
        assert dynamics._propagate(m, random_density(rng, 3), grid, False, 0, "rk4", "state",
                                   out) >= 0.0

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("flow", ["state", "start", "end"])
    @pytest.mark.parametrize("constant", [False, True], ids=["hadamard-affine", "step-matrix"])
    def test_blowup_names_the_per_step_node(self, monkeypatch, constant, flow, position):
        # gamma = 1.75 and dt = 1 put the decaying modes outside RK4's stability
        # region: the state blows up forward at node 28, the invariant forward at
        # node 9 and backward at node 73
        h = EXCITED if constant else scaled(sinusoidal(1.0, 0.5, 2.0), EXCITED)
        m, grid = LindbladModel(2, h, [(SMINUS, 1.75)]), TimeGrid(0.0, 100.0, 100)
        first = grid.n_steps if flow == "end" else 0
        y0 = EXCITED if flow == "state" else SZ
        node, magnitude = helpers.per_step_flow(m, y0, grid, flow != "state", first)
        steps = abs(node - first)  # the blow-up is this many steps from the start
        block = {"first": steps - 1, "middle": 2 * steps - 1, "last": steps}[position]
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * block * m.dim ** 2)  # block steps
        with pytest.raises(BlowupError) as err:
            if flow == "state":
                integrate_state(m, y0, grid)
            else:
                integrate_invariant(m, y0, flow, grid)
        assert err.value.step == node
        assert err.value.magnitude == pytest.approx(magnitude, rel=1e-12)
        kind = "state" if flow == "state" else "invariant"
        assert str(err.value) == (f"{kind} magnitude {magnitude:.3e} exceeded cap 1.0e+12 "
                                  f"at node {node}")


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def raise_value_error():
    raise ValueError("state flow failed")


class TestChild:
    """``beside`` joins its child and returns what the child's call returned:
    pickled back from a forked child, or from a call here on one CPU."""

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["forked", "one-cpu"])
    def test_join_returns_the_value(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        parent = os.getpid()
        value, here = beside(lambda: (os.getpid() != parent, [1.5, "x"]), lambda: "here",
                             "test child")
        assert (value, here) == ((len(cpus) == 2, [1.5, "x"]), "here")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForkedInvariantFlow:
    """``beside`` runs the invariant flow in a forked child while the parent
    runs the state flow; the results must be the serial ones, bit for bit,
    and every child must be reaped."""

    @pytest.mark.parametrize("seed_time", ["start", "end"])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("case", ["step-matrix", "driven"])
    def test_bitwise_equal_to_serial_calls(self, monkeypatch, case, method, seed_time):
        if case == "step-matrix":
            m, rho0, seed = amp_damp(), PLUS_STATE, SZ
        else:
            spec = scenarios.damped_oscillator(n_trunc=6)
            m, rho0, seed = spec.model, spec.default_rho0, spec.default_invariant_seed
        grid = TimeGrid(0.0, 1.0, 200)
        serial_inv = integrate_invariant(m, seed, seed_time, grid, method)
        serial_state, serial_mon = integrate_state(m, rho0, grid, method)

        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        inv, state, mon = helpers.forked_pair(invariant_flow(m, seed, seed_time, grid, method),
                                              state_flow(m, rho0, grid, method))
        assert forks == [1]
        assert inv.kind == dynamics.INVARIANT and inv.grid == grid
        assert inv.samples.tobytes() == serial_inv.samples.tobytes()
        assert state.samples.tobytes() == serial_state.samples.tobytes()
        assert mon == serial_mon

    def test_without_fork_the_flows_run_in_turn(self, monkeypatch):
        m, grid = driven_amp_damp(), TimeGrid(0.0, 1.0, 100)
        forked = helpers.forked_invariant(invariant_flow(m, SX, "end", grid), lambda: "done")
        monkeypatch.delattr(os, "fork")
        order = []
        serial = helpers.forked_invariant(invariant_flow(m, SX, "end", grid),
                                          lambda: order.append("here") or "done")
        assert serial[1] == forked[1] == "done"
        assert serial[0].samples.tobytes() == forked[0].samples.tobytes()
        assert order == ["here"]

    def test_the_childs_error_arrives_whole(self):
        with pytest.raises(BlowupError) as serial:
            integrate_invariant(amp_damp(gamma=40.0), SZ, "start", TimeGrid(0.0, 1.0, 100))
        with pytest.raises(BlowupError) as forked:
            helpers.forked_invariant(
                invariant_flow(amp_damp(gamma=40.0), SZ, "start", TimeGrid(0.0, 1.0, 100)),
                lambda: None)
        assert str(forked.value) == str(serial.value)
        assert forked.value.step == serial.value.step
        assert forked.value.magnitude == serial.value.magnitude

    def test_the_parents_error_comes_first(self):
        # the child would blow up too; the error of ``here`` wins
        with pytest.raises(ValueError, match="state flow failed"):
            helpers.forked_invariant(
                invariant_flow(amp_damp(gamma=40.0), SZ, "start", TimeGrid(0.0, 1.0, 100)),
                raise_value_error)

    def test_the_stack_is_not_sent_through_the_pipe(self, monkeypatch):
        # the trajectory is made with the flow, over the shared stack, so the
        # child reports only (None, None), which pickles to 16 bytes, not the
        # 116 kB of a d=6, 200-step stack
        spec = scenarios.damped_oscillator(n_trunc=6)
        grid = TimeGrid(0.0, 1.0, 200)
        serial = integrate_invariant(spec.model, spec.default_invariant_seed, "start", grid)
        reports, loads = [], pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda data: reports.append(len(data)) or loads(data))
        inv, _ = helpers.forked_invariant(
            invariant_flow(spec.model, spec.default_invariant_seed, "start", grid), lambda: None)
        assert serial.samples.nbytes == 201 * 36 * 16
        assert len(reports) == 1 and reports[0] <= 16
        assert inv.samples.tobytes() == serial.samples.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_no_zombie_and_no_leaked_descriptor(self):
        m, grid = amp_damp(), TimeGrid(0.0, 1.0, 100)
        fds = open_fds()
        for _ in range(3):
            helpers.forked_invariant(invariant_flow(m, SZ, "start", grid), lambda: None)
            with pytest.raises(BlowupError):
                helpers.forked_invariant(invariant_flow(amp_damp(gamma=40.0), SZ, "start", grid),
                                         lambda: None)
            with pytest.raises(ValueError, match="state flow failed"):
                helpers.forked_invariant(invariant_flow(m, SZ, "start", grid), raise_value_error)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == fds


class TestFlowMakers:
    """Both makers return the flow's trajectory, made with the flow, and the
    call that fills it; a forked run sends nothing back but its error."""

    GRID = TimeGrid(0.0, 1.0, 100)

    @pytest.mark.parametrize("make, kind", [
        (lambda m, grid: state_flow(m, PLUS_STATE, grid), dynamics.STATE),
        (lambda m, grid: invariant_flow(m, SX, "end", grid), dynamics.INVARIANT),
    ], ids=["state", "invariant"])
    def test_the_trajectory_is_made_before_the_run(self, monkeypatch, make, kind):
        monkeypatch.setattr(dynamics, "_propagate", None)  # no flow may start
        traj, run = make(amp_damp(), self.GRID)
        assert isinstance(traj, Trajectory) and traj.kind == kind and traj.grid == self.GRID
        assert traj.samples.shape == (101, 2, 2)
        assert traj._hermitian
        assert not traj.samples.flags.writeable
        assert callable(run)

    @pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
    @pytest.mark.parametrize("case", ["step-matrix", "driven"])
    def test_run_fills_that_trajectory(self, monkeypatch, forked, case):
        m = amp_damp() if case == "step-matrix" else driven_amp_damp()
        serial_state, serial_mon = integrate_state(m, PLUS_STATE, self.GRID)
        serial_inv = integrate_invariant(m, SX, "end", self.GRID)
        forks = []
        if forked:
            fork = os.fork
            monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        else:
            monkeypatch.delattr(os, "fork")
        state, run = state_flow(m, PLUS_STATE, self.GRID)
        inv, run_inv = invariant_flow(m, SX, "end", self.GRID)
        samples = state.samples, inv.samples
        assert beside(run_inv, run, "invariant flow") == (None, serial_mon)
        assert forks == ([1] if forked else [])
        assert state.samples is samples[0] and inv.samples is samples[1]  # filled in place
        assert state.samples.tobytes() == serial_state.samples.tobytes()
        assert inv.samples.tobytes() == serial_inv.samples.tobytes()


class TestConservation:
    def test_amplitude_damping_exact_value(self):
        grid = TimeGrid(0.0, 3.0, 3000)
        state, _ = integrate_state(amp_damp(), EXCITED, grid)
        inv = integrate_invariant(amp_damp(), SZ, "start", grid)
        series = conservation_series(inv, state)
        # closed forms give <I>(t) = -1 identically
        assert np.max(np.abs(series + 1.0)) <= 1e-8

    def test_identity_gives_trace(self):
        grid = TimeGrid(0.0, 1.0, 200)
        state, _ = integrate_state(amp_damp(), EXCITED, grid)
        inv = integrate_invariant(amp_damp(), linalg.identity(2), "start", grid)
        assert_allclose(conservation_series(inv, state), 1.0, atol=1e-12)

    def test_unitary_energy_conservation(self):
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 2.0, 500)
        state, _ = integrate_state(m, PLUS_STATE, grid)
        inv = integrate_invariant(m, SZ, "start", grid)
        series = conservation_series(inv, state)
        assert np.max(np.abs(series - series[0])) <= 1e-10

    def test_random_models_conserve(self, rng):
        for dim in (2, 4, 6):
            h = random_hermitian(rng, dim)
            l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = LindbladModel(dim, h, [(l / linalg.maxabs(l), 0.4)])
            grid = TimeGrid(0.0, 1.0, 400)
            state, _ = integrate_state(m, random_density(rng, dim), grid)
            inv = integrate_invariant(m, random_hermitian(rng, dim), "start", grid)
            series = conservation_series(inv, state)
            scale = max(1.0, float(np.max(np.abs(series))))
            assert np.max(np.abs(series - series[0])) <= 1e-7 * scale

    def test_halving_dt_tightens_conservation(self):
        """The theorem bound is C * dt^4 * T; halving dt must cut the drift by
        at least ~an order of magnitude (empirically it does better, since
        the paired flows' leading truncation errors cancel)."""
        h_sched = (np.diag([0.0, 1.0]) + 0.3 * SX).astype(complex)
        m = LindbladModel(2, h_sched, [(SMINUS, 0.5)])
        drifts = []
        for n in (100, 200):
            grid = TimeGrid(0.0, 1.0, n)
            state, _ = integrate_state(m, PLUS_STATE, grid)
            inv = integrate_invariant(m, SX, "start", grid)
            series = conservation_series(inv, state)
            drifts.append(np.max(np.abs(series - series[0])))
        assert drifts[0] / drifts[1] >= 12.0

    def test_grid_mismatch(self):
        g1, g2 = TimeGrid(0.0, 1.0, 100), TimeGrid(0.0, 1.0, 200)
        state, _ = integrate_state(amp_damp(), EXCITED, g1)
        inv = integrate_invariant(amp_damp(), SZ, "start", g2)
        with pytest.raises(ValueError, match="grid"):
            conservation_series(inv, state)

    def test_kind_mismatch(self):
        g = TimeGrid(0.0, 1.0, 100)
        state, _ = integrate_state(amp_damp(), EXCITED, g)
        with pytest.raises(ValueError, match="invariant trajectory"):
            conservation_series(state, state)


class TestCsvExport:
    def test_format_and_precision(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 2)
        samples = [np.array([[0.1 + 0.2j, 0.0], [0.0, 0.9 - 0.2j]]) for _ in range(3)]
        traj = Trajectory(grid=grid, samples=samples, kind="state")
        path = tmp_path / "t.csv"
        dynamics.write_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_0_0,im_0_0,re_0_1,im_0_1,re_1_0,im_1_0,re_1_1,im_1_1"
        assert len(lines) == 4
        cells = lines[1].split(",")
        # 17 significant digits round-trip exactly
        assert float(cells[1]) == 0.1
        assert float(cells[2]) == 0.2


class TestWriteFile:
    """``write_file`` writes a file whole or not at all; an ``OSError`` is a
    ``ConfigError`` naming the file, and any other error passes unchanged."""

    def test_a_directory_in_place_of_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.mkdir()
        with pytest.raises(ConfigError) as err:
            dynamics.write_file(path, [b"t\n"])
        assert str(err.value) == f"cannot write {path}: Is a directory"
        assert err.value.field is None

    @pytest.mark.parametrize("error, raised", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), ConfigError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ])
    def test_an_error_midway_leaves_no_file(self, tmp_path, error, raised):
        def chunks():
            yield b"t,x\n"
            yield b"0,1\n"
            raise error

        path = tmp_path / "out.csv"
        with pytest.raises(raised) as err:
            dynamics.write_file(path, chunks())
        if raised is ConfigError:
            assert str(err.value) == f"cannot write {path}: {os.strerror(errno.ENOSPC)}"
        else:
            assert err.value is error
        assert os.listdir(tmp_path) == []
