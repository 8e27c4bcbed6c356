import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from helpers import PLUS_STATE, SMINUS, SX, SZ, integrate_invariant, integrate_state
from weakinv import invariant, linalg
from weakinv.dynamics import TimeGrid, Trajectory, invariant_flow, state_flow
from weakinv.errors import NotHermitianError
from weakinv.model import LindbladModel

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def amp_damp(gamma=0.5):
    return LindbladModel(2, EXCITED.copy(), [(SMINUS, gamma)])


def amp_damp_pair(gamma=0.5, t_end=1.0, n=1000, seed=SZ):
    m = amp_damp(gamma)
    grid = TimeGrid(0.0, t_end, n)
    state, _ = integrate_state(m, EXCITED, grid)
    inv = integrate_invariant(m, seed, "start", grid)
    return m, inv, state


class TestSpectrumSeries:
    def test_constant_trajectory(self):
        grid = TimeGrid(0.0, 1.0, 4)
        traj = Trajectory(grid=grid, samples=[np.diag([1.0, 2.0]).astype(complex)] * 5,
                          kind="invariant")
        series = invariant.spectrum_series(traj)
        assert_allclose(series.eigenvalues, [[1.0, 2.0]] * 5)
        assert_allclose(series.total_variation, [0.0, 0.0])

    def test_amplitude_damping_nodes(self):
        # closed form: eigenvalues {1 - 2 e^{2 gamma t}, 1}, gamma = 0.5
        _, inv, _ = amp_damp_pair(n=1000)
        series = invariant.spectrum_series(inv)
        for idx, t in ((0, 0.0), (500, 0.5), (1000, 1.0)):
            lower = 1.0 - 2.0 * math.exp(t)
            assert_allclose(series.eigenvalues[idx], [lower, 1.0], atol=1e-8)
        assert series.eigenvalues[0][0] == pytest.approx(-1.0)
        assert series.eigenvalues[500][0] == pytest.approx(-2.2974425414, abs=1e-8)
        assert series.eigenvalues[1000][0] == pytest.approx(-4.4365636569, abs=1e-8)

    def test_unitary_flow_isospectral(self):
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 5.0, 2000)
        traj = integrate_invariant(m, SX, "start", grid)
        series = invariant.spectrum_series(traj)
        assert float(np.max(series.total_variation)) <= 1e-8

    @pytest.mark.parametrize("forked", [False, True], ids=["in-process", "forked"])
    def test_flow_stacks_are_read_only(self, forked):
        # a flow's trajectory is marked Hermitian, which lets spectrum_series
        # skip its check; an edit in place that would break the mark is refused
        m, grid = amp_damp(), TimeGrid(0.0, 1.0, 20)
        if forked:
            inv, state, _ = helpers.forked_pair(invariant_flow(m, SZ, "start", grid),
                                                state_flow(m, EXCITED, grid))
        else:
            state, _ = integrate_state(m, EXCITED, grid)
            inv = integrate_invariant(m, SZ, "start", grid)
        for traj in (inv, state):
            with pytest.raises(ValueError, match="read-only"):
                traj.samples[3, 0, 1] += 0.5
        assert inv.samples[3, 0, 1] == 0.0

    def test_non_hermitian_sample_names_node(self):
        grid = TimeGrid(0.0, 1.0, 4)
        samples = [np.diag([1.0, 2.0]).astype(complex) for _ in range(5)]
        samples[3] = SMINUS
        traj = Trajectory(grid=grid, samples=samples, kind="invariant")
        with pytest.raises(NotHermitianError, match="node 3"):
            invariant.spectrum_series(traj)


class TestAnalyze:
    def test_unitary_case_strong_like(self):
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 5.0, 2000)
        state, _ = integrate_state(m, PLUS_STATE, grid)
        inv = integrate_invariant(m, SZ, "start", grid)
        report = invariant.analyze(inv, state, invariant.spectrum_series(inv))
        assert report.max_expectation_drift <= 1e-9
        assert float(np.max(report.spectrum.total_variation)) <= 1e-8
        assert report.classification == "strong-like"

    def test_amplitude_damping_weak(self):
        _, inv, state = amp_damp_pair()
        report = invariant.analyze(inv, state, invariant.spectrum_series(inv))
        assert report.max_expectation_drift <= 1e-8
        # lower eigenvalue moves monotonically from -1 to 1 - 2e
        assert report.spectrum.total_variation[0] == pytest.approx(2 * math.e - 2, abs=1e-6)
        assert report.classification == "weak"

    def test_identity_seed_degenerate_strong_like(self):
        _, inv, state = amp_damp_pair(seed=linalg.identity(2))
        report = invariant.analyze(inv, state, invariant.spectrum_series(inv))
        assert report.max_expectation_drift <= 1e-12
        assert float(np.max(report.spectrum.total_variation)) <= 1e-12
        assert report.classification == "strong-like"

    def test_threshold_is_relative_to_seed(self):
        # scaling the seed scales the spectrum variation; classification is
        # unchanged because the threshold tracks the seed magnitude
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 2.0, 800)
        state, _ = integrate_state(m, PLUS_STATE, grid)
        for scale in (1.0, 1e4):
            inv = integrate_invariant(m, scale * SX, "start", grid)
            assert invariant.analyze(
                inv, state, invariant.spectrum_series(inv)).classification == "strong-like"

    def test_grid_mismatch(self):
        m, inv, _ = amp_damp_pair(n=100)
        state, _ = integrate_state(m, EXCITED, TimeGrid(0.0, 1.0, 200))
        with pytest.raises(ValueError, match="grid"):
            invariant.analyze(inv, state, invariant.spectrum_series(inv))

    def test_drift_at_least_fourth_order(self):
        """Expectation drift must fall at least as fast as the dt^4 theorem
        bound under refinement. Measured slopes exceed 4: the leading RK4
        truncation errors of the dual flows cancel in the trace pairing."""
        h = (np.diag([0.0, 1.0]) + 0.3 * SX).astype(complex)
        m = LindbladModel(2, h, [(SMINUS, 0.5)])
        drifts = []
        grids = (50, 100, 200)
        for n in grids:
            grid = TimeGrid(0.0, 1.0, n)
            state, _ = integrate_state(m, PLUS_STATE, grid)
            inv = integrate_invariant(m, SX, "start", grid)
            report = invariant.analyze(inv, state, invariant.spectrum_series(inv))
            drifts.append(report.max_expectation_drift)
        slope = np.polyfit(np.log([1.0 / n for n in grids]), np.log(drifts), 1)[0]
        assert slope >= 3.5


def shift_defect(m, inv, c):
    """max_k ||I_c(t_k) - (I(t_k) + c 1)||_max, where I_c is propagated from
    the shifted seed I(t_0) + c 1: the adjoint generator annihilates the
    identity, so the defect is roundoff-level."""
    eye = linalg.identity(inv.dim)
    shifted = integrate_invariant(m, inv.samples[0] + c * eye, "start", inv.grid)
    return linalg.maxabs(shifted.samples - (inv.samples + c * eye))


class TestShiftCheck:
    def test_zero_shift_exact(self):
        m, inv, _ = amp_damp_pair(n=200)
        assert shift_defect(m, inv, 0.0) == 0.0

    def test_amplitude_damping_shift(self):
        m, inv, _ = amp_damp_pair()
        assert shift_defect(m, inv, 2.5) <= 1e-10

    def test_unitary_shift(self):
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 1.0, 500)
        inv = integrate_invariant(m, SX, "start", grid)
        assert shift_defect(m, inv, -1.0) <= 1e-12

    def test_shift_covariance_random_constants(self, rng):
        m, inv, _ = amp_damp_pair(n=300)
        for _ in range(5):
            c = float(rng.uniform(-10.0, 10.0))
            assert shift_defect(m, inv, c) <= 1e-10 * (1.0 + abs(c))


class TestExports:
    def test_spectrum_csv(self, tmp_path):
        _, inv, _ = amp_damp_pair(n=10)
        series = invariant.spectrum_series(inv)
        path = tmp_path / "spec.csv"
        path.write_bytes(invariant.spectrum_csv(series))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,lambda_1,lambda_2"
        assert len(lines) == 12

    def test_expectation_csv(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 2)
        path = tmp_path / "exp.csv"
        invariant.write_expectation_csv(grid, [1.0, 2.0, 3.0], path)
        assert path.read_text().splitlines() == ["t,expectation", "0,1", "0.5,2", "1,3"]

    def test_report_to_dict(self):
        _, inv, state = amp_damp_pair(n=100)
        payload = invariant.analyze(inv, state, invariant.spectrum_series(inv)).to_dict()
        assert payload["classification"] == "weak"
        assert isinstance(payload["spectrum_total_variation"], list)
