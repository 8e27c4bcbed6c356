import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
from helpers import (PLUS_STATE, SMINUS, SX, SZ, auxiliary_trajectory, hermitian_basis,
                     integrate_invariant, integrate_state, random_hermitian, stationarity_check)
from weakinv import action, linalg, superop
from weakinv.dynamics import TimeGrid, conservation_series
from weakinv.model import LindbladModel, constant, scaled, sinusoidal, tabulated

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def amp_damp(gamma=0.5):
    return LindbladModel(2, EXCITED.copy(), [(SMINUS, gamma)])


def trivial_model(dim=2):
    return LindbladModel(dim, np.zeros((dim, dim)))


def solution_path(m, rho0, lam_final, grid, method="rk4"):
    state, _ = integrate_state(m, rho0, grid, method)
    lam = integrate_invariant(m, lam_final, "end", grid, method)
    return action.DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples)


def random_path(rng, grid, dim=2, amp=0.4):
    n = grid.n_steps + 1
    return action.DiscretizedPath(
        grid=grid,
        rho=[random_hermitian(rng, dim, amp) for _ in range(n)],
        lam=[random_hermitian(rng, dim, amp) for _ in range(n)],
    )


def fd_check(path, m, grads, which, nodes, eps=1e-6):
    """Central finite differences of the action against analytic node
    gradients, normalized by the larger gradient magnitude (the only
    meaningful relative scale at eps = 1e-6 in double precision)."""
    worst_abs, scale = 0.0, 0.0
    for k in nodes:
        for e in hermitian_basis(path.dim):
            base = list(path.rho if which == "rho" else path.lam)
            plus, minus = list(base), list(base)
            plus[k] = base[k] + eps * e
            minus[k] = base[k] - eps * e
            if which == "rho":
                p_plus = action.DiscretizedPath(grid=path.grid, rho=plus, lam=path.lam)
                p_minus = action.DiscretizedPath(grid=path.grid, rho=minus, lam=path.lam)
            else:
                p_plus = action.DiscretizedPath(grid=path.grid, rho=path.rho, lam=plus)
                p_minus = action.DiscretizedPath(grid=path.grid, rho=path.rho, lam=minus)
            fd = (action.evaluate_action(p_plus, m) - action.evaluate_action(p_minus, m)) / (2 * eps)
            an = float(np.einsum("jk,kj->", grads[k], e).real)
            worst_abs = max(worst_abs, abs(fd - an))
            scale = max(scale, abs(an), abs(fd))
    return worst_abs / max(scale, 1e-12)


class TestEvaluateAction:
    def test_zero_auxiliary_gives_zero(self, rng):
        grid = TimeGrid(0.0, 1.0, 20)
        path = action.DiscretizedPath(
            grid=grid,
            rho=[random_hermitian(rng, 2) for _ in range(21)],
            lam=[np.zeros((2, 2), dtype=complex)] * 21,
        )
        assert action.evaluate_action(path, amp_damp()) == 0.0

    def test_static_path_boundary_term_only(self, rng):
        # H = 0, no channels, constant Lam and rho: only -tr(Lam0 rho0) survives
        grid = TimeGrid(0.0, 2.0, 16)
        lam0 = random_hermitian(rng, 2)
        rho0 = random_hermitian(rng, 2)
        path = action.DiscretizedPath(grid=grid, rho=[rho0] * 17, lam=[lam0] * 17)
        expected = -float(np.trace(lam0 @ rho0).real)
        assert action.evaluate_action(path, trivial_model()) == pytest.approx(expected, abs=1e-13)

    def test_pure_gauge_auxiliary_vanishes(self):
        # Lam_k = c (t_f - t_k) * identity on a trace-preserving path: the
        # sum telescopes against the boundary term
        c = 0.7
        grid = TimeGrid(0.0, 1.0, 500)
        m = amp_damp()
        state, _ = integrate_state(m, EXCITED, grid)
        lam = [c * (grid.t_end - t) * linalg.identity(2) for t in grid.nodes()]
        path = action.DiscretizedPath(grid=grid, rho=state.samples, lam=lam)
        assert abs(action.evaluate_action(path, m)) <= 1e-10

    def test_path_validation_rejects_non_hermitian(self):
        grid = TimeGrid(0.0, 1.0, 2)
        good = [np.eye(2, dtype=complex)] * 3
        bad = [np.eye(2, dtype=complex), SMINUS, np.eye(2, dtype=complex)]
        with pytest.raises(Exception, match="lam\\[1\\]"):
            action.DiscretizedPath(grid=grid, rho=good, lam=bad)

    def test_path_validation_counts_nodes(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="nodes"):
            action.DiscretizedPath(grid=grid, rho=[np.eye(2)] * 2, lam=[np.eye(2)] * 3)


class TestGradients:
    def test_constant_identity_auxiliary(self, rng):
        # Lam = c * identity: interior gradients vanish, node 0 carries -c*identity
        c = 1.3
        grid = TimeGrid(0.0, 1.0, 50)
        m = amp_damp()
        state, _ = integrate_state(m, EXCITED, grid)
        path = action.DiscretizedPath(
            grid=grid, rho=state.samples, lam=[c * linalg.identity(2)] * 51
        )
        grads = action.grad_rho(path, m)
        for g in grads[1:-1]:
            assert linalg.maxabs(g) <= 1e-13
        assert linalg.maxabs(grads[0] + c * linalg.identity(2)) <= 1e-13

    def test_static_model_constant_state(self, rng):
        # rho' = 0 and L = 0: interior Lam-gradients vanish
        grid = TimeGrid(0.0, 1.0, 40)
        rho0 = random_hermitian(rng, 2)
        path = action.DiscretizedPath(
            grid=grid, rho=[rho0] * 41, lam=[random_hermitian(rng, 2) for _ in range(41)]
        )
        grads = action.grad_lam(path, trivial_model())
        for g in grads[1:-1]:
            assert linalg.maxabs(g) <= 1e-13

    def test_finite_difference_rho(self, rng):
        grid = TimeGrid(0.0, 1.0, 50)
        path = random_path(rng, grid)
        grads = action.grad_rho(path, amp_damp())
        rel = fd_check(path, amp_damp(), grads, "rho", nodes=(0, 17, 50))
        assert rel <= 1e-8

    def test_finite_difference_lam(self, rng):
        grid = TimeGrid(0.0, 1.0, 50)
        path = random_path(rng, grid)
        grads = action.grad_lam(path, amp_damp())
        rel = fd_check(path, amp_damp(), grads, "lam", nodes=(0, 31, 50))
        assert rel <= 1e-8

    def test_solution_residual_shrinks_quadratically(self):
        m = amp_damp()
        residuals = []
        for n in (250, 500):
            grid = TimeGrid(0.0, 1.0, n)
            path = solution_path(m, EXCITED, SZ, grid)
            grads = action.grad_rho(path, m)
            residuals.append(max(linalg.maxabs(g) for g in grads[1:-1]) / grid.dt)
        assert 3.0 <= residuals[0] / residuals[1] <= 5.0


class TestStationarity:
    def test_trivial_model_exact(self):
        grid = TimeGrid(0.0, 1.0, 100)
        report = stationarity_check(
            trivial_model(), 0.5 * linalg.identity(2), np.zeros((2, 2)), grid
        )
        assert report.action_value == 0.0
        assert report.grad_rho_residual <= 1e-13
        assert report.grad_lam_residual <= 1e-13

    def test_amplitude_damping_residuals(self):
        m = amp_damp()
        grid = TimeGrid(0.0, 1.0, 1000)
        report = stationarity_check(m, EXCITED, SZ, grid)
        assert report.grad_rho_residual <= 1e-5
        assert report.grad_lam_residual <= 1e-5
        assert report.boundary_rho_term <= 1e-8
        assert report.boundary_lam_term <= 1e-8
        finer = stationarity_check(m, EXCITED, SZ, TimeGrid(0.0, 1.0, 2000))
        assert 3.0 <= report.grad_rho_residual / finer.grad_rho_residual <= 5.0

    def test_unitary_pair_conserves_auxiliary(self):
        # stationary pair of the unitary qubit: Lam is then a weak invariant
        m = LindbladModel(2, SZ.copy())
        grid = TimeGrid(0.0, 1.0, 1000)
        report = stationarity_check(m, PLUS_STATE, SX, grid)
        assert report.grad_rho_residual <= 1e-5
        assert report.grad_lam_residual <= 1e-5
        state, _ = integrate_state(m, PLUS_STATE, grid)
        lam = auxiliary_trajectory(m, SX, grid)
        series = conservation_series(lam, state)
        assert np.max(np.abs(series - series[0])) <= 1e-8

    def test_driven_residuals_shrink_quadratically(self):
        # a generator read anywhere but the cell midpoint leaves O(dt) residuals
        m = LindbladModel(2, scaled(sinusoidal(1.0, 0.5, 2.0), EXCITED), [(SMINUS, 0.5)])
        coarse, fine = (stationarity_check(m, PLUS_STATE, SZ, TimeGrid(0.0, 1.0, n))
                        for n in (200, 400))
        assert 3.5 <= coarse.grad_rho_residual / fine.grad_rho_residual <= 4.5
        assert 3.5 <= coarse.grad_lam_residual / fine.grad_lam_residual <= 4.5

    def test_report_matches_the_public_functions(self, rng):
        m = LindbladModel(2, scaled(sinusoidal(1.0, 0.5, 2.0), EXCITED), [(SMINUS, 0.5)])
        path = random_path(rng, TimeGrid(0.0, 1.0, 20))
        report = action.stationarity_report(path, m)
        gr = action.grad_rho(path, m)
        gl = action.grad_lam(path, m)
        assert report.action_value == action.evaluate_action(path, m)
        assert report.grad_rho_residual == max(linalg.maxabs(g) for g in gr[1:-1]) / path.grid.dt
        assert report.boundary_rho_term == linalg.maxabs(gr[0] + path.lam[0])
        assert report.boundary_lam_term == linalg.maxabs(gl[-1] + path.rho[-1])

    def test_report_serialization(self):
        grid = TimeGrid(0.0, 1.0, 100)
        payload = stationarity_check(amp_damp(), EXCITED, SZ, grid).to_dict()
        assert set(payload) == {
            "action", "grad_rho_residual", "grad_lam_residual",
            "boundary_rho", "boundary_lam", "grid",
        }
        assert payload["grid"] == {"t_start": 0.0, "t_end": 1.0, "n_steps": 100}


def random_driven_model(rng, dim):
    """Every cell midpoint differs: H(t) and the rate both depend on t."""
    return LindbladModel(dim, scaled(sinusoidal(1.0, 0.5, 2.0), random_hermitian(rng, dim)),
                         [(random_hermitian(rng, dim) + 1j * random_hermitian(rng, dim),
                           sinusoidal(0.4, 0.2, 3.0))])


def random_channel_model(rng, dim):
    """Constant H; one channel whose operator depends on t, one whose rate
    does, and one constant channel."""
    def jump():
        return random_hermitian(rng, dim) + 1j * random_hermitian(rng, dim)
    return LindbladModel(dim, random_hermitian(rng, dim),
                         [(scaled(sinusoidal(1.0, 0.3, 1.5), jump()), 0.3),
                          (jump(), sinusoidal(0.4, 0.2, 3.0)),
                          (jump(), 0.1)])


class TestStackedGeneratorCalls:
    """The action applies the generator to one stack per block of cells,
    with K and the time-dependent channels stacked per cell where they
    vary; it must agree with one call per cell."""

    # at d=64 a block of linalg.BLOCK_ENTRIES entries holds 2 cells
    MODELS = [pytest.param(helpers.random_constant_model, 3, 1, id="constant"),
              pytest.param(random_driven_model, 3, 1, id="driven"),
              pytest.param(random_channel_model, 3, 1, id="driven-channels"),
              pytest.param(helpers.random_constant_model, 64, 20, id="constant-blocks"),
              pytest.param(random_driven_model, 64, 20, id="driven-blocks")]

    @pytest.mark.parametrize("make_model, dim, calls", MODELS)
    def test_matches_per_cell_reference(self, rng, make_model, dim, calls):
        m = make_model(rng, dim)
        path = random_path(rng, TimeGrid(0.0, 1.0, 40), dim=dim)
        ref_value = helpers.per_cell_action(path, m)
        assert abs(action.evaluate_action(path, m) - ref_value) <= 1e-13 * max(1.0, abs(ref_value))
        for grads, ref in ((action.grad_rho(path, m), helpers.per_cell_grad_rho(path, m)),
                           (action.grad_lam(path, m), helpers.per_cell_grad_lam(path, m))):
            assert grads.shape == ref.shape == (41, dim, dim)
            assert linalg.maxabs(grads - ref) <= 1e-13

    @pytest.mark.parametrize("make_model, dim, calls", MODELS)
    def test_one_call_per_run_of_shared_snapshots(self, rng, monkeypatch, make_model, dim,
                                                  calls):
        counts = {"adjoint": 0, "liouvillian": 0}

        def counted(name):
            fn = getattr(superop, name)

            def wrapper(k, channels, a):
                counts[name] += 1
                return fn(k, channels, a)
            return wrapper

        for name in counts:
            monkeypatch.setattr(superop, name, counted(name))
        m = make_model(rng, dim)
        path = random_path(rng, TimeGrid(0.0, 1.0, 40), dim=dim)
        action.evaluate_action(path, m)
        action.grad_lam(path, m)
        assert counts == {"adjoint": calls, "liouvillian": calls}


BLOCK_CELLS = 4


class TestBlockEdges:
    """The action streams blocks of ``BLOCK_CELLS`` cells here (d=3), carrying
    each block's last cell across its edge; every grid length around the
    block size must agree with the per-cell reference, and the report with
    the public functions exactly."""

    MODELS = [pytest.param(helpers.random_constant_model, id="constant"),
              pytest.param(random_driven_model, id="driven"),
              pytest.param(random_channel_model, id="driven-channels"),
              pytest.param(helpers.random_hadamard_model, id="hadamard")]
    STEPS = [1, BLOCK_CELLS - 1, BLOCK_CELLS, BLOCK_CELLS + 1, 3 * BLOCK_CELLS + 2]

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", BLOCK_CELLS * 9)

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("make_model", MODELS)
    def test_matches_per_cell_reference(self, rng, make_model, n_steps):
        m = make_model(rng, 3)
        path = random_path(rng, TimeGrid(0.0, 1.0, n_steps), dim=3)
        ref_value = helpers.per_cell_action(path, m)
        assert abs(action.evaluate_action(path, m) - ref_value) <= 1e-13 * max(1.0, abs(ref_value))
        for grads, ref in ((action.grad_rho(path, m), helpers.per_cell_grad_rho(path, m)),
                           (action.grad_lam(path, m), helpers.per_cell_grad_lam(path, m))):
            assert grads.shape == ref.shape == (n_steps + 1, 3, 3)
            assert linalg.maxabs(grads - ref) <= 1e-13

    @pytest.mark.parametrize("n_steps", STEPS)
    @pytest.mark.parametrize("make_model", MODELS)
    def test_report_equals_the_public_functions(self, rng, make_model, n_steps):
        m = make_model(rng, 3)
        path = random_path(rng, TimeGrid(0.0, 1.0, n_steps), dim=3)
        report = action.stationarity_report(path, m)
        gr, gl, dt = action.grad_rho(path, m), action.grad_lam(path, m), path.grid.dt
        assert report.action_value == action.evaluate_action(path, m)
        assert report.grad_rho_residual == linalg.maxabs(gr[1:-1]) / dt
        assert report.grad_lam_residual == linalg.maxabs(gl[1:-1]) / dt
        assert report.boundary_rho_term == linalg.maxabs(gr[0] + path.lam[0])
        assert report.boundary_lam_term == linalg.maxabs(gl[-1] + path.rho[-1])

    @pytest.mark.parametrize("n_steps", STEPS)
    def test_gauge_shift_equals_the_shifted_action(self, rng, n_steps):
        # the shift formed block by block against a whole shifted path
        m = random_channel_model(rng, 3)
        grid = TimeGrid(0.0, 1.0, n_steps)
        path = random_path(rng, grid, dim=3)
        sched = tabulated([0.0, 0.4, 1.0], [0.8, -0.3, 1.4])
        lam_mid = np.array([sched(t) for t in grid.midpoints()])
        phi = np.append(np.cumsum((grid.dt * lam_mid)[::-1])[::-1], 0.0)
        shifted = action.DiscretizedPath(
            grid=grid, rho=path.rho, lam=path.lam + phi[:, None, None] * np.eye(3))
        tr = np.trace(path.rho, axis1=1, axis2=2).real
        rhs = np.sum(grid.dt * lam_mid * (0.5 * (tr[:-1] + tr[1:]) - tr[0]))
        expected = (action.evaluate_action(shifted, m) - action.evaluate_action(path, m)) - rhs
        assert action.gauge_shift_check(path, m, sched) == pytest.approx(abs(expected),
                                                                         rel=0, abs=1e-12)


class TestStreamedDiagnostics:
    def test_no_stack_is_allocated(self, rng):
        # the report and the gauge check keep no (n, d, d) stack of cell
        # generators, states, gradients or shifted Lam: their traced peak
        # stays below one such stack (the lattice is the model's, sampled first)
        n, dim = 3000, 8
        m = random_driven_model(rng, dim)
        grid = TimeGrid(0.0, 1.0, n)
        stacks = [linalg.hermitize(rng.standard_normal((n + 1, dim, dim))
                                   + 1j * rng.standard_normal((n + 1, dim, dim)))
                  for _ in range(2)]
        path = action.DiscretizedPath(grid=grid, rho=stacks[0], lam=stacks[1])
        m.on_grid(grid)
        sched = tabulated([0.0, 0.5, 1.0], [0.8, -0.3, 1.4])
        tracemalloc.start()
        try:
            action.stationarity_report(path, m)
            action.gauge_shift_check(path, m, sched)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.rho.nbytes


class TestAuxiliaryEquivalence:
    def test_same_flow_as_weak_invariant(self):
        # the stationarity condition for the auxiliary operator is the
        # weak-invariant equation; propagating either way must agree exactly
        m = amp_damp()
        grid = TimeGrid(0.0, 1.0, 500)
        aux = auxiliary_trajectory(m, SZ, grid)
        inv = integrate_invariant(m, SZ, "end", grid)
        for a, b in zip(aux.samples, inv.samples):
            assert linalg.maxabs(a - b) <= 1e-12


class TestGaugeShift:
    def test_zero_rate_exact(self):
        grid = TimeGrid(0.0, 1.0, 200)
        path = solution_path(amp_damp(), EXCITED, SZ, grid)
        assert action.gauge_shift_check(path, amp_damp(), constant(0.0)) == 0.0

    def test_unit_rate_on_solution_path(self):
        # trace-preserving path: both sides vanish separately
        grid = TimeGrid(0.0, 1.0, 500)
        m = amp_damp()
        path = solution_path(m, EXCITED, SZ, grid)
        s0 = action.evaluate_action(path, m)
        defect = action.gauge_shift_check(path, m, constant(1.0))
        assert defect <= 1e-12
        # and the shift itself leaves S essentially unchanged
        phi = [(grid.t_end - t) for t in grid.nodes()]
        shifted = action.DiscretizedPath(
            grid=grid, rho=path.rho,
            lam=[path.lam[k] + phi[k] * linalg.identity(2) for k in range(501)],
        )
        assert abs(action.evaluate_action(shifted, m) - s0) <= 1e-10

    def test_non_normalized_path_detected(self, rng):
        # scale the state nodes by 1.1 beyond half time: the rate multiplies
        # the normalization violation and both sides become nonzero
        grid = TimeGrid(0.0, 1.0, 400)
        m = amp_damp()
        path = solution_path(m, EXCITED, SZ, grid)
        rho = [s.copy() for s in path.rho]
        for k in range(200, 401):
            rho[k] = 1.1 * rho[k]
        broken = action.DiscretizedPath(grid=grid, rho=rho, lam=path.lam)
        sched = tabulated([0.0, 0.5, 1.0], [0.8, -0.3, 1.4], name="lambda")
        delta = action.gauge_shift_check(broken, m, sched)
        assert delta <= 1e-11
        # the shift genuinely moves the action here
        lam_mid = [float(sched(t)) for t in grid.midpoints()]
        rhs = sum(
            grid.dt * lam_mid[k] * (0.5 * (np.trace(rho[k]) + np.trace(rho[k + 1])).real - 1.0)
            for k in range(400)
        )
        assert abs(rhs) > 1e-3

    def test_random_tabulated_rates(self, rng):
        grid = TimeGrid(0.0, 1.0, 300)
        m = amp_damp()
        path = solution_path(m, EXCITED, SZ, grid)
        for _ in range(5):
            knots = np.linspace(0.0, 1.0, 6)
            values = rng.uniform(-2.0, 2.0, size=6)
            defect = action.gauge_shift_check(path, m, tabulated(knots, list(values)))
            assert defect <= 1e-11 * (1.0 + float(np.max(np.abs(values))))

    def test_rejects_operator_rate(self):
        grid = TimeGrid(0.0, 1.0, 10)
        path = solution_path(amp_damp(), EXCITED, SZ, grid)
        with pytest.raises(ValueError, match="scalar"):
            action.gauge_shift_check(path, amp_damp(), constant(SZ))
