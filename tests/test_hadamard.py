"""The Hadamard form of the generators: the kernels against the K-form, the
predicate that picks the form per sampled lattice, and the flows and the
action that run on it."""

import collections

import numpy as np
import pytest

import helpers
from helpers import (SMINUS, integrate_invariant, integrate_state, partial_permutation,
                     random_density, random_hadamard_model)
from weakinv import action, dynamics, linalg, model, scenarios, superop
from weakinv.dynamics import TimeGrid, invariant_flow, state_flow
from weakinv.model import LindbladModel, constant, scaled, sinusoidal, tabulated

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def hadamard_kernel(adjoint):
    """The Hadamard kernel of L (L* with ``adjoint``) on D (E) and the channels."""
    return lambda x, channels, y: superop.hadamard(x, superop.hadamard_terms(channels, adjoint), y)


KERNELS = ((hadamard_kernel(False), superop.apply_liouvillian, False),
           (hadamard_kernel(True), superop.apply_adjoint, True))


def random_operator(rng, dim, *shape):
    return (rng.standard_normal(shape + (dim, dim))
            + 1j * rng.standard_normal(shape + (dim, dim)))


def assert_close(got, want):
    assert linalg.maxabs(got - want) <= 1e-13 * max(1.0, linalg.maxabs(want))


LADDER3 = scenarios.lowering_operator(3)


def off_diagonal_h():
    h = np.diag([0.0, 1.0, 2.5]).astype(complex)
    h[0, 2] = h[2, 0] = 0.3
    return LindbladModel(3, scaled(sinusoidal(1.0, 0.5, 2.0), h), [(LADDER3, 0.4)])


def jump_with(entries):
    def build():
        l = np.zeros((3, 3), dtype=complex)
        for j, k in entries:
            l[j, k] = 1.0 + 0.5j
        return LindbladModel(3, scaled(sinusoidal(1.0, 0.5, 2.0), np.diag([0.0, 1.0, 2.5])),
                             [(l, 0.4)])
    return build


def tabulated_jump():
    return LindbladModel(3, np.diag([0.0, 1.0, 2.5]),
                         [(tabulated([0.0, 2.0], [LADDER3, 2.0 * LADDER3]), 0.4)])


def counting_kernels(monkeypatch):
    """Count the generator-kernel calls of the flows and the action, by form."""
    counts = collections.Counter()
    for name in ("liouvillian", "adjoint", "hadamard"):
        def counted(*args, _fn=getattr(superop, name), _form=name.split("_")[0]):
            counts["hadamard" if _form == "hadamard" else "dense"] += 1
            return _fn(*args)
        monkeypatch.setattr(superop, name, counted)
    return counts


def run_everything(m):
    grid = TimeGrid(0.0, 1.0, 20)
    state, _ = integrate_state(m, np.eye(m.dim) / m.dim, grid)
    lam = integrate_invariant(m, np.eye(m.dim), "end", grid)
    path = action.DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples)
    action.stationarity_report(path, m)


def dense_driven(rng, dim, rate=None):
    """A K-form model: a driven dense H, one jump on a partial permutation."""
    h = scaled(sinusoidal(1.0, 0.5, 2.0), helpers.random_hermitian(rng, dim))
    rate = rate or sinusoidal(0.4, 0.2, 3.0)
    return LindbladModel(dim, h, [(partial_permutation(rng, dim), rate)])


def dense_twin(monkeypatch):
    """Make every lattice sampled from now on run in K-form."""
    monkeypatch.setattr(model, "_is_diagonal", lambda op: False)


class TestGather:
    def test_sandwiches_are_gathers(self, rng):
        # L X L† and L† X L entry by entry, empty rows and columns included
        l = partial_permutation(rng, 7, empty=3)
        g = model._gather(l)
        x = random_operator(rng, 7)
        assert_close(g.weights * x.reshape(-1)[g.index], l @ x @ l.conj().T)
        assert_close(g.weights_dag * x.reshape(-1)[g.index_dag], l.conj().T @ x @ l)

    def test_ladder_operator(self):
        a = scenarios.lowering_operator(5)
        g = model._gather(a)
        x = np.arange(25.0).reshape(5, 5).astype(complex)
        assert_close(g.weights * x.reshape(-1)[g.index], a @ x @ a.T)
        assert_close(g.weights_dag * x.reshape(-1)[g.index_dag], a.T @ x @ a)

    @pytest.mark.parametrize("entries", [[(0, 1), (0, 2)], [(0, 1), (2, 1)]],
                             ids=["two-in-a-row", "two-in-a-column"])
    def test_two_nonzeros_are_no_gather(self, entries):
        l = np.zeros((3, 3), dtype=complex)
        for j, k in entries:
            l[j, k] = 1.0
        assert model._gather(l) is None


class TestKernels:
    """The Hadamard kernels against the K-form ones, on qualifying models:
    partial permutations with complex weights and empty rows and columns,
    diagonal jumps, non-Hermitian inputs, single operators and stacks."""

    @pytest.mark.parametrize("n_channels", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_single_operator(self, rng, dim, n_channels):
        s = random_hadamard_model(rng, dim, n_channels, driven=False).snapshot(0.0)
        assert s.hadamard
        k = s.effective_hamiltonian()
        x = random_operator(rng, dim)
        for kernel, reference, adjoint in KERNELS:
            assert_close(kernel(superop.difference(k, adjoint), s.channels, x), reference(s, x))

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_stack_with_stacked_rates(self, rng, dim):
        # per-node K and rates stacked over the nodes, as the action's blocks stack them
        m = random_hadamard_model(rng, dim, 3)
        grid = TimeGrid(0.0, 1.0, 3)
        lattice, snaps = m.on_grid(grid), helpers.lattice_snapshots(m, grid)
        k = lattice.effective_hamiltonian()
        assert all(np.shape(ch.alpha) == (len(snaps), 1, 1) for ch in lattice.channels)
        x = random_operator(rng, dim, len(snaps))
        for kernel, reference, adjoint in KERNELS:
            got = kernel(superop.difference(k, adjoint), lattice.channels, x)
            for j, s in enumerate(snaps):
                assert_close(got[j], reference(s, x[j]))

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_stack_with_one_snapshot(self, rng, dim):
        # the step-matrix build: one snapshot, a stack of inputs
        s = random_hadamard_model(rng, dim, 2, driven=False).snapshot(0.0)
        k = s.effective_hamiltonian()
        x = random_operator(rng, dim, 4)
        for kernel, reference, adjoint in KERNELS:
            assert_close(kernel(superop.difference(k, adjoint), s.channels, x), reference(s, x))

    def test_e_is_the_transpose_of_d(self, rng):
        # E = -conj(D) = D^T
        k = random_hadamard_model(rng, 4, 2).snapshot(0.3).effective_hamiltonian()
        d, e = superop.difference(k), superop.difference(k, adjoint=True)
        assert np.array_equal(e, -d.conj()) and np.array_equal(e, d.T)


def tabulated_h(rng):
    h = [helpers.random_hermitian(rng, 4) for _ in range(2)]
    return LindbladModel(4, tabulated([0.0, 1.0], h), [(scenarios.lowering_operator(4), 0.3)])


class TestGenerator:
    """``superop.Generator`` on each kind of lattice, both sides: ``cells``
    binds bitwise the stack of what ``span`` binds at the cell midpoints, and
    ``span`` applies each entry's generator, checked against the model
    sampled on its own at each lattice time."""

    KINDS = [
        pytest.param(lambda rng: helpers.random_constant_model(rng, 18), False, True,
                     id="constant-k-form-d18"),
        pytest.param(lambda rng: random_hadamard_model(rng, 4, driven=False), True, True,
                     id="constant-hadamard"),
        pytest.param(lambda rng: scenarios.build_scenario("damped-ho", n_trunc=6).model, True,
                     False, id="affine-hadamard"),
        pytest.param(lambda rng: dense_driven(rng, 4), False, False,
                     id="driven-h-and-rate-k-form"),
        pytest.param(tabulated_h, False, False, id="tabulated-h"),
        pytest.param(lambda rng: tabulated_jump(), False, False, id="tabulated-jump"),
    ]

    @pytest.mark.parametrize("dual", [False, True], ids=["L", "adjoint"])
    @pytest.mark.parametrize("make_model, hadamard, constant", KINDS)
    def test_cells_stack_at_and_at_applies_the_entry(self, rng, make_model, hadamard, constant,
                                                     dual):
        m = make_model(rng)
        grid = TimeGrid(0.0, 1.0, 7)
        gen = superop.Generator(m.on_grid(grid), dual)
        assert gen.hadamard == hadamard and gen.constant == constant
        reference = superop.apply_adjoint if dual else superop.apply_liouvillian
        snaps = helpers.lattice_snapshots(m, grid)
        at = gen.span(0, len(snaps))
        for j, s in enumerate(snaps):
            x = random_operator(rng, m.dim)
            assert_close(at(j, x), reference(s, x))
        bound = gen._bind(0, len(snaps), 1)[0]
        for k0, k1 in ((0, 7), (2, 5), (6, 7)):
            want = np.stack([bound if constant else bound[2 * k + 1] for k in range(k0, k1)])
            got = gen.cells(k0, k1).args[0]
            if constant:
                got = np.broadcast_to(got, want.shape)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            x = random_operator(rng, m.dim, k1 - k0)
            per_cell = np.stack([at(2 * k + 1, x[k - k0]) for k in range(k0, k1)])
            assert_close(gen.cells(k0, k1)(x), per_cell)


class TestPredicate:
    @pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
    def test_built_in_scenarios_qualify(self, name):
        spec = scenarios.build_scenario(name, **({"n_trunc": 6} if name == "damped-ho" else {}))
        assert spec.model.snapshot(0.0).hadamard

    def test_time_dependent_rates_qualify(self, rng):
        assert random_hadamard_model(rng, 4, 2).snapshot(0.3).hadamard

    def test_no_channels_and_diagonal_h(self):
        assert LindbladModel(2, EXCITED).snapshot(0.0).hadamard

    def test_constant_scaled_jump_qualifies(self):
        m = LindbladModel(2, EXCITED, [(scaled(constant(2.0), SMINUS), 0.5)])
        assert m.snapshot(0.0).hadamard


class TestFallback:
    """A lattice that does not qualify runs every flow and the action on the
    dense K-form kernels, one that does on the Hadamard kernels only."""

    @pytest.mark.parametrize("make_model", [
        off_diagonal_h,
        jump_with([(0, 1), (0, 2)]),
        jump_with([(0, 1), (2, 1)]),
        tabulated_jump,
    ], ids=["off-diagonal-h", "two-in-a-row", "two-in-a-column", "tabulated-jump"])
    def test_dense_path(self, monkeypatch, make_model):
        m = make_model()
        assert not m.snapshot(0.0).hadamard
        counts = counting_kernels(monkeypatch)
        run_everything(m)
        assert counts["hadamard"] == 0 and counts["dense"] > 0

    @pytest.mark.parametrize("driven", [False, True])
    def test_hadamard_path(self, rng, monkeypatch, driven):
        m = random_hadamard_model(rng, 3, 2, driven=driven)
        counts = counting_kernels(monkeypatch)
        run_everything(m)
        assert counts["dense"] == 0 and counts["hadamard"] > 0


class TestFlows:
    """The flows in Hadamard form agree with the K-form ones to roundoff."""

    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("driven, dim", [(False, 3), (False, 18), (True, 5)],
                             ids=["step-matrix", "constant-direct", "driven"])
    def test_match_the_k_form(self, rng, monkeypatch, method, driven, dim):
        m = random_hadamard_model(rng, dim, 2, driven=driven)
        grid = TimeGrid(0.0, 1.0, 50)
        rho0 = random_density(rng, dim)
        seed = helpers.random_hermitian(rng, dim)
        fast = [integrate_state(m, rho0, grid, method)[0],
                integrate_invariant(m, seed, "start", grid, method)]
        assert m.on_grid(grid).hadamard
        dense_twin(monkeypatch)
        twin = LindbladModel(dim, m.hamiltonian, m.channels)
        slow = [integrate_state(twin, rho0, grid, method)[0],
                integrate_invariant(twin, seed, "start", grid, method)]
        assert not twin.on_grid(grid).hadamard
        for a, b in zip(fast, slow):
            assert linalg.maxabs(a.samples - b.samples) <= 1e-12 * linalg.maxabs(b.samples)

    @pytest.mark.parametrize("make_model", [random_hadamard_model, dense_driven],
                             ids=["hadamard", "k-form"])
    def test_forked_flow_bitwise_equal_to_serial(self, rng, make_model):
        m = make_model(rng, 5)
        grid, rho0, seed = TimeGrid(0.0, 1.0, 100), random_density(rng, 5), np.diag(np.arange(5.0))
        serial_inv = integrate_invariant(m, seed, "end", grid)
        serial_state, _ = integrate_state(m, rho0, grid)
        inv, state, _ = helpers.forked_pair(invariant_flow(m, seed, "end", grid),
                                            state_flow(m, rho0, grid))
        assert inv.samples.tobytes() == serial_inv.samples.tobytes()
        assert state.samples.tobytes() == serial_state.samples.tobytes()


class TestAction:
    @pytest.mark.parametrize("n_channels", [1, 3])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_matches_per_cell_reference(self, rng, dim, n_channels):
        m = random_hadamard_model(rng, dim, n_channels)
        grid = TimeGrid(0.0, 1.0, 40)
        path = action.DiscretizedPath(
            grid=grid, rho=[helpers.random_hermitian(rng, dim, 0.4) for _ in range(41)],
            lam=[helpers.random_hermitian(rng, dim, 0.4) for _ in range(41)])
        ref_value = helpers.per_cell_action(path, m)
        assert abs(action.evaluate_action(path, m) - ref_value) <= 1e-13 * max(1.0, abs(ref_value))
        for grads, ref in ((action.grad_rho(path, m), helpers.per_cell_grad_rho(path, m)),
                           (action.grad_lam(path, m), helpers.per_cell_grad_lam(path, m))):
            assert linalg.maxabs(grads - ref) <= 1e-13


class TestBlockOperators:
    """The action's blocks (4 cells here) build K (or D) from the scale
    vector, or once per block from the lattice's part (its channels, and H
    where tabulated, stacked over the block's cells), never per cell; in
    K-form the result is bitwise each cell's K, sampled on its own."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * 16)

    def counted_k(self, monkeypatch):
        """The number of entries of each K built from now on."""
        calls = []
        build = model.ModelSnapshot.effective_hamiltonian

        def counted(s):
            k = build(s)
            calls.append(len(k) if k.ndim == 3 else 1)
            return k
        monkeypatch.setattr(model.ModelSnapshot, "effective_hamiltonian", counted)
        return calls

    @pytest.mark.parametrize("rate", [0.3, sinusoidal(0.4, 0.2, 3.0)], ids=["constant", "driven"])
    def test_k_form_bitwise_per_cell(self, rng, monkeypatch, rate):
        m = dense_driven(rng, 4, rate)
        grid = TimeGrid(0.0, 1.0, 30)
        assert len(list(action._blocks(m, grid, dual=True))) == 8
        cells = helpers.lattice_snapshots(m, grid)[1::2]
        want = np.stack([s.effective_hamiltonian() for s in cells])
        calls = self.counted_k(monkeypatch)
        blocks = list(action._blocks(m, grid, dual=True))
        assert calls == ([] if rate == 0.3 else [4] * 7 + [2])
        got = np.concatenate([np.broadcast_to(apply.args[0], (k1 - k0, 4, 4))
                              for k0, k1, apply in blocks])
        assert got.tobytes() == want.tobytes()

    def test_hadamard_blocks(self, rng, monkeypatch):
        m = random_hadamard_model(rng, 4, 2)
        grid = TimeGrid(0.0, 1.0, 30)
        cells = helpers.lattice_snapshots(m, grid)[1::2]
        want = {dual: np.stack([superop.difference(s.effective_hamiltonian(), dual)
                                for s in cells]) for dual in (False, True)}
        calls = self.counted_k(monkeypatch)
        for dual in (False, True):
            got = np.concatenate([apply.args[0] for _, _, apply in action._blocks(m, grid, dual)])
            assert_close(got, want[dual])
        assert calls == ([4] * 7 + [2]) * 2

    def test_tabulated_hamiltonian_per_cell(self, rng):
        h = [helpers.random_hermitian(rng, 4) for _ in range(2)]
        m = LindbladModel(4, tabulated([0.0, 1.0], h),
                          [(scenarios.lowering_operator(4), sinusoidal(0.4, 0.2, 3.0))])
        grid = TimeGrid(0.0, 1.0, 10)
        cells = helpers.lattice_snapshots(m, grid)[1::2]
        want = np.stack([s.effective_hamiltonian() for s in cells])
        blocks = action._blocks(m, grid, dual=False)
        got = np.concatenate([apply.args[0] for _, _, apply in blocks])
        assert got.tobytes() == want.tobytes()

