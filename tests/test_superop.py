import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import (SMINUS, SZ, random_density, random_hermitian, reference_adjoint,
                     reference_liouvillian)
from weakinv import linalg, superop
from weakinv.dynamics import TimeGrid
from weakinv.model import LindbladModel, scaled, sinusoidal, tabulated
from weakinv.verify import random_model

EXCITED = np.diag([0.0, 1.0]).astype(complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)


def amp_damp_snapshot(gamma=0.5):
    return LindbladModel(2, EXCITED.copy(), [(SMINUS, gamma)]).snapshot(0.0)


def pairing_defect(s, a, rho):
    """|tr(a L(rho)) - tr(L*(a) rho)|; mathematically zero."""
    lhs = np.einsum("jk,kj->", a, superop.apply_liouvillian(s, rho))
    rhs = np.einsum("jk,kj->", superop.apply_adjoint(s, a), rho)
    return abs(lhs - rhs)


class TestApplyLiouvillian:
    def test_amplitude_damping_excited(self):
        # hand computation: [H, rho] = 0; dissipator gives -i*(2 rho - 2 ground)
        out = superop.apply_liouvillian(amp_damp_snapshot(0.5), EXCITED)
        assert_allclose(out, np.diag([1j, -1j]), atol=1e-15)

    def test_unitary_limit_is_commutator(self, rng):
        h = random_hermitian(rng, 3)
        s = LindbladModel(3, h, [(random_hermitian(rng, 3), 0.0)]).snapshot(0.0)
        rho = random_density(rng, 3)
        assert_allclose(superop.apply_liouvillian(s, rho), h @ rho - rho @ h, atol=1e-14)

    def test_ground_state_stationary(self):
        out = superop.apply_liouvillian(amp_damp_snapshot(0.7), GROUND)
        assert_allclose(out, 0.0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            superop.apply_liouvillian(amp_damp_snapshot(), np.eye(3))


class TestApplyAdjoint:
    def test_identity_annihilated(self, rng):
        for dim in (2, 4, 6):
            s = random_model(rng, dim).snapshot(0.0)
            assert_allclose(superop.apply_adjoint(s, linalg.identity(dim)), 0.0, atol=1e-14)

    def test_amplitude_damping_sigma_z(self):
        # hand computation: -[H, sz] = 0; dissipator = -i*gamma*diag(0, -4)
        gamma = 0.5
        out = superop.apply_adjoint(amp_damp_snapshot(gamma), SZ)
        assert_allclose(out, 4j * gamma * EXCITED, atol=1e-15)

    def test_unitary_limit_minus_commutator(self, rng):
        h = random_hermitian(rng, 4)
        s = LindbladModel(4, h, [(random_hermitian(rng, 4), 0.0)]).snapshot(0.0)
        a = random_hermitian(rng, 4)
        assert_allclose(superop.apply_adjoint(s, a), -(h @ a - a @ h), atol=1e-14)


class TestStacks:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("fn", [superop.apply_liouvillian, superop.apply_adjoint],
                             ids=["liouvillian", "adjoint"])
    def test_stack_equals_per_node_calls(self, rng, fn, dim):
        s = random_model(rng, dim).snapshot(0.0)
        stack = np.stack([random_hermitian(rng, dim) for _ in range(7)])
        out = fn(s, stack)
        assert out.shape == stack.shape
        for a, row in zip(stack, out):
            assert_allclose(row, fn(s, a), rtol=0, atol=1e-15 * max(1.0, linalg.maxabs(row)))

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            superop.apply_adjoint(amp_damp_snapshot(), np.zeros((4, 3, 3)))


def random_operator(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def assert_matches_reference(s, h, channels, x):
    for fn, ref in ((superop.apply_liouvillian, reference_liouvillian),
                    (superop.apply_adjoint, reference_adjoint)):
        want = ref(h, channels, x)
        got = fn(s, x)
        assert linalg.maxabs(got - want) <= 1e-13 * max(1.0, linalg.maxabs(want))


class TestEffectiveHamiltonianForm:
    """The K-form generators against the commutator/anticommutator form on
    non-Hermitian inputs, which the step-matrix build feeds them."""

    @pytest.mark.parametrize("n_channels", [0, 1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 5, 13])
    def test_constant_model(self, rng, dim, n_channels):
        h = random_hermitian(rng, dim)
        channels = [(random_operator(rng, dim), float(rng.uniform(0.1, 1.0)))
                    for _ in range(n_channels)]
        s = LindbladModel(dim, h, channels).snapshot(0.0)
        assert s.k0 is not None
        assert_matches_reference(s, h, channels, random_operator(rng, dim))

    @pytest.mark.parametrize("dim", [1, 2, 5, 13])
    def test_scaled_hamiltonian_with_tabulated_rate(self, rng, dim):
        # a time-dependent rate leaves K0 unshared: K is built from the channels per call
        m_op = random_hermitian(rng, dim)
        l = random_operator(rng, dim)
        rate = tabulated([0.0, 1.0, 2.0], [0.2, 0.9, 0.4])
        m = LindbladModel(dim, scaled(sinusoidal(1.0, 0.3, 2.0), m_op), [(l, rate)])
        lattice = m.on_grid(TimeGrid(0.0, 2.0, 4))
        assert lattice.k0 is None
        k = lattice.effective_hamiltonian()
        for j, t in enumerate(0.25 * np.arange(9)):
            s = m.snapshot(t)
            assert k[j].tobytes() == s.effective_hamiltonian().tobytes()
            c = 1.0 + 0.3 * np.sin(2.0 * t)
            assert_matches_reference(s, c * m_op, [(l, rate(t))], random_operator(rng, dim))


class TestPairing:
    def test_identity_both_sides_zero(self, rng):
        s = random_model(rng, 3).snapshot(0.0)
        rho = random_density(rng, 3)
        assert pairing_defect(s, linalg.identity(3), rho) <= 1e-13

    def test_hand_computed_value(self):
        # tr(sz L(rho)) = tr(diag(1,-1) diag(i,-i)) = 2i on both sides
        s = amp_damp_snapshot(0.5)
        lhs = np.trace(SZ @ superop.apply_liouvillian(s, EXCITED))
        rhs = np.trace(superop.apply_adjoint(s, SZ) @ EXCITED)
        assert lhs == pytest.approx(2j)
        assert rhs == pytest.approx(2j)
        assert pairing_defect(s, SZ, EXCITED) <= 1e-14

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_pairing_random(self, seed, dim):
        rng = np.random.default_rng(seed)
        s = random_model(rng, dim).snapshot(0.0)
        a = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        scale = max(1.0, float(np.linalg.norm(a) * np.linalg.norm(rho)))
        assert pairing_defect(s, a, rho) <= 1e-12 * scale


class TestGeneratorProperties:
    def test_trace_preservation(self, rng):
        for dim in range(2, 9):
            s = random_model(rng, dim).snapshot(0.0)
            rho = random_density(rng, dim)
            assert abs(np.trace(superop.apply_liouvillian(s, rho))) <= 1e-13

    def test_hermiticity_propagation(self, rng):
        for dim in range(2, 9):
            s = random_model(rng, dim).snapshot(0.0)
            rho = random_density(rng, dim)
            a = random_hermitian(rng, dim)
            assert linalg.hermiticity_defect(1j * superop.apply_liouvillian(s, rho)) <= 1e-12
            assert linalg.hermiticity_defect(1j * superop.apply_adjoint(s, a)) <= 1e-12

    def test_shift_property(self, rng):
        for i in range(50):
            dim = 2 + i % 7
            s = random_model(rng, dim).snapshot(0.0)
            a = random_hermitian(rng, dim)
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3) if i % 2 else 0.0)
            diff = superop.apply_adjoint(s, a + c * linalg.identity(dim)) - superop.apply_adjoint(s, a)
            assert linalg.maxabs(diff) <= 1e-13 * max(1.0, linalg.maxabs(a) + abs(c))


class TestVectorizedLiouvillian:
    def test_empty_model_is_zero(self):
        s = LindbladModel(2, np.zeros((2, 2))).snapshot(0.0)
        m = superop.build_liouvillian_matrix(s)
        assert_allclose(m, np.zeros((4, 4)))

    def test_amplitude_damping_vector(self):
        m = superop.build_liouvillian_matrix(amp_damp_snapshot(0.5))
        out = m @ superop.vec(EXCITED)
        assert_allclose(out, superop.vec(np.diag([1j, -1j])), atol=1e-15)

    def test_matches_direct_application(self, rng):
        for dim in (2, 3, 5):
            s = random_model(rng, dim).snapshot(0.0)
            m = superop.build_liouvillian_matrix(s)
            for _ in range(5):
                rho = random_density(rng, dim)
                direct = superop.apply_liouvillian(s, rho)
                vectorized = superop.unvec(m @ superop.vec(rho), dim)
                assert linalg.maxabs(vectorized - direct) <= 1e-12 * max(1.0, linalg.maxabs(direct))

    def test_trace_preservation_rows(self, rng):
        m = superop.build_liouvillian_matrix(amp_damp_snapshot(0.5))
        for _ in range(20):
            rho = random_density(rng, 2)
            assert abs(np.trace(superop.unvec(m @ superop.vec(rho), 2))) <= 1e-13

    def test_vec_unvec_round_trip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert_allclose(superop.unvec(superop.vec(a), 3), a)

    def test_column_stacking_convention(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert_allclose(superop.vec(a), [1, 3, 2, 4])
