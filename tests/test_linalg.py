import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from helpers import SMINUS, SX, SY, SZ, expectation, hermitian_basis, random_hermitian
from weakinv import config, linalg
from weakinv.action import DiscretizedPath
from weakinv.dynamics import TimeGrid
from weakinv.errors import NotHermitianError


class TestDagger:
    def test_sigma_minus(self):
        assert_allclose(linalg.dagger(SMINUS), np.array([[0, 0], [1, 0]]))

    def test_involution(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert_allclose(linalg.dagger(linalg.dagger(a)), a)

    def test_diagonal_conjugation(self):
        assert_allclose(linalg.dagger(np.diag([1j, -1j])), np.diag([-1j, 1j]))


class TestTrace:
    def test_identity(self):
        assert linalg.trace(linalg.identity(4)) == 4.0

    def test_commutator_traceless(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        scale = linalg.maxabs(a) * linalg.maxabs(b)
        assert abs(linalg.trace(a @ b - b @ a)) <= 1e-12 * scale

    def test_normalized_density(self):
        assert linalg.trace(np.diag([0.3, 0.7])) == pytest.approx(1.0)

    def test_cyclicity(self, rng):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        scale = max(1.0, linalg.maxabs(a) * linalg.maxabs(b))
        assert abs(linalg.trace(a @ b) - linalg.trace(b @ a)) <= 1e-12 * scale


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a† b) from the package's own pieces."""
    return expectation(linalg.dagger(a), b)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(linalg.identity(2), linalg.identity(2)) == 2.0

    def test_orthogonal_paulis(self):
        assert hs_inner(SZ, SX) == 0.0

    def test_sigma_minus_norm(self):
        assert hs_inner(SMINUS, SMINUS) == 1.0

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_conjugate_symmetry(self, seed, dim):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = hs_inner(a, b)
        rhs = np.conj(hs_inner(b, a))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sesquilinearity(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(hs_inner(a, c * b) - c * hs_inner(a, b)) <= 1e-12 * abs(c) * 10
        assert abs(hs_inner(c * a, b) - np.conj(c) * hs_inner(a, b)) <= 1e-12 * abs(c) * 10

    def test_positive_definite(self, rng):
        for dim in range(1, 9):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert hs_inner(a, a).real > 0
        z = np.zeros((3, 3))
        assert hs_inner(z, z) == 0.0


class TestExpectation:
    def test_excited_state(self):
        excited = np.diag([0.0, 1.0])
        assert expectation(SZ, excited) == -1.0

    def test_normalization(self, rng):
        from helpers import random_density

        rho = random_density(rng, 4)
        assert expectation(linalg.identity(4), rho) == pytest.approx(1.0, abs=1e-14)

    def test_traceless_on_mixed(self):
        assert expectation(SX, 0.5 * linalg.identity(2)) == 0.0


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert_allclose(linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_sigma_x(self):
        # characteristic polynomial lambda^2 - 1
        assert_allclose(linalg.hermitian_eigenvalues(SX), [-1.0, 1.0], atol=1e-14)

    def test_rank_one_projector(self):
        proj = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        assert_allclose(linalg.hermitian_eigenvalues(proj), [0.0, 1.0], atol=1e-14)

    def test_against_lapack(self, rng):
        for dim in (1, 2, 3, 5, 8, 13, 16):
            a = random_hermitian(rng, dim, amp=float(rng.uniform(0.5, 5.0)))
            mine = linalg.hermitian_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)
            assert_allclose(mine, ref, atol=1e-11 * max(1.0, linalg.maxabs(a)))

    def test_unitary_invariance(self, rng):
        # U from matrix exponentials of random anti-Hermitian generators
        for dim in (2, 4, 7):
            a = random_hermitian(rng, dim)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u = scipy.linalg.expm((g - g.conj().T) / 2.0)
            rotated = u @ a @ u.conj().T
            diff = linalg.hermitian_eigenvalues(a) - linalg.hermitian_eigenvalues(
                linalg.hermitize(rotated)
            )
            assert np.max(np.abs(diff)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError, match="defect"):
            linalg.hermitian_eigenvalues(SMINUS)

    def test_near_degenerate(self):
        a = np.diag([1.0, 1.0 + 1e-12, 2.0])
        assert_allclose(linalg.hermitian_eigenvalues(a), [1.0, 1.0 + 1e-12, 2.0], rtol=0, atol=1e-14)


class TestNonFiniteInput:
    """A NaN or inf entry fails the Hermiticity gate: it fails every
    comparison with the tolerance, and eigvalsh would read one triangle."""

    @pytest.mark.parametrize("entry, value", [((0, 1), np.nan), ((0, 1), np.inf),
                                              ((1, 1), np.inf), ((0, 0), complex(0, np.nan))])
    def test_one_operator(self, entry, value):
        a = np.eye(2, dtype=complex)
        a[entry] = value
        with pytest.raises(NotHermitianError, match="non-finite entry"):
            linalg.check_hermitian(a)
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eigenvalues(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stack_names_the_node(self, value):
        stack = np.stack([np.eye(3, dtype=complex)] * 6)
        stack[4, 2, 0] = value
        with pytest.raises(NotHermitianError, match=r"lam\[4\] at node 4 .*non-finite"):
            linalg.check_hermitian(stack, what="lam")
        with pytest.raises(NotHermitianError, match="node 4"):
            linalg.hermitian_eigenvalues(stack)
        with pytest.raises(NotHermitianError, match=r"lam\[4\] at node 4"):
            DiscretizedPath(grid=TimeGrid(0.0, 1.0, 5), rho=np.ones_like(stack), lam=stack)


class TestHermitianBasis:
    def test_spans(self):
        for dim in (2, 3):
            basis = hermitian_basis(dim)
            assert len(basis) == dim * dim
            for e in basis:
                assert linalg.hermiticity_defect(e) == 0.0
            stacked = np.stack([e.reshape(-1) for e in basis])
            assert np.linalg.matrix_rank(stacked) == dim * dim


class TestMatrixLiteral:
    def test_round_trip(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        literal = [[v.real, v.imag] for v in a.reshape(-1)]
        assert_allclose(config.matrix(literal, "m"), a)

    def test_dimension_inference(self):
        m = config.matrix([[1, 0], [0, 0], [0, 0], [-1, 0]], "m")
        assert_allclose(m, SZ)

    def test_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            config.matrix([[1, 0], [0, 0], [0, 0]], "m")

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="pair"):
            config.matrix([[1, 0], [0, 0], [0, 0], [1]], "m")
        with pytest.raises(ValueError, match=r"^m\[3\]\[0\] must be a finite number, got 'x'$"):
            config.matrix([[1, 0], [0, 0], [0, 0], ["x", 0]], "m")
