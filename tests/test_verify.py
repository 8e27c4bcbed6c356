import numpy as np
import pytest

from weakinv import linalg, verify
from weakinv.dynamics import TimeGrid


def test_random_density_is_valid(rng):
    for dim in (2, 5, 8):
        rho = verify.random_density(rng, dim)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert linalg.hermiticity_defect(rho) <= 1e-14
        assert linalg.hermitian_eigenvalues(rho)[0] >= -1e-14


def test_random_model_validates(rng):
    for dim in (2, 4, 7):
        m = verify.random_model(rng, dim, time_dependent=True)
        lattice = m.on_grid(TimeGrid(0.0, 5.0, 5))  # t = 0, 0.5, ..., 5
        assert all(ch.alpha.shape == (11, 1, 1) and np.all(ch.alpha >= 0.0)
                   for ch in lattice.channels)


def test_run_all_passes_and_is_reproducible():
    a = verify.run_all(seed=5, trials=12)
    b = verify.run_all(seed=5, trials=12)
    assert all(r.passed for r in a)
    assert [r.worst_defect for r in a] == [r.worst_defect for r in b]


def test_break_adjoint_fails_pairing():
    results = verify.run_all(seed=5, trials=12, break_adjoint=True)
    by_name = {r.name: r for r in results}
    assert not by_name["adjoint_pairing"].passed
    assert by_name["adjoint_pairing"].worst_defect > by_name["adjoint_pairing"].tolerance
    # untouched generator-side properties still pass
    assert by_name["trace_preservation"].passed
    assert by_name["liouvillian_matrix"].passed
