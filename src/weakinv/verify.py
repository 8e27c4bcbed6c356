"""Randomized property suites run by ``weakinv verify``.

Each check draws seeded random instances, measures the worst normalized
defect, and compares it against a fixed tolerance. The suites cover the
algebraic identities of the generator pair (pairing, shift invariance,
trace preservation, Hermiticity propagation, unitary limit), the vectorized
form, the eigensolver, expectation-value conservation along integrated
trajectories, and the discrete gauge-shift identity.

``break_adjoint=True`` swaps in a deliberately corrupted adjoint as a
negative control; the pairing suite must then fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, superop
from .action import DiscretizedPath, gauge_shift_check
from .dynamics import TimeGrid, conservation_series, integrate_invariant, integrate_state
from .model import LindbladModel, sinusoidal, tabulated

__all__ = [
    "PropertyResult",
    "run_all",
    "random_hermitian",
    "random_density",
    "random_model",
    "check_pairing",
    "check_shift",
]

DIMS = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst_defect: float
    tolerance: float
    trials: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "worst_defect": float(self.worst_defect),
            "tolerance": self.tolerance,
            "trials": self.trials,
        }


def random_hermitian(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    return h / max(1.0, linalg.maxabs(h))


def random_density(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho = linalg.hermitize(rho / np.trace(rho).real)
    return rho


def random_model(rng, dim: int, *, time_dependent: bool = False) -> LindbladModel:
    """Random valid model: Hermitian H, 1-2 channels with maxabs-normalized
    jump operators and rates in [0.1, 1] (strictly positive so corruption of
    the dissipator is detectable)."""
    h = random_hermitian(rng, dim)
    channels = []
    for _ in range(int(rng.integers(1, 3))):
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        l = l / max(1.0, linalg.maxabs(l))
        if time_dependent:
            alpha = sinusoidal(0.3, 0.2, float(rng.uniform(0.5, 2.0)),
                               float(rng.uniform(0.0, 6.28)))
        else:
            alpha = float(rng.uniform(0.1, 1.0))
        channels.append((l, alpha))
    return LindbladModel(dim, h, channels)


def _broken_adjoint(s, a):
    """The K-form adjoint with each jump weight 2i alpha corrupted to
    (2i + 1e-3) alpha."""
    k = s.effective_hamiltonian()
    out = a @ k - k.conj().T @ a
    for ch in s.channels:
        out += ((2j + 1e-3) * ch.alpha) * (ch.l_dag @ a @ ch.l)
    return out


def check_pairing(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """|tr(a L(rho)) - tr(L*(a) rho)| <= 1e-12 * max(1, ||a|| ||rho||)."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        m = random_model(rng, dim)
        s = m.snapshot(0.0)
        a = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        lhs = np.einsum("jk,kj->", a, superop.apply_liouvillian(s, rho))
        rhs = np.einsum("jk,kj->", adjoint_fn(s, a), rho)
        scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(rho)))
        worst = max(worst, abs(lhs - rhs) / scale)
    tol = 1e-12
    return PropertyResult("adjoint_pairing", worst <= tol, worst, tol, trials)


def check_shift(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """L*(a + c) = L*(a) entrywise within 1e-13 * max(1, ||a|| + |c|), for real
    and complex c."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        m = random_model(rng, dim)
        s = m.snapshot(0.0)
        a = random_hermitian(rng, dim)
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3) if i % 2 else 0.0)
        shifted = adjoint_fn(s, a + c * linalg.identity(dim))
        base = adjoint_fn(s, a)
        scale = max(1.0, linalg.maxabs(a) + abs(c))
        worst = max(worst, linalg.maxabs(shifted - base) / scale)
    tol = 1e-13
    return PropertyResult("shift_invariance", worst <= tol, worst, tol, trials)


def check_adjoint_of_identity(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """L*(identity) vanishes termwise."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        s = random_model(rng, dim).snapshot(0.0)
        worst = max(worst, linalg.maxabs(adjoint_fn(s, linalg.identity(dim))))
    tol = 1e-14
    return PropertyResult("adjoint_of_identity", worst <= tol, worst, tol, trials)


def check_trace_preservation(rng, trials: int) -> PropertyResult:
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        s = random_model(rng, dim).snapshot(0.0)
        rho = random_density(rng, dim)
        worst = max(worst, abs(np.trace(superop.apply_liouvillian(s, rho))))
    tol = 1e-13
    return PropertyResult("trace_preservation", worst <= tol, worst, tol, trials)


def check_hermiticity_propagation(rng, trials: int) -> PropertyResult:
    """i L(rho) and i L*(a) stay Hermitian on Hermitian inputs."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        s = random_model(rng, dim).snapshot(0.0)
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        worst = max(worst, linalg.hermiticity_defect(1j * superop.apply_liouvillian(s, rho)))
        worst = max(worst, linalg.hermiticity_defect(1j * superop.apply_adjoint(s, a)))
    tol = 1e-12
    return PropertyResult("hermiticity_propagation", worst <= tol, worst, tol, trials)


def check_unitary_limit(rng, trials: int) -> PropertyResult:
    """With all rates zero, L*(a) = -L(a) for Hermitian a."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        h = random_hermitian(rng, dim)
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = LindbladModel(dim, h, [(l, 0.0)]).snapshot(0.0)
        a = random_hermitian(rng, dim)
        worst = max(
            worst,
            linalg.maxabs(superop.apply_adjoint(s, a) + superop.apply_liouvillian(s, a)),
        )
    tol = 1e-13
    return PropertyResult("unitary_limit", worst <= tol, worst, tol, trials)


def check_liouvillian_matrix(rng, trials: int) -> PropertyResult:
    """M vec(rho) agrees with the direct generator application."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        s = random_model(rng, dim).snapshot(0.0)
        rho = random_density(rng, dim)
        m = superop.build_liouvillian_matrix(s)
        direct = superop.apply_liouvillian(s, rho)
        scale = max(1.0, linalg.maxabs(direct))
        vectorized = superop.unvec(m @ superop.vec(rho), dim)
        worst = max(worst, linalg.maxabs(vectorized - direct) / scale)
    tol = 1e-12
    return PropertyResult("liouvillian_matrix", worst <= tol, worst, tol, trials)


def check_eigensolver_invariance(rng, trials: int) -> PropertyResult:
    """Spectra are invariant under random unitary conjugation."""
    worst = 0.0
    for i in range(trials):
        dim = DIMS[i % len(DIMS)]
        a = random_hermitian(rng, dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = linalg.hermitize(q @ a @ q.conj().T)
        diff = linalg.hermitian_eigenvalues(a) - linalg.hermitian_eigenvalues(rotated)
        worst = max(worst, float(np.max(np.abs(diff))))
    tol = 1e-10
    return PropertyResult("eigensolver_unitary_invariance", worst <= tol, worst, tol, trials)


def check_conservation(rng, trials: int, *, n_steps: int = 400) -> PropertyResult:
    """<I>(t) stays at its initial value along integrated pairs (RK4)."""
    worst = 0.0
    grid = TimeGrid(0.0, 1.0, n_steps)
    for i in range(trials):
        dim = 2 + (i % 5)  # dims 2..6 keep the adjoint growth moderate
        m = random_model(rng, dim, time_dependent=bool(i % 2))
        rho0 = random_density(rng, dim)
        seed = random_hermitian(rng, dim)
        state, _ = integrate_state(m, rho0, grid)
        inv = integrate_invariant(m, seed, "start", grid)
        series = conservation_series(inv, state)
        scale = max(1.0, float(np.max(np.abs(series))))
        worst = max(worst, float(np.max(np.abs(series - series[0]))) / scale)
    tol = 1e-7
    return PropertyResult("expectation_conservation", worst <= tol, worst, tol, trials)


def check_gauge_exactness(rng, trials: int, *, n_steps: int = 200) -> PropertyResult:
    """Gauge-shift identity defect <= 1e-11 (1 + max|lambda|) on solution paths."""
    worst = 0.0
    grid = TimeGrid(0.0, 1.0, n_steps)
    for _ in range(trials):
        m = random_model(rng, 2)
        rho0 = random_density(rng, 2)
        lam_f = random_hermitian(rng, 2)
        state, _ = integrate_state(m, rho0, grid)
        lam = integrate_invariant(m, lam_f, "end", grid)
        path = DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples)
        knots = np.linspace(grid.t_start, grid.t_end, 7)
        values = rng.uniform(-2.0, 2.0, size=7)
        sched = tabulated(knots, list(values), name="lambda")
        defect = gauge_shift_check(path, m, sched)
        worst = max(worst, defect / (1.0 + float(np.max(np.abs(values)))))
    tol = 1e-11
    return PropertyResult("gauge_shift_exactness", worst <= tol, worst, tol, trials)


def run_all(seed: int, trials: int, *, break_adjoint: bool = False) -> list[PropertyResult]:
    """All property suites with one seeded generator; integration-heavy suites
    scale their draw counts down."""
    rng = np.random.default_rng(seed)
    adjoint_fn = _broken_adjoint if break_adjoint else superop.apply_adjoint
    heavy = max(2, trials // 25)
    return [
        check_pairing(rng, trials, adjoint_fn=adjoint_fn),
        check_shift(rng, trials, adjoint_fn=adjoint_fn),
        check_adjoint_of_identity(rng, trials, adjoint_fn=adjoint_fn),
        check_trace_preservation(rng, trials),
        check_hermiticity_propagation(rng, trials),
        check_unitary_limit(rng, trials),
        check_liouvillian_matrix(rng, trials),
        check_eigensolver_invariance(rng, trials),
        check_conservation(rng, heavy),
        check_gauge_exactness(rng, max(2, trials // 10)),
    ]
