"""Randomized property suites run by ``weakinv verify``.

Each check draws seeded random instances through one trial loop,
``_suite``: trial i measures one normalized defect at dimension
``dims[i % len(dims)]``, the worst is kept with ``np.maximum`` and compared
against a fixed tolerance. A NaN or infinite defect is therefore the worst
and fails its suite; the report writes it as null. The suites cover the
algebraic identities of the generator pair (pairing, shift invariance,
trace preservation, Hermiticity propagation, unitary limit), the vectorized
form, the eigensolver, expectation-value conservation along integrated
trajectories, and the discrete gauge-shift identity.

``break_adjoint=True`` swaps in a deliberately corrupted adjoint as a
negative control; the pairing suite must then fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, superop
from .action import _flow_path, gauge_shift_check
from .dynamics import TimeGrid, conservation_series, invariant_flow, state_flow
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
CONSERVATION_GRID = TimeGrid(0.0, 1.0, 400)  # the integrated pairs' grid, per suite
GAUGE_GRID = TimeGrid(0.0, 1.0, 200)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst_defect: float
    tolerance: float
    trials: int

    def to_dict(self) -> dict:
        """Strict JSON has no NaN or infinity: a non-finite defect is null."""
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "worst_defect": float(self.worst_defect) if math.isfinite(self.worst_defect) else None,
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


def _snapshot(rng, dim: int):
    return random_model(rng, dim).snapshot(0.0)


def _suite(name: str, tol: float, trials: int, defect, dims=DIMS) -> PropertyResult:
    """The one trial loop of every suite (see the module docstring)."""
    worst = 0.0
    for i in range(trials):
        worst = float(np.maximum(worst, defect(i, dims[i % len(dims)])))
    return PropertyResult(name, worst <= tol, worst, tol, trials)


def check_pairing(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """|tr(a L(rho)) - tr(L*(a) rho)| <= 1e-12 * max(1, ||a|| ||rho||)."""
    def defect(i, dim):
        s = _snapshot(rng, dim)
        a = random_hermitian(rng, dim)
        rho = random_density(rng, dim)
        lhs = np.einsum("jk,kj->", a, superop.apply_liouvillian(s, rho))
        rhs = np.einsum("jk,kj->", adjoint_fn(s, a), rho)
        scale = max(1.0, float(np.linalg.norm(a)) * float(np.linalg.norm(rho)))
        return abs(lhs - rhs) / scale
    return _suite("adjoint_pairing", 1e-12, trials, defect)


def check_shift(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """L*(a + c) = L*(a) entrywise within 1e-13 * max(1, ||a|| + |c|), for real
    and complex c."""
    def defect(i, dim):
        s = _snapshot(rng, dim)
        a = random_hermitian(rng, dim)
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3) if i % 2 else 0.0)
        shifted = adjoint_fn(s, a + c * linalg.identity(dim))
        base = adjoint_fn(s, a)
        scale = max(1.0, linalg.maxabs(a) + abs(c))
        return linalg.maxabs(shifted - base) / scale
    return _suite("shift_invariance", 1e-13, trials, defect)


def check_adjoint_of_identity(rng, trials: int, *, adjoint_fn=superop.apply_adjoint) -> PropertyResult:
    """L*(identity) vanishes termwise."""
    def defect(i, dim):
        return linalg.maxabs(adjoint_fn(_snapshot(rng, dim), linalg.identity(dim)))
    return _suite("adjoint_of_identity", 1e-14, trials, defect)


def check_trace_preservation(rng, trials: int) -> PropertyResult:
    def defect(i, dim):
        s = _snapshot(rng, dim)
        rho = random_density(rng, dim)
        return abs(np.trace(superop.apply_liouvillian(s, rho)))
    return _suite("trace_preservation", 1e-13, trials, defect)


def check_hermiticity_propagation(rng, trials: int) -> PropertyResult:
    """i L(rho) and i L*(a) stay Hermitian on Hermitian inputs."""
    def defect(i, dim):
        s = _snapshot(rng, dim)
        rho = random_density(rng, dim)
        a = random_hermitian(rng, dim)
        return np.maximum(linalg.hermiticity_defect(1j * superop.apply_liouvillian(s, rho)),
                          linalg.hermiticity_defect(1j * superop.apply_adjoint(s, a)))
    return _suite("hermiticity_propagation", 1e-12, trials, defect)


def check_unitary_limit(rng, trials: int) -> PropertyResult:
    """With all rates zero, L*(a) = -L(a) for Hermitian a."""
    def defect(i, dim):
        h = random_hermitian(rng, dim)
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        s = LindbladModel(dim, h, [(l, 0.0)]).snapshot(0.0)
        a = random_hermitian(rng, dim)
        return linalg.maxabs(superop.apply_adjoint(s, a) + superop.apply_liouvillian(s, a))
    return _suite("unitary_limit", 1e-13, trials, defect)


def check_liouvillian_matrix(rng, trials: int) -> PropertyResult:
    """M vec(rho) agrees with the direct generator application."""
    def defect(i, dim):
        s = _snapshot(rng, dim)
        rho = random_density(rng, dim)
        m = superop.build_liouvillian_matrix(s)
        direct = superop.apply_liouvillian(s, rho)
        scale = max(1.0, linalg.maxabs(direct))
        vectorized = superop.unvec(m @ superop.vec(rho), dim)
        return linalg.maxabs(vectorized - direct) / scale
    return _suite("liouvillian_matrix", 1e-12, trials, defect)


def check_eigensolver_invariance(rng, trials: int) -> PropertyResult:
    """Spectra are invariant under random unitary conjugation."""
    def defect(i, dim):
        a = random_hermitian(rng, dim)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        rotated = linalg.hermitize(q @ a @ q.conj().T)
        diff = linalg.hermitian_eigenvalues(a) - linalg.hermitian_eigenvalues(rotated)
        return float(np.max(np.abs(diff)))
    return _suite("eigensolver_unitary_invariance", 1e-10, trials, defect)


def check_conservation(rng, trials: int) -> PropertyResult:
    """<I>(t) stays at its initial value along integrated pairs (RK4)."""
    def defect(i, dim):
        m = random_model(rng, dim, time_dependent=bool(i % 2))
        rho0 = random_density(rng, dim)
        seed = random_hermitian(rng, dim)
        state, run = state_flow(m, rho0, CONSERVATION_GRID)
        inv, run_inv = invariant_flow(m, seed, "start", CONSERVATION_GRID)
        run()
        run_inv()
        series = conservation_series(inv, state)
        scale = max(1.0, float(np.max(np.abs(series))))
        return float(np.max(np.abs(series - series[0]))) / scale
    # dims 2..6 keep the adjoint growth moderate
    return _suite("expectation_conservation", 1e-7, trials, defect, dims=(2, 3, 4, 5, 6))


def check_gauge_exactness(rng, trials: int) -> PropertyResult:
    """Gauge-shift identity defect <= 1e-11 (1 + max|lambda|) on solution paths."""
    def defect(i, dim):
        m = random_model(rng, dim)
        rho0 = random_density(rng, dim)
        lam_f = random_hermitian(rng, dim)
        state, run = state_flow(m, rho0, GAUGE_GRID)
        lam, run_lam = invariant_flow(m, lam_f, "end", GAUGE_GRID)
        run()
        run_lam()
        path = _flow_path(state, lam)
        knots = np.linspace(GAUGE_GRID.t_start, GAUGE_GRID.t_end, 7)
        values = rng.uniform(-2.0, 2.0, size=7)
        sched = tabulated(knots, list(values), name="lambda")
        return gauge_shift_check(path, m, sched) / (1.0 + float(np.max(np.abs(values))))
    return _suite("gauge_shift_exactness", 1e-11, trials, defect, dims=(2,))


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
