"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Expected values marked as derived come from the closed-form oracles
in helpers.py (scalar ODEs and exact unitary conjugation), computed
independently of the integrators under test.
"""

import math

import numpy as np
import pytest

from helpers import (SMINUS, SZ, auxiliary_trajectory, expectation, hermitian_basis,
                     integrate_invariant, integrate_state, random_hermitian, stationarity_check)
from weakinv import action, invariant, linalg, scenarios, verify
from weakinv.dynamics import TimeGrid, conservation_series
from weakinv.model import LindbladModel, tabulated

EXCITED = np.diag([0.0, 1.0]).astype(complex)


def report(num, name, ok, detail):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def amp_damp_run():
    """Amplitude-damping qubit (omega=1, gamma=0.5), rho0 = |1><1|,
    I(0) = sigma_z, t in [0, 3] at dt = 1e-3, RK4."""
    spec = scenarios.amplitude_damping_qubit(1.0, 0.5)
    grid = TimeGrid(0.0, 3.0, 3000)
    state, monitors = integrate_state(spec.model, EXCITED, grid)
    inv = integrate_invariant(spec.model, SZ, "start", grid)
    return spec.model, grid, state, inv, monitors


def test_criterion_1_adjoint_pairing():
    rng = np.random.default_rng(42)
    result = verify.check_pairing(rng, 200)
    report(
        1,
        "adjoint pairing over 200 random instances, dims 2-8",
        result.worst_defect <= 1e-12,
        f"worst normalized defect {result.worst_defect:.3e} <= 1e-12",
    )


def test_criterion_2_shift_property():
    rng = np.random.default_rng(43)
    shift = verify.check_shift(rng, 50)
    ident = verify.check_adjoint_of_identity(rng, 50)
    ok = shift.worst_defect <= 1e-13 and ident.worst_defect <= 1e-14
    report(
        2,
        "c-number shift invariance of the adjoint generator",
        ok,
        f"shift defect {shift.worst_defect:.3e} <= 1e-13, "
        f"identity image {ident.worst_defect:.3e} <= 1e-14",
    )


def test_criterion_3_conservation(amp_damp_run):
    _, _, state, inv, _ = amp_damp_run
    series = conservation_series(inv, state)
    # closed forms: p1 = e^{-2 gamma t}, I = diag(1, 1 - 2 e^{2 gamma t}),
    # so <I>(t) = -1 identically
    drift = float(np.max(np.abs(series - (-1.0))))
    report(3, "expectation conservation at the derived value -1",
           drift <= 1e-8, f"max deviation {drift:.3e} <= 1e-8")


def test_criterion_4_spectrum_dichotomy(amp_damp_run):
    model, grid, state, inv, _ = amp_damp_run
    # t = 1 is node 1000 on this grid
    low = linalg.hermitian_eigenvalues(inv.samples[1000])[0]
    expected = 1.0 - 2.0 * math.e
    weak_ok = abs(low - expected) <= 1e-6

    unitary = scenarios.amplitude_damping_qubit(1.0, 0.0)
    inv0 = integrate_invariant(unitary.model, SZ, "start", grid)
    tv = float(np.max(invariant.spectrum_series(inv0).total_variation))
    strong_ok = tv <= 1e-8
    report(
        4,
        "weak vs strong spectrum dichotomy",
        weak_ok and strong_ok,
        f"lower eigenvalue at t=1: {low:.9f} vs {expected:.9f}; "
        f"gamma=0 total variation {tv:.3e} <= 1e-8",
    )


def test_criterion_5_trace_positivity(amp_damp_run):
    _, _, state, _, monitors = amp_damp_run
    trace_err = max(abs(linalg.trace(s).real - 1.0) for s in state.samples)
    ok = trace_err <= 1e-10 and monitors.min_eigenvalue >= -1e-8
    report(
        5,
        "trace and positivity health",
        ok,
        f"max |tr rho - 1| = {trace_err:.3e} <= 1e-10, "
        f"min eigenvalue {monitors.min_eigenvalue:.3e} >= -1e-8",
    )


def test_criterion_6_stationarity_convergence():
    model = scenarios.amplitude_damping_qubit(1.0, 0.5).model
    steps = (250, 500, 1000, 2000)
    reports = {
        n: stationarity_check(model, EXCITED, SZ, TimeGrid(0.0, 1.0, n))
        for n in steps
    }
    dts = np.log([1.0 / n for n in steps])
    slope_rho = float(np.polyfit(dts, np.log([reports[n].grad_rho_residual for n in steps]), 1)[0])
    slope_lam = float(np.polyfit(dts, np.log([reports[n].grad_lam_residual for n in steps]), 1)[0])
    boundary_ok = (
        reports[1000].boundary_rho_term <= 1e-8 and reports[1000].boundary_lam_term <= 1e-8
    )
    ok = 1.6 <= slope_rho <= 2.4 and 1.6 <= slope_lam <= 2.4 and boundary_ok
    report(
        6,
        "discrete action stationarity",
        ok,
        f"residual slopes {slope_rho:.2f}/{slope_lam:.2f} in [1.6, 2.4]; boundary "
        f"pairing defects {reports[1000].boundary_rho_term:.2e}, "
        f"{reports[1000].boundary_lam_term:.2e} <= 1e-8",
    )


def test_criterion_7_finite_difference_gradients():
    model = scenarios.amplitude_damping_qubit(1.0, 0.5).model
    rng = np.random.default_rng(1234)
    grid = TimeGrid(0.0, 1.0, 50)
    eps = 1e-6
    basis = hermitian_basis(2)
    worst = 0.0
    for _ in range(10):
        path = action.DiscretizedPath(
            grid=grid,
            rho=[random_hermitian(rng, 2, 0.4) for _ in range(51)],
            lam=[random_hermitian(rng, 2, 0.4) for _ in range(51)],
        )
        for which, grads in (("rho", action.grad_rho(path, model)),
                             ("lam", action.grad_lam(path, model))):
            diff, scale = 0.0, 0.0
            for k in (0, int(rng.integers(1, 50)), 50):
                for e in basis:
                    base = list(path.rho if which == "rho" else path.lam)
                    plus, minus = list(base), list(base)
                    plus[k] = base[k] + eps * e
                    minus[k] = base[k] - eps * e
                    if which == "rho":
                        pp = action.DiscretizedPath(grid=grid, rho=plus, lam=path.lam)
                        pm = action.DiscretizedPath(grid=grid, rho=minus, lam=path.lam)
                    else:
                        pp = action.DiscretizedPath(grid=grid, rho=path.rho, lam=plus)
                        pm = action.DiscretizedPath(grid=grid, rho=path.rho, lam=minus)
                    fd = (action.evaluate_action(pp, model)
                          - action.evaluate_action(pm, model)) / (2 * eps)
                    an = float(np.einsum("jk,kj->", grads[k], e).real)
                    diff = max(diff, abs(fd - an))
                    scale = max(scale, abs(an), abs(fd))
            worst = max(worst, diff / max(scale, 1e-12))
    report(7, "finite-difference gradient oracle on 10 random paths",
           worst <= 1e-8, f"worst relative mismatch {worst:.3e} <= 1e-8")


def test_criterion_8_gauge_shift_identity():
    model = scenarios.amplitude_damping_qubit(1.0, 0.5).model
    grid = TimeGrid(0.0, 1.0, 500)
    state, _ = integrate_state(model, EXCITED, grid)
    lam = integrate_invariant(model, SZ, "end", grid)
    path = action.DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples)

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        knots = np.linspace(0.0, 1.0, 8)
        values = rng.uniform(-2.0, 2.0, size=8)
        defect = action.gauge_shift_check(path, model, tabulated(knots, list(values)))
        worst = max(worst, defect / (1e-11 * (1.0 + float(np.max(np.abs(values))))))

    # synthetic non-normalized path: both sides of the identity are nonzero
    rho = [s.copy() for s in path.rho]
    for k in range(250, 501):
        rho[k] = 1.1 * rho[k]
    broken = action.DiscretizedPath(grid=grid, rho=rho, lam=path.lam)
    values = rng.uniform(0.5, 1.5, size=8)
    sched = tabulated(np.linspace(0.0, 1.0, 8), list(values))
    rhs = sum(
        grid.dt * float(sched(grid.midpoints()[k]))
        * (0.5 * (np.trace(rho[k]) + np.trace(rho[k + 1])).real - 1.0)
        for k in range(500)
    )
    defect = action.gauge_shift_check(broken, model, sched)
    nonzero_ok = abs(rhs) > 1e-3
    broken_ok = defect <= 1e-11 * (1.0 + float(np.max(np.abs(values))))
    ok = worst <= 1.0 and nonzero_ok and broken_ok
    report(
        8,
        "gauge-shift identity",
        ok,
        f"worst defect at {worst:.3f} of bound over 20 rates; non-normalized path: "
        f"side magnitude {abs(rhs):.3e}, defect {defect:.3e}",
    )


def test_criterion_9_auxiliary_is_weak_invariant():
    model = scenarios.amplitude_damping_qubit(1.0, 0.5).model
    grid = TimeGrid(0.0, 1.0, 1000)
    aux = auxiliary_trajectory(model, SZ, grid)
    inv = integrate_invariant(model, SZ, "end", grid)
    worst = max(linalg.maxabs(a - b) for a, b in zip(aux.samples, inv.samples))
    report(
        9,
        "auxiliary-operator flow is the weak-invariant flow",
        worst <= 1e-12,
        f"max entrywise difference {worst:.3e} <= 1e-12",
    )


def test_criterion_10_damped_oscillator():
    spec = scenarios.damped_oscillator(20)
    rho0 = np.zeros((20, 20), dtype=complex)
    rho0[1, 1] = 1.0
    grid = TimeGrid(0.0, 3.0, 3000)
    state, monitors = integrate_state(spec.model, rho0, grid, leakage_index=19)
    a = scenarios.lowering_operator(20)
    n_final = expectation(linalg.dagger(a) @ a, state.samples[-1]).real
    number_ok = abs(n_final - math.exp(-0.6)) <= 1e-6
    leakage_ok = monitors.max_leakage <= 1e-8

    inv = integrate_invariant(spec.model, spec.default_invariant_seed, "start", grid)
    series = conservation_series(inv, state)
    drift = float(np.max(np.abs(series - series[0])))
    ok = number_ok and leakage_ok and drift <= 1e-6
    report(
        10,
        "damped oscillator at truncation 20",
        ok,
        f"<N>(3) = {n_final:.9f} vs e^-0.6 = {math.exp(-0.6):.9f}; "
        f"leakage {monitors.max_leakage:.2e} <= 1e-8; <I> drift {drift:.3e} <= 1e-6",
    )
