"""Shared constants and independent closed-form oracles for the test suite.

The oracles here are derived by hand from the scalar ODEs of the two qubit
models and from exact unitary conjugation; they never call the integrators
they are used to check. The generator references spell out the commutator
and anticommutator form term by term. The per-cell action references apply
the generator one cell at a time, with the model sampled on its own at each
cell midpoint. The run conveniences at the end (``integrate_state`` and the
like) are not oracles: each runs a flow by the route the commands take.
"""

import math

import numpy as np

from weakinv import linalg
from weakinv.action import _flow_path, stationarity_report
from weakinv.dynamics import beside, invariant_flow, state_flow
from weakinv.model import LindbladModel, scaled, sinusoidal
from weakinv.superop import apply_adjoint, apply_liouvillian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)
PLUS_STATE = 0.5 * np.ones((2, 2), dtype=complex)  # |+><+|


def expectation(a, rho) -> complex:
    """``tr(a rho)``; real up to roundoff when both arguments are Hermitian."""
    a = linalg.as_operator(a)
    rho = linalg.as_operator(rho)
    if a.shape != rho.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {rho.shape}")
    return complex(np.einsum("jk,kj->", a, rho))


def hermitian_basis(dim: int) -> list[np.ndarray]:
    """Basis of the dim² real vector space of Hermitian dim×dim matrices.

    Diagonal units, symmetric pairs, and antisymmetric (i-weighted) pairs;
    unnormalized.
    """
    basis = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(dim):
        for k in range(j + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0
            e[k, j] = 1.0
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[j, k] = 1.0j
            e[k, j] = -1.0j
            basis.append(e)
    return basis


def random_hermitian(rng, dim, amp=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    return amp * h / np.max(np.abs(h))


def random_constant_model(rng, dim):
    """Constant model: random Hermitian H and two random channels with
    maxabs-normalized jump operators at rates in [0.1, 0.6]."""
    channels = []
    for rate in rng.uniform(0.1, 0.6, size=2):
        l = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        channels.append((l / np.max(np.abs(l)), rate))
    return LindbladModel(dim, random_hermitian(rng, dim), channels)


def partial_permutation(rng, dim, empty=0):
    """A jump operator with complex weights on a random permutation, with
    ``empty`` rows (so as many columns) left empty: at most one nonzero per
    row and per column."""
    weights = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    weights[rng.choice(dim, size=empty, replace=False)] = 0.0
    l = np.zeros((dim, dim), dtype=complex)
    l[np.arange(dim), rng.permutation(dim)] = weights
    return l


def random_hadamard_model(rng, dim, n_channels=2, driven=True):
    """A model whose generators run in Hadamard form: a real diagonal H and
    ``n_channels`` jumps on partial permutations with empty rows, the last
    of several a diagonal jump. ``driven``: H is scaled by a sinusoid and
    the rates are sinusoids, so every cell midpoint differs."""
    h = np.diag(rng.standard_normal(dim)).astype(complex)
    jumps = [partial_permutation(rng, dim, empty=dim // 3) for _ in range(n_channels)]
    if n_channels > 1:
        jumps[-1] = np.diag(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    rates = rng.uniform(0.1, 0.6, size=n_channels)
    if driven:
        channels = [(l, sinusoidal(rate, 0.5 * rate, 3.0)) for l, rate in zip(jumps, rates)]
        return LindbladModel(dim, scaled(sinusoidal(1.0, 0.5, 2.0), h), channels)
    return LindbladModel(dim, h, list(zip(jumps, rates)))


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def reference_liouvillian(h, channels, rho):
    """[H, rho] - i sum alpha (L†L rho + rho L†L - 2 L rho L†), channels as
    (L, alpha) pairs."""
    out = h @ rho - rho @ h
    for l, alpha in channels:
        ldl = l.conj().T @ l
        out = out - 1j * alpha * (ldl @ rho + rho @ ldl - 2.0 * l @ rho @ l.conj().T)
    return out


def reference_adjoint(h, channels, a):
    """-[H, a] - i sum alpha (L†L a + a L†L - 2 L† a L), channels as
    (L, alpha) pairs."""
    out = a @ h - h @ a
    for l, alpha in channels:
        ldl = l.conj().T @ l
        out = out - 1j * alpha * (ldl @ a + a @ ldl - 2.0 * l.conj().T @ a @ l)
    return out


def amp_damp_state(t, omega, gamma, rho0):
    """Amplitude-damping qubit, H = omega*diag(0,1), channel (sigma_-, gamma).

    Scalar ODEs: p11' = -2 gamma p11, rho01' = (i omega - gamma) rho01.
    """
    p11 = rho0[1, 1] * math.exp(-2.0 * gamma * t)
    r01 = rho0[0, 1] * np.exp((1j * omega - gamma) * t)
    return np.array([[rho0[0, 0] + rho0[1, 1] - p11, r01], [np.conj(r01), p11]])


def driven_amp_damp_state(t, gamma, rho0):
    """Amplitude-damping qubit with H(t) = omega(t)*diag(0,1),
    omega(t) = 1 + 0.5 sin(2t), channel (sigma_-, gamma).

    Same scalar ODEs as the constant case with omega(t) in place of omega,
    so the coherence phase is Phi(t) = t + (1 - cos 2t)/4.
    """
    p11 = rho0[1, 1] * math.exp(-2.0 * gamma * t)
    phase = t + 0.25 * (1.0 - math.cos(2.0 * t))
    r01 = rho0[0, 1] * np.exp(1j * phase - gamma * t)
    return np.array([[rho0[0, 0] + rho0[1, 1] - p11, r01], [np.conj(r01), p11]])


def amp_damp_invariant(t, gamma):
    """Weak invariant seeded at sigma_z: stays diagonal, diag(1, 1 - 2 e^{2 gamma t})."""
    return np.diag([1.0, 1.0 - 2.0 * math.exp(2.0 * gamma * t)]).astype(complex)


def dephasing_state(t, omega, gamma, rho0):
    """Dephasing qubit, H = (omega/2) sigma_z, channel (sigma_z, gamma).

    Populations frozen; rho01' = (-i omega - 4 gamma) rho01.
    """
    r01 = rho0[0, 1] * np.exp((-1j * omega - 4.0 * gamma) * t)
    return np.array([[rho0[0, 0], r01], [np.conj(r01), rho0[1, 1]]])


def unitary_conjugation(t, h_diag, op):
    """exp(-iHt) op exp(+iHt) for diagonal H (exact phases)."""
    phases = np.exp(-1j * np.asarray(h_diag) * t)
    return (phases[:, None] * op) * np.conj(phases)[None, :]


def _cell_snapshots(grid, model):
    return [model.snapshot(t) for t in grid.midpoints()]


def per_cell_generators(path, model):
    """Reference G_k = (Lam_{k+1} - Lam_k)/dt - i L*(Λ̄_k), one generator call
    per cell, with the model sampled at each cell midpoint on its own."""
    dt, lam = path.grid.dt, path.lam
    return [(lam[k + 1] - lam[k]) / dt
            - 1j * apply_adjoint(s, 0.5 * (lam[k] + lam[k + 1]))
            for k, s in enumerate(_cell_snapshots(path.grid, model))]


def per_cell_action(path, model):
    """Reference S_disc, summed cell by cell."""
    rho, dt = path.rho, path.grid.dt
    s = 0.0 + 0.0j
    for k, g in enumerate(per_cell_generators(path, model)):
        s -= dt * np.einsum("jk,kj->", g, 0.5 * (rho[k] + rho[k + 1]))
    s -= np.einsum("jk,kj->", path.lam[0], rho[0])
    return s.real


def per_cell_grad_rho(path, model):
    """Reference rho-gradients, node by node."""
    gens, dt = per_cell_generators(path, model), path.grid.dt
    n = len(gens)
    grads = [-(0.5 * dt) * gens[0] - path.lam[0]]
    grads += [-(0.5 * dt) * (gens[k - 1] + gens[k]) for k in range(1, n)]
    grads.append(-(0.5 * dt) * gens[n - 1])
    return np.array(grads)


def per_cell_grad_lam(path, model):
    """Reference Lam-gradients, one generator call per cell, node by node."""
    rho, dt = path.rho, path.grid.dt
    b = [apply_liouvillian(s, 0.5 * (rho[k] + rho[k + 1]))
         for k, s in enumerate(_cell_snapshots(path.grid, model))]
    n = len(b)
    grads = [0.5 * (rho[1] - rho[0]) + (0.5j * dt) * b[0]]
    grads += [0.5 * (rho[k + 1] - rho[k - 1]) + (0.5j * dt) * (b[k - 1] + b[k])
              for k in range(1, n)]
    grads.append(-0.5 * (rho[n] + rho[n - 1]) + (0.5j * dt) * b[n - 1])
    return np.array(grads)


def lattice_times(grid):
    """The ``2 n_steps + 1`` times at which ``LindbladModel.on_grid`` samples
    the model, bitwise as it computes them: node k at entry 2k, the midpoint
    of cell k at entry 2k + 1."""
    return [grid.t_start + (0.5 * grid.dt) * j for j in range(2 * grid.n_steps + 1)]


def lattice_snapshots(model, grid):
    """The model sampled on its own at each lattice time, one snapshot each."""
    return [model.snapshot(t) for t in lattice_times(grid)]


def per_step_flow(model, y0, grid, dual, first, method="rk4", cap=1e12):
    """The flow y' = ±i generator(y) (+i L* with ``dual``, else -i L) from
    ``y0`` at node ``first``, one step at a time on ``apply_liouvillian`` /
    ``apply_adjoint`` with the model sampled on its own at each lattice
    time: each raw step is checked against ``cap`` and re-symmetrized to
    (y + y†)/2 before the next. Returns the stack of nodes and the largest
    raw-step Hermiticity defect, or ``(node, magnitude)`` of the first step
    not within the cap."""
    lattice = lattice_snapshots(model, grid)
    apply = apply_adjoint if dual else apply_liouvillian
    unit = 1j if dual else -1j
    n = grid.n_steps
    d = 1 if first == 0 else -1
    h = d * grid.dt
    samples = np.empty((n + 1,) + y0.shape, dtype=complex)
    samples[first] = y = y0
    defect = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(first, n - first, d):
            def f(j, x):
                return unit * apply(lattice[2 * k + j * d], x)
            if method == "rk4":
                k1 = f(0, y)
                k2 = f(1, y + (0.5 * h) * k1)
                k3 = f(1, y + (0.5 * h) * k2)
                k4 = f(2, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                y = y + h * f(1, y + (0.5 * h) * f(0, y))
            mag = np.abs(y).max()
            if not mag <= cap:
                return k + d, mag
            defect = max(defect, np.abs(y - y.conj().T).max())
            y = y + y.conj().T
            y /= 2.0
            samples[k + d] = y
    return samples, defect


def forked_invariant(inv_flow, here):
    """``(invariant, here())``: the run of an ``invariant_flow``'s
    ``(trajectory, run)`` in a forked child, ``beside`` ``here``."""
    inv, run = inv_flow
    return inv, beside(run, here, "invariant flow")[1]


def forked_pair(inv_flow, state_flow):
    """``(invariant, state, monitors)``: an ``invariant_flow`` run in a
    forked child, ``beside`` a ``state_flow``."""
    state, run = state_flow
    inv, monitors = forked_invariant(inv_flow, run)
    return inv, state, monitors


def integrate_state(model, rho0, grid, method="rk4", *, leakage_index=None):
    """``(trajectory, monitors)``: a ``state_flow``, run at once."""
    traj, run = state_flow(model, rho0, grid, method, leakage_index=leakage_index)
    return traj, run()


def integrate_invariant(model, seed, seed_time, grid, method="rk4"):
    """The trajectory of an ``invariant_flow``, run at once."""
    traj, run = invariant_flow(model, seed, seed_time, grid, method)
    run()
    return traj


def auxiliary_trajectory(model, lam_final, grid, method="rk4"):
    """Lam as ``action-check`` makes it: the invariant flow run backward
    from ``lam_final``, its errors naming ``lambda_final``."""
    lam, run = invariant_flow(model, lam_final, "end", grid, method, what="lambda_final")
    run()
    return lam


def stationarity_check(model, rho0, lam_final, grid, method="rk4"):
    """``action-check``'s report: the state flow, then Lam from
    ``lam_final``, run ``beside`` it in a forked child, then
    ``stationarity_report`` on the pair."""
    state, run = state_flow(model, rho0, grid, method)
    lam, run_lam = invariant_flow(model, lam_final, "end", grid, method, what="lambda_final")
    beside(run_lam, run, "invariant flow")
    return stationarity_report(_flow_path(state, lam), model)
