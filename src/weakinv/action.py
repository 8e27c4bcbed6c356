"""Discretized auxiliary-operator action and its exact node gradients.

Continuum functional, over paths (rho(t), Lam(t)) on [t_i, t_f]:

    S = - integral tr[(dLam/dt - i L*(Lam)) rho] dt - tr(Lam(t_i) rho(t_i))

Discretization (midpoint rule): with node values rho_k, Lam_k on a uniform
grid, cell averages X̄_k = (X_k + X_{k+1})/2 and cell midtimes t̄_k,

    S_disc = - sum_k dt * tr[G_k ρ̄_k] - tr(Lam_0 rho_0),
    G_k = (Lam_{k+1} - Lam_k)/dt - i L*(Λ̄_k at t̄_k).

S_disc is bilinear in the node values, so its node gradients are exact
operators (finite differences reproduce them to roundoff):

    d S / d rho_k : -(dt/2) G_0 - Lam_0         at k = 0
                    -(dt/2) (G_{k-1} + G_k)      interior
                    -(dt/2) G_{N-1}              at k = N

    d S / d Lam_k : (rho_1 - rho_0)/2 + (i dt/2) B_0                  at k = 0
                    (rho_{k+1} - rho_{k-1})/2 + (i dt/2)(B_{k-1}+B_k) interior
                    -ρ̄_{N-1} + (i dt/2) B_{N-1}                       at k = N
    B_k = L(ρ̄_k at t̄_k)

where the Lam gradient uses the pairing tr(L*(X) Y) = tr(X L(Y)). On a
solution pair the interior gradients divided by dt approximate the continuum
integrands and shrink as O(dt²); the boundary nodes reduce to -Lam(t_i) and
-rho(t_f) (the initial-node Lam term cancels against the explicit boundary
term of S, to the same O(dt²) accuracy in the density sense).

This midpoint pairing also makes the Lagrange-multiplier shift identity
exact at the discrete level: shifting Lam_k by (suffix midpoint quadrature
of a scalar rate lambda) times the identity changes S_disc by exactly the
same quadrature applied to lambda(t) (tr rho(t) - tr rho(t_0)), up to
roundoff, while leaving Lam at the final node untouched.

The node values, cell generators and gradients are ``(n, d, d)`` stacks.
The generator is applied to whole runs of cells that share one model
snapshot, through the unchecked effective-Hamiltonian kernels of
``superop`` with K built once per run: a constant model's lattice is one
snapshot, so all n cells take one stacked call (split into blocks of
``linalg.BLOCK_ENTRIES`` entries, so that a long grid at large d keeps its
temporaries bounded), while a driven model is applied cell by cell, which
keeps its memory at one cell's temporaries. The paths themselves come from
the integrators in ``dynamics``, which run both flows through one checked
loop: a constant model of dimension at most
``dynamics.STEP_MATRIX_MAX_DIM`` steps by a matrix built from the RK4 or
midpoint stages, a driven model by the stages themselves.
``stationarity_check`` integrates Lam backward in a forked child while this
process integrates rho forward (``auxiliary_trajectory`` with
``alongside``); the action and its gradients are evaluated in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import (
    TimeGrid,
    Trajectory,
    check_state_inputs,
    integrate_invariant,
    integrate_state,
)
from .model import LindbladModel, Schedule
from .superop import adjoint, liouvillian

# Tolerance on the (discarded) imaginary part of the action value.
ACTION_IMAG_RTOL = 1e-10

__all__ = [
    "DiscretizedPath",
    "ActionReport",
    "evaluate_action",
    "grad_rho",
    "grad_lam",
    "stationarity_check",
    "stationarity_report",
    "auxiliary_trajectory",
    "gauge_shift_check",
]


@dataclass(frozen=True)
class DiscretizedPath:
    """Paired (rho, Lam) node values on a grid.

    ``rho`` and ``lam`` are complex arrays of shape ``(n_steps + 1, d, d)``
    (a list of d×d operators is stacked), Hermitian at every node. The state
    nodes of a solution path keep a constant trace, but that is not enforced
    here: the gauge-shift check deliberately evaluates the action on
    synthetic non-normalized paths.
    """

    grid: TimeGrid
    rho: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        n_nodes = self.grid.n_steps + 1
        if len(self.rho) != n_nodes or len(self.lam) != n_nodes:
            raise ValueError(
                f"path needs {n_nodes} nodes, got {len(self.rho)} rho / {len(self.lam)} lam"
            )
        rho = linalg.as_operator(self.rho, stack=True)
        lam = linalg.as_operator(self.lam, stack=True)
        if rho.ndim != 3 or rho.shape != lam.shape:
            raise ValueError(f"dimension mismatch: rho {rho.shape} vs lam {lam.shape}")
        linalg.check_hermitian(rho, rtol=1e-10, what="rho")
        linalg.check_hermitian(lam, rtol=1e-10, what="lam")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.rho.shape[1]


@dataclass(frozen=True)
class ActionReport:
    """Action value and stationarity diagnostics.

    Gradient residuals are interior node gradients divided by dt (the
    functional-derivative density), so they shrink as O(dt²) on solution
    pairs. Boundary terms measure the pairing defects
    ||grad_rho[0] + Lam(t_0)|| and ||grad_lam[N] + rho(t_N)||.
    """

    action_value: float
    grad_rho_residual: float
    grad_lam_residual: float
    boundary_rho_term: float
    boundary_lam_term: float
    grid: TimeGrid

    def to_dict(self) -> dict:
        return {
            "action": self.action_value,
            "grad_rho_residual": self.grad_rho_residual,
            "grad_lam_residual": self.grad_lam_residual,
            "boundary_rho": self.boundary_rho_term,
            "boundary_lam": self.boundary_lam_term,
            "grid": self.grid.to_dict(),
        }


def _runs(snaps, dim: int):
    """``(snapshot, k0, k1)`` for each run of consecutive cells k0..k1-1 that
    share one snapshot object, at most ``linalg.BLOCK_ENTRIES`` operator
    entries long: one run for a constant model on a short grid or of small
    dimension, one per cell for a driven one."""
    block = max(1, linalg.BLOCK_ENTRIES // dim**2)
    k0 = 0
    for k in range(1, len(snaps) + 1):
        if k == len(snaps) or snaps[k] is not snaps[k0] or k - k0 == block:
            yield snaps[k0], k0, k
            k0 = k


def _cell_generators(grid: TimeGrid, lam: np.ndarray, model: LindbladModel) -> np.ndarray:
    """G_k = (Lam_{k+1} - Lam_k)/dt - i L*(Λ̄_k) per cell, as an (n, d, d)
    stack, with the model at the cell midpoints of the grid lattice."""
    dt = grid.dt
    gens = np.empty((grid.n_steps,) + lam.shape[1:], dtype=complex)
    for snap, k0, k1 in _runs(model.on_grid(grid)[1::2], model.dim):
        a, b = lam[k0:k1], lam[k0 + 1:k1 + 1]
        gens[k0:k1] = (b - a) / dt - 1j * adjoint(snap.effective_hamiltonian(), snap.channels,
                                                  0.5 * (a + b))
    return gens


def _node_sums(cells: np.ndarray) -> np.ndarray:
    """Per node, the sum of the values of the cells next to it:
    c_0, c_0 + c_1, ..., c_{N-2} + c_{N-1}, c_{N-1}."""
    out = np.empty((len(cells) + 1,) + cells.shape[1:], dtype=complex)
    out[0] = cells[0]
    np.add(cells[:-1], cells[1:], out=out[1:-1])
    out[-1] = cells[-1]
    return out


def _action(grid: TimeGrid, rho: np.ndarray, lam: np.ndarray, gens: np.ndarray) -> float:
    """S_disc from the node values and the cell generators; raises if the
    imaginary residue is not roundoff."""
    # tr(G_k ρ̄_k) = (tr(G_k ρ_k) + tr(G_k ρ_{k+1}))/2, with no stack of ρ̄
    pairing = np.einsum("njk,nkj->", gens, rho[:-1]) + np.einsum("njk,nkj->", gens, rho[1:])
    s = -(0.5 * grid.dt) * pairing
    s -= np.einsum("jk,kj->", lam[0], rho[0])
    if abs(s.imag) > ACTION_IMAG_RTOL * (1.0 + abs(s.real)):
        raise ValueError(
            f"action has imaginary part {s.imag:.3e}; non-Hermitian path or model defect"
        )
    return float(s.real)


def _grad_rho(path: DiscretizedPath, gens: np.ndarray) -> np.ndarray:
    grads = _node_sums(gens)
    grads *= -(0.5 * path.grid.dt)
    grads[0] -= path.lam[0]
    return grads


def evaluate_action(path: DiscretizedPath, model: LindbladModel) -> float:
    """S_disc for the path; raises if the imaginary residue is not roundoff."""
    return _action(path.grid, path.rho, path.lam, _cell_generators(path.grid, path.lam, model))


def grad_rho(path: DiscretizedPath, model: LindbladModel) -> np.ndarray:
    """Exact node gradients of S_disc with respect to the rho nodes, as an
    ``(n_steps + 1, d, d)`` stack."""
    return _grad_rho(path, _cell_generators(path.grid, path.lam, model))


def grad_lam(path: DiscretizedPath, model: LindbladModel) -> np.ndarray:
    """Exact node gradients of S_disc with respect to the Lam nodes, as an
    ``(n_steps + 1, d, d)`` stack."""
    rho = path.rho
    b = np.empty((path.grid.n_steps,) + rho.shape[1:], dtype=complex)
    for snap, k0, k1 in _runs(model.on_grid(path.grid)[1::2], model.dim):
        b[k0:k1] = liouvillian(snap.effective_hamiltonian(), snap.channels,
                               0.5 * (rho[k0:k1] + rho[k0 + 1:k1 + 1]))
    grads = _node_sums(b)
    del b
    grads *= 0.5j * path.grid.dt
    grads[0] += 0.5 * (rho[1] - rho[0])
    diffs = rho[2:] - rho[:-2]
    diffs *= 0.5
    grads[1:-1] += diffs
    grads[-1] -= 0.5 * (rho[-1] + rho[-2])
    return grads


def _interior_residual(grads: np.ndarray, dt: float) -> float:
    return linalg.maxabs(grads[1:-1]) / dt


def auxiliary_trajectory(
    model: LindbladModel, lam_final, grid: TimeGrid, method: str = "rk4", *, alongside=None
):
    """Auxiliary-operator path of the stationary action: the equation of
    motion obtained by varying rho is exactly the weak-invariant flow, so
    this backward propagation shares the invariant integrator, and its
    errors name ``lambda_final``. With ``alongside`` the path is integrated
    in a forked child while ``alongside()`` runs here, and the result is
    ``(trajectory, alongside())``, as for ``integrate_invariant``."""
    return integrate_invariant(model, lam_final, "end", grid, method,
                               alongside=alongside, what="lambda_final")


def stationarity_check(
    model: LindbladModel,
    rho0,
    lam_final,
    grid: TimeGrid,
    method: str = "rk4",
) -> ActionReport:
    """Integrate rho forward and, in a forked child at the same time, Lam
    backward, then report how stationary the discrete action is on the pair.
    Inputs are checked in the order of the two flows, rho0 first."""
    check_state_inputs(model, rho0, grid, method)
    lam, (state, _) = auxiliary_trajectory(
        model, lam_final, grid, method,
        alongside=lambda: integrate_state(model, rho0, grid, method))
    return stationarity_report(DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples),
                               model)


def stationarity_report(path: DiscretizedPath, model: LindbladModel) -> ActionReport:
    """Action value, gradient residuals and boundary terms on a given path;
    the cell generators are built once for the value and the rho gradient."""
    dt = path.grid.dt
    gens = _cell_generators(path.grid, path.lam, model)
    value = _action(path.grid, path.rho, path.lam, gens)
    gr = _grad_rho(path, gens)
    del gens  # each stack is freed once reduced to scalars; they are n×d×d each
    rho_residual = _interior_residual(gr, dt)
    rho_boundary = linalg.maxabs(gr[0] + path.lam[0])
    del gr
    gl = grad_lam(path, model)
    return ActionReport(
        action_value=value,
        grad_rho_residual=rho_residual,
        grad_lam_residual=_interior_residual(gl, dt),
        boundary_rho_term=rho_boundary,
        boundary_lam_term=linalg.maxabs(gl[-1] + path.rho[-1]),
        grid=path.grid,
    )


def gauge_shift_check(
    path: DiscretizedPath,
    model: LindbladModel,
    lambda_schedule: Schedule,
    unshifted_action: float | None = None,
) -> float:
    """Lagrange-multiplier identity defect for a scalar rate schedule.

    Shifts Lam_k by phi_k * identity with phi_k the suffix midpoint
    quadrature of lambda (phi at the final node is exactly zero, so the
    final condition is untouched), re-evaluates the action, and compares the
    change against the same quadrature of lambda(t) (tr rho(t) - tr rho(t_0)).
    Returns the absolute difference, which is roundoff-level by construction.
    ``unshifted_action`` is the action of ``path`` if already known (the
    ``action_value`` of its ``stationarity_report``); it is evaluated otherwise.
    """
    if lambda_schedule.is_operator_valued:
        raise ValueError("gauge shift needs a scalar rate schedule")
    grid = path.grid
    n = grid.n_steps
    dt = grid.dt
    lam_mid = np.array([float(lambda_schedule(grid.midpoint(k))) for k in range(n)])

    # phi_k = phi_{k+1} + dt * lambda(t̄_k), accumulated from phi_N = 0
    phi = np.zeros(n + 1)
    phi[:n] = np.cumsum((dt * lam_mid)[::-1])[::-1]

    shifted = path.lam.copy()
    diag = np.arange(path.dim)
    shifted[:, diag, diag] += phi[:, None]
    if not np.array_equal(shifted[n], path.lam[n]):
        raise AssertionError("gauge shift moved the final auxiliary node")

    # a real multiple of the identity keeps the checked path Hermitian, so the
    # shifted action is evaluated on the arrays without building a second path
    shifted_s = _action(grid, path.rho, shifted, _cell_generators(grid, shifted, model))
    del shifted
    if unshifted_action is None:
        unshifted_action = evaluate_action(path, model)
    delta_s = shifted_s - unshifted_action

    tr = np.trace(path.rho, axis1=1, axis2=2).real
    tr_mid = 0.5 * (tr[:-1] + tr[1:])
    rhs = float(np.sum(dt * lam_mid * (tr_mid - tr[0])))
    return abs(delta_s - rhs)
