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

S_disc is linear in the rho nodes, so S_disc = sum_k tr(dS/drho_k rho_k):
the value is summed from the rho gradients themselves, the boundary term
-tr(Lam_0 rho_0) last, as in the formula above.

The node values are ``(n, d, d)`` stacks. The cell generators G_k and B_k
and the node gradients are not: they are streamed through blocks of at
most ``linalg.BLOCK_ENTRIES`` operator entries (about 20 cells at d=20, so
that a block's temporaries stay in cache), and the report reduces them
block by block (the action sum, the interior maxima with each block's last
cell carried across its edge, and the boundary nodes), as does the gauge
check with Lam shifted block by block. ``grad_rho`` and ``grad_lam``
collect the same blocks into a stack, so their values equal the report's.
One block path serves every model: the generator is applied to a whole
block per call, bound by the lattice's ``superop.Generator``.

The paths themselves come from the flows in ``dynamics``, whose nodes are
bitwise Hermitian, so a path of two flow trajectories (``_flow_path``) is
not checked again. The equation of motion got by varying rho is exactly
the weak-invariant flow, so Lam is that flow run backward from
``lambda_final``: ``invariant_flow(model, lambda_final, "end", grid,
method, what="lambda_final")``. ``action-check`` runs it ``beside`` the
state flow, in a forked child, then makes the report
(``stationarity_report``) while a forked child takes the gauge check's
passes (``_gauge_terms``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from . import linalg
from .dynamics import TimeGrid, Trajectory
from .errors import ImaginaryPartError
from .model import LindbladModel, Schedule
from .superop import Generator

# Tolerance on the (discarded) imaginary part of the action value.
ACTION_IMAG_RTOL = 1e-10

__all__ = [
    "DiscretizedPath",
    "ActionReport",
    "evaluate_action",
    "grad_rho",
    "grad_lam",
    "stationarity_report",
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
    _hermitian: InitVar[bool] = False  # set by ``_flow_path`` alone: skips the Hermiticity check

    def __post_init__(self, _hermitian):
        n_nodes = self.grid.n_steps + 1
        if len(self.rho) != n_nodes or len(self.lam) != n_nodes:
            raise ValueError(
                f"path needs {n_nodes} nodes, got {len(self.rho)} rho / {len(self.lam)} lam"
            )
        rho = linalg.as_operator(self.rho, stack=True)
        lam = linalg.as_operator(self.lam, stack=True)
        if rho.ndim != 3 or rho.shape != lam.shape:
            raise ValueError(f"dimension mismatch: rho {rho.shape} vs lam {lam.shape}")
        if not _hermitian:
            linalg.check_hermitian(rho, rtol=1e-10, what="rho")
            linalg.check_hermitian(lam, rtol=1e-10, what="lam")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.rho.shape[1]


def _flow_path(state: Trajectory, lam: Trajectory) -> DiscretizedPath:
    """The path of two trajectories, not checked again if both are a flow's."""
    return DiscretizedPath(state.grid, state.samples, lam.samples,
                           state._hermitian and lam._hermitian)


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


def _blocks(model: LindbladModel, grid: TimeGrid, dual: bool):
    """``(k0, k1, apply)`` for each block of cells k0..k1-1, at most
    ``linalg.BLOCK_ENTRIES`` operator entries long, with ``apply(v)`` the
    generator (L* with ``dual``, else L) at the cell midpoints, applied to
    a stack v over the block's cells (``superop.Generator.cells``)."""
    gen = Generator(model.on_grid(grid), dual)
    size = max(1, linalg.BLOCK_ENTRIES // model.dim**2)
    for k0 in range(0, grid.n_steps, size):
        k1 = min(k0 + size, grid.n_steps)
        yield k0, k1, gen.cells(k0, k1)


def _node_sums(cells, n: int):
    """``(k0, sums)`` per block ``(k0, k1, c)`` of cell values: sums[j] is
    the sum of the values of the cells next to node k0 + j (c_{k-1} + c_k,
    c_0 alone at node 0), each block's last cell carried across its edge;
    then ``(n, [c_{n-1}])`` for the final node."""
    last = None
    for k0, _, c in cells:
        sums = c.copy()
        sums[1:] += c[:-1]
        if last is not None:
            sums[0] += last
        last = c[-1]
        yield k0, sums
    yield n, last[None].copy()


def _grad_rho(path: DiscretizedPath, model: LindbladModel, phi: np.ndarray | None = None):
    """``(k0, g)`` per block of nodes: the cell part -(dt/2)(G_{k-1} + G_k)
    of the rho-gradients of S_disc, all of it but the boundary term -Lam_0
    at node 0. The cell generators G_k = (Lam_{k+1} - Lam_k)/dt - i L*(Λ̄_k)
    read the Lam nodes of ``path`` block by block; with ``phi``, a copy of
    each block's nodes, node k shifted by phi_k times the identity."""
    grid, diag = path.grid, np.arange(path.dim)

    def cells():
        for k0, k1, apply in _blocks(model, grid, dual=True):
            nodes = path.lam[k0:k1 + 1]
            if phi is not None:
                nodes = nodes.copy()
                nodes[:, diag, diag] += phi[k0:k1 + 1, None]
            a, b = nodes[:-1], nodes[1:]
            yield k0, k1, (b - a) / grid.dt - 1j * apply(0.5 * (a + b))

    scale = -(0.5 * grid.dt)
    for k0, g in _node_sums(cells(), grid.n_steps):
        g *= scale
        yield k0, g


def _grad_lam(path: DiscretizedPath, model: LindbladModel):
    """``(k0, g)`` per block of nodes: the Lam-gradients of S_disc."""
    rho, n = path.rho, path.grid.n_steps
    scale = 0.5j * path.grid.dt
    states = ((k0, k1, apply(0.5 * (rho[k0:k1] + rho[k0 + 1:k1 + 1])))
              for k0, k1, apply in _blocks(model, path.grid, dual=False))
    for k0, g in _node_sums(states, n):
        g *= scale
        k1 = k0 + len(g)
        lo, hi = max(k0, 1), min(k1, n)  # the interior nodes of the block
        diffs = rho[lo + 1:hi + 1] - rho[lo - 1:hi - 1]
        diffs *= 0.5
        g[lo - k0:hi - k0] += diffs
        if k0 == 0:
            g[0] += 0.5 * (rho[1] - rho[0])
        if k1 == n + 1:
            g[-1] -= 0.5 * (rho[-1] + rho[-2])
        yield k0, g


def _reduce(grads, n: int, rho: np.ndarray | None = None, edge: int | None = None):
    """``(pairing, interior, boundary)`` of a stream of node-gradient blocks
    ``(k0, g)``, keeping no more than a block: with ``rho``, sum_k
    tr(g_k rho_k); with ``edge``, the largest entry over the interior nodes
    1..n-1 and the gradient at node ``edge``."""
    pairing, interior, boundary = 0j, 0.0, None
    for k0, g in grads:
        k1 = k0 + len(g)
        if rho is not None:
            pairing += np.einsum("njk,nkj->", g, rho[k0:k1])
        if edge is not None:
            # np.maximum, unlike max, keeps a NaN
            interior = np.maximum(interior, linalg.maxabs(g[max(k0, 1) - k0:min(k1, n) - k0]))
            if k0 <= edge < k1:
                boundary = g[edge - k0]
    return pairing, float(interior), boundary


def _action(pairing: complex, lam0: np.ndarray, rho0: np.ndarray) -> float:
    """S_disc from the pairing sum_k tr(g_k rho_k) of the cell parts g of
    the rho-gradients, with the boundary term -tr(Lam_0 rho_0) added last,
    so that the sum runs at the scale of the cell terms. An imaginary
    residue beyond roundoff is a failed check, an ``ImaginaryPartError``."""
    s = pairing - np.einsum("jk,kj->", lam0, rho0)
    if abs(s.imag) > ACTION_IMAG_RTOL * (1.0 + abs(s.real)):
        raise ImaginaryPartError(
            f"action has imaginary part {s.imag:.3e}; non-Hermitian path or model defect",
            step=None)
    return float(s.real)


def _collect(grads, path: DiscretizedPath) -> np.ndarray:
    out = np.empty(path.rho.shape, dtype=complex)
    for k0, g in grads:
        out[k0:k0 + len(g)] = g
    return out


def evaluate_action(path: DiscretizedPath, model: LindbladModel) -> float:
    """S_disc for the path; raises if the imaginary residue is not roundoff."""
    pairing = _reduce(_grad_rho(path, model), path.grid.n_steps, path.rho)[0]
    return _action(pairing, path.lam[0], path.rho[0])


def grad_rho(path: DiscretizedPath, model: LindbladModel) -> np.ndarray:
    """Exact node gradients of S_disc with respect to the rho nodes, as an
    ``(n_steps + 1, d, d)`` stack."""
    grads = _collect(_grad_rho(path, model), path)
    grads[0] -= path.lam[0]
    return grads


def grad_lam(path: DiscretizedPath, model: LindbladModel) -> np.ndarray:
    """Exact node gradients of S_disc with respect to the Lam nodes, as an
    ``(n_steps + 1, d, d)`` stack."""
    return _collect(_grad_lam(path, model), path)


def stationarity_report(path: DiscretizedPath, model: LindbladModel) -> ActionReport:
    """Action value, gradient residuals and boundary terms on a given path,
    from one pass over the cell generators for the value and the rho
    gradients and one over L(ρ̄_k) for the Lam gradients, block by block."""
    n, dt = path.grid.n_steps, path.grid.dt
    pairing, rho_interior, rho_edge = _reduce(_grad_rho(path, model), n, path.rho, edge=0)
    value = _action(pairing, path.lam[0], path.rho[0])
    _, lam_interior, lam_edge = _reduce(_grad_lam(path, model), n, edge=n)
    return ActionReport(
        action_value=value,
        grad_rho_residual=rho_interior / dt,
        grad_lam_residual=lam_interior / dt,
        # grad_rho[0] + Lam_0, with grad_rho[0] as grad_rho returns it
        boundary_rho_term=linalg.maxabs((rho_edge - path.lam[0]) + path.lam[0]),
        boundary_lam_term=linalg.maxabs(lam_edge + path.rho[-1]),
        grid=path.grid,
    )


def _gauge_terms(path: DiscretizedPath, model: LindbladModel, lambda_schedule: Schedule):
    """``(shifted action, quadrature)``: all of ``gauge_shift_check`` but the
    unshifted action S; its defect is abs((shifted - S) - quadrature)."""
    if lambda_schedule.is_operator_valued:
        raise ValueError("gauge shift needs a scalar rate schedule")
    grid = path.grid
    n = grid.n_steps
    dt = grid.dt
    lam_mid = np.array(lambda_schedule.values(grid.midpoints()), dtype=float)

    # phi_k = phi_{k+1} + dt * lambda(t̄_k), accumulated from phi_N = 0
    phi = np.zeros(n + 1)
    phi[:n] = np.cumsum((dt * lam_mid)[::-1])[::-1]

    # a real multiple of the identity keeps the checked path Hermitian, so the
    # shifted action is evaluated on Lam shifted block by block, without a path
    lam0, diag = path.lam[0].copy(), np.arange(path.dim)
    lam0[diag, diag] += phi[0]
    shifted_s = _action(_reduce(_grad_rho(path, model, phi), n, path.rho)[0], lam0, path.rho[0])

    tr = np.trace(path.rho, axis1=1, axis2=2).real
    tr_mid = 0.5 * (tr[:-1] + tr[1:])
    return shifted_s, float(np.sum(dt * lam_mid * (tr_mid - tr[0])))


def gauge_shift_check(path: DiscretizedPath, model: LindbladModel,
                      lambda_schedule: Schedule) -> float:
    """Lagrange-multiplier identity defect for a scalar rate schedule.

    Shifts Lam_k by phi_k * identity with phi_k the suffix midpoint
    quadrature of lambda (phi at the final node is exactly zero, so the
    final condition is untouched), re-evaluates the action, and compares the
    change against the same quadrature of lambda(t) (tr rho(t) - tr rho(t_0)).
    Returns the absolute difference, which is roundoff-level by construction.
    """
    shifted_s, rhs = _gauge_terms(path, model, lambda_schedule)
    return abs((shifted_s - evaluate_action(path, model)) - rhs)
