"""Fixed-step integration of the master equation and the weak-invariant flow.

The state obeys drho/dt = -i L(rho); a weak invariant obeys dI/dt = +i L*(I),
the rearranged form of the defining equation i dI/dt + L*(I) = 0. The same
equation propagated backward from a final condition yields the auxiliary
operator of the action principle, which is why ``integrate_invariant``
supports seeding at either end of the grid.

Only deterministic one-step methods are offered (classic RK4 and explicit
midpoint, both sampling schedules at step midpoints); the action module
needs ρ and Λ on exactly the same nodes, which rules out adaptive stepping.
Both integrators read the model from ``LindbladModel.on_grid``: it is
sampled and validated once at every node and cell midpoint, and that one
lattice serves both flows and the action.

A constant model (``LindbladModel.is_constant``) of dimension at most
``STEP_MATRIX_MAX_DIM`` makes both flows linear and autonomous, so one step
of either method is one fixed d²×d² matrix, built once per integration from
``superop.build_liouvillian_matrix`` and applied as one matrix-vector
product per step. Driven models, and larger constant ones, evaluate the
method's stages with the generator directly. Either way each step is checked
for non-finite values (and, on the invariant flow, for magnitudes beyond
``BLOWUP_CAP``), and re-symmetrized to (A + A†)/2, which suppresses
Hermiticity drift without touching the order of accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BlowupError, IntegrationError
from .model import LindbladModel
from .superop import apply_adjoint, apply_liouvillian, build_liouvillian_matrix

STATE = "state"
INVARIANT = "invariant"

METHODS = ("rk4", "midpoint")

# Hard cap on iterate magnitude; the dissipative adjoint flow may grow
# exponentially, which is legitimate, but overflow must be loud.
BLOWUP_CAP = 1e12

# Largest dimension at which a constant model steps by its precomputed
# d²×d² step matrix (d⁴·16 bytes). One RK4 step with one channel at one BLAS
# thread (Xeon, 2 cores): at d=16, 110 µs direct and 18 µs as a
# matrix-vector product, with a 1 MB matrix built in 14 ms; at d=20, 117 µs
# against 91 µs, as the 2.6 MB matrix no longer stays in cache, and the
# 36 ms build repays only grids of more than ~1400 steps; from d=24 the
# product is slower than the direct step.
STEP_MATRIX_MAX_DIM = 16

__all__ = [
    "TimeGrid",
    "Trajectory",
    "MonitorReport",
    "integrate_state",
    "integrate_invariant",
    "conservation_series",
    "write_trajectory_csv",
    "write_csv",
    "STATE",
    "INVARIANT",
    "METHODS",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t_start + k * dt, k = 0..n_steps."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def nodes(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def midpoint(self, k: int) -> float:
        return self.t_start + self.dt * (k + 0.5)

    def to_dict(self) -> dict:
        return {"t_start": self.t_start, "t_end": self.t_end, "n_steps": self.n_steps}


@dataclass(frozen=True)
class Trajectory:
    """Operator samples on the grid nodes.

    ``samples`` is one complex array of shape ``(n_steps + 1, d, d)``, node
    ``k`` at ``samples[k]``; a list of d×d operators is stacked into it.
    """

    grid: TimeGrid
    samples: np.ndarray
    kind: str

    def __post_init__(self):
        samples = linalg.as_operator(self.samples, stack=True)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 3 or len(samples) != self.grid.n_steps + 1:
            raise ValueError(
                f"{len(samples)} samples for {self.grid.n_steps + 1} nodes"
            )
        if self.kind not in (STATE, INVARIANT):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class MonitorReport:
    """Numerical health of a state trajectory.

    ``max_leakage`` is the largest population seen on the designated top
    basis level and is 0.0 when no truncation level was given.
    """

    max_trace_drift: float
    max_hermiticity_defect: float
    min_eigenvalue: float
    max_leakage: float

    def to_dict(self) -> dict:
        return {
            "max_trace_drift": self.max_trace_drift,
            "max_hermiticity_defect": self.max_hermiticity_defect,
            "min_eigenvalue": self.min_eigenvalue,
            "max_leakage": self.max_leakage,
        }


def _step(lattice, j, sign, y, h, method):
    """One step of y' = sign * i * generator(y) from the node at lattice entry
    ``j``, sampling the model at t, t+h/2, t+h (entries j, j±1, j±2 as h > 0
    or h < 0)."""

    def rhs(snap, v):
        if sign < 0:
            return -1j * apply_liouvillian(snap, v)
        return 1j * apply_adjoint(snap, v)

    d = 1 if h > 0 else -1
    s0 = lattice[j]
    sm = lattice[j + d]
    if method == "rk4":
        s1 = lattice[j + 2 * d]
        k1 = rhs(s0, y)
        k2 = rhs(sm, y + (0.5 * h) * k1)
        k3 = rhs(sm, y + (0.5 * h) * k2)
        k4 = rhs(s1, y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    k1 = rhs(s0, y)
    return y + h * rhs(sm, y + (0.5 * h) * k1)


def _step_matrix(snap, sign, h, method) -> np.ndarray:
    """The step of y' = sign * i * generator(y) for a constant model, as one
    matrix acting on the row-major vec(y) (``y.reshape(-1)``).

    With M the column-stacking Liouvillian matrix and S the transpose
    permutation, the row-major generator matrix is S M S and, by the pairing
    tr(a L(rho)) = tr(L*(a) rho), the adjoint's is Mᵀ. For X = h·sign·i·(that
    matrix), the RK4 map of the linear autonomous flow is
    I + X + X²/2 + X³/6 + X⁴/24 and the midpoint map I + X + X²/2.
    """
    d = snap.dim
    m = build_liouvillian_matrix(snap).matrix
    if sign < 0:
        x = (-1j * h) * m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    else:
        x = (1j * h) * m.T
    x2 = x @ x
    step = np.eye(d * d, dtype=complex) + x + x2 / 2.0
    if method == "rk4":
        step += x2 @ (x / 6.0 + x2 / 24.0)
    return step


def _stepper(model, grid, sign, h, method):
    """``step(j, y)``: one step of size ``h`` from the node at lattice entry
    ``j``, by the precomputed step matrix for a constant model of dimension
    at most ``STEP_MATRIX_MAX_DIM``, else by the method's stages."""
    lattice = model.on_grid(grid)
    if model.is_constant and model.dim <= STEP_MATRIX_MAX_DIM:
        p = _step_matrix(lattice[0], sign, h, method)
        return lambda j, y: (p @ y.reshape(-1)).reshape(y.shape)
    return lambda j, y: _step(lattice, j, sign, y, h, method)


def _check_method(method):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def integrate_state(
    model: LindbladModel,
    rho0,
    grid: TimeGrid,
    method: str = "rk4",
    *,
    leakage_index: int | None = None,
) -> tuple[Trajectory, MonitorReport]:
    """Propagate a density operator over the grid.

    ``rho0`` must be Hermitian, unit trace (within 1e-10) and positive
    semi-definite (min eigenvalue >= -1e-10). Returns the trajectory and a
    monitor report; pass ``leakage_index`` (the top retained basis level) to
    have truncation leakage tracked.
    """
    _check_method(method)
    rho0 = linalg.require_hermitian(rho0, rtol=1e-10, what="rho0")
    if rho0.shape != (model.dim, model.dim):
        raise ValueError(f"rho0 dimension {rho0.shape[0]} != model dim {model.dim}")
    tr0 = linalg.trace(rho0)
    if abs(tr0 - 1.0) > 1e-10:
        raise ValueError(f"rho0 trace {tr0} is not 1 within 1e-10")
    min_eig0 = float(linalg.hermitian_eigenvalues(rho0)[0])
    if min_eig0 < -1e-10:
        raise ValueError(f"rho0 has negative eigenvalue {min_eig0}")
    step = _stepper(model, grid, -1, grid.dt, method)

    samples = np.empty((grid.n_steps + 1,) + rho0.shape, dtype=complex)
    samples[0] = rho0
    y = rho0
    max_herm = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            y = step(2 * k, y)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"non-finite state at step {k + 1}", step=k + 1)
            max_herm = max(max_herm, linalg.hermiticity_defect(y))
            y = linalg.hermitize(y)
            samples[k + 1] = y

    traj = Trajectory(grid=grid, samples=samples, kind=STATE)
    drift = np.max(np.abs(np.trace(samples, axis1=1, axis2=2).real - tr0.real))
    min_eig = np.min(linalg.hermitian_eigenvalues(samples)[:, 0])
    if leakage_index is not None:
        leak = np.max(samples[:, leakage_index, leakage_index].real)
    else:
        leak = 0.0
    report = MonitorReport(
        max_trace_drift=float(drift),
        max_hermiticity_defect=max_herm,
        min_eigenvalue=float(min_eig),
        max_leakage=float(leak),
    )
    return traj, report


def integrate_invariant(
    model: LindbladModel,
    seed,
    seed_time: str,
    grid: TimeGrid,
    method: str = "rk4",
) -> Trajectory:
    """Propagate dI/dt = +i L*(I) across the grid.

    ``seed_time`` is "start" (forward from t_start) or "end" (backward from
    t_end, the direction the action principle fixes for the auxiliary
    operator). Non-Hermitian seeds are rejected rather than symmetrized.
    """
    _check_method(method)
    if seed_time not in ("start", "end"):
        raise ValueError(f"seed_time must be 'start' or 'end', got {seed_time!r}")
    seed = linalg.require_hermitian(seed, what="invariant seed")
    if seed.shape != (model.dim, model.dim):
        raise ValueError(f"seed dimension {seed.shape[0]} != model dim {model.dim}")
    n = grid.n_steps
    d = 1 if seed_time == "start" else -1
    first = 0 if d > 0 else n
    step = _stepper(model, grid, +1, d * grid.dt, method)
    samples = np.empty((n + 1,) + seed.shape, dtype=complex)
    samples[first] = seed
    y = seed
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(first, n - first, d):  # computes node k + d from node k
            dst = k + d
            y = step(2 * k, y)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"non-finite invariant at node {dst}", step=dst)
            mag = linalg.maxabs(y)
            if mag > BLOWUP_CAP:
                raise BlowupError(
                    f"invariant magnitude {mag:.3e} exceeded cap {BLOWUP_CAP:.1e} at node {dst}",
                    step=dst,
                    magnitude=mag,
                )
            y = linalg.hermitize(y)
            samples[dst] = y

    return Trajectory(grid=grid, samples=samples, kind=INVARIANT)


def conservation_series(inv: Trajectory, state: Trajectory) -> np.ndarray:
    """<I>(t_k) = Re tr(I(t_k) rho(t_k)) per node.

    The imaginary parts must be roundoff-level (both trajectories Hermitian);
    anything larger raises.
    """
    if inv.kind != INVARIANT or state.kind != STATE:
        raise ValueError("expected an invariant trajectory and a state trajectory")
    if inv.grid != state.grid:
        raise ValueError("trajectories live on different grids")
    if inv.dim != state.dim:
        raise ValueError(f"dimension mismatch: {inv.dim} vs {state.dim}")
    values = np.einsum("njk,nkj->n", inv.samples, state.samples)
    bad = np.flatnonzero(np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"expectation at node {k} has imaginary part {values[k].imag:.3e}")
    return values.real.copy()


def write_csv(path, header: list[str], nodes, values) -> None:
    """CSV export: the header row, then per node t and the node's ``values``
    row, every number with 17 significant digits (lossless)."""
    table = np.column_stack([nodes, values])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export: t, then re_j_k / im_j_k for the row-major operator entries."""
    d = traj.dim
    header = ["t"] + [f"{part}_{j}_{k}"
                      for j in range(d) for k in range(d) for part in ("re", "im")]
    # a complex128 row viewed as float64 interleaves the real and imaginary parts
    flat = np.ascontiguousarray(traj.samples).reshape(len(traj.samples), -1).view(np.float64)
    write_csv(path, header, traj.grid.nodes(), flat)
