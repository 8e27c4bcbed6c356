"""Fixed-step integration of the master equation and the weak-invariant flow.

The state obeys drho/dt = -i L(rho); a weak invariant obeys dI/dt = +i L*(I),
the rearranged form of the defining equation i dI/dt + L*(I) = 0. The same
equation propagated backward from a final condition yields the auxiliary
operator of the action principle, which is why ``invariant_flow`` supports
seeding at either end of the grid.

Only deterministic one-step methods are offered (classic RK4 and explicit
midpoint, both sampling schedules at step midpoints); the action module
needs ρ and Λ on exactly the same nodes, which rules out adaptive stepping.
Both integrators read the model from ``LindbladModel.on_grid``: it is
sampled and validated once at every node and cell midpoint, and that one
lattice serves both flows and the action. The stages call the lattice's
``superop.Generator``, which owns the form, the kernel and the operators,
bound a block of steps at a time.

A flow steps only the entries it can reach, S = ``Generator.support`` of
its initial operator. Where the lattice is constant on S (a ``constant``
lattice, or a driven Hadamard one whose driven part is zero on S, as on
the damped oscillator's diagonal, where ω(t) cancels) and |S| ≤
``STEP_MATRIX_MAX_DIM``², one step is one fixed |S|×|S| matrix P, and a
chunk of nodes takes one product with P's powers, kept as increments
P^j − 1 (``_propagate``); every entry off S is exactly 0. Other flows
evaluate the stages at every step, each step re-symmetrized to (A + A†)/2,
which suppresses Hermiticity drift without touching the order of accuracy.
Both flows step a block of nodes at a time, and each block's raw steps are
checked once against ``BLOWUP_CAP`` (non-finite values and finite
magnitudes beyond the cap both abort, naming the first such node). A
flow's nodes are thus bitwise Hermitian, and its ``Trajectory`` says so;
its stack is read-only, so that no edit in place can make that untrue.

``state_flow`` and ``invariant_flow`` check a flow's inputs once, sample
the lattice, and return the flow's trajectory with the call ``run`` that
fills it, both made by one maker, ``_flow``. Given the lattice the two
flows are independent, so ``beside(child, here, what)`` runs one (the
invariant flow, in the CLI's ``invariant`` and ``action-check``) in a
forked child, on a second core, while this process calls the other. The
invariant flow's stack lies on an anonymous shared mapping, and its
trajectory is made with the flow, over that stack, so the child writes its
samples where this process reads them; the child reports its error, or
what its call returned (in the CLI's ``invariant``, the spectrum it took
of its flow). ``beside`` is the one fork; where ``os.fork`` is missing, or
the process may run on fewer than two CPUs, the call is made in-process,
with bitwise the same results.

``csv_chunks`` formats CSV text in blocks of at most ``CSV_BLOCK_VALUES``
values, a column bitwise constant over a block once for the block, so only
what varies costs a ``%`` per row; ``write_file`` writes it, as it writes
every output file, whole or not at all, and reports an output it cannot
write as a ``ConfigError`` naming the file.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import BlowupError, ConfigError, ImaginaryPartError, IntegrationError
from .model import LindbladModel
from .superop import Generator

STATE = "state"
INVARIANT = "invariant"

METHODS = ("rk4", "midpoint")

# Hard cap on iterate magnitude, on both flows; the dissipative adjoint flow
# may grow exponentially, which is legitimate, but overflow must be loud.
BLOWUP_CAP = 1e12

# A flow steps by its step matrix P on the entries S it can reach while |S|
# ≤ STEP_MATRIX_MAX_DIM² (P is |S|²·16 bytes; its build steps |S| unit
# operators of d² entries). Measured on constant models, S all d² entries,
# at one BLAS thread (Xeon, 2 cores, best of 5): one RK4 step with one
# channel at d=16 takes 110-160 µs direct, and the 1 MB matrix is built in
# 21 ms; at d=20 the 2.6 MB matrix no longer stays in cache and its 52-60
# ms build repays only grids of more than ~500-1200 steps; from d=24 a
# product is slower than the direct step. Per step, the product and
# symmetrization of one node at a time against those of a chunk of K nodes
# (best of 3 runs): d=2 4.2 µs, 0.05 µs at K=512; d=4 4.2 µs, 0.23 µs at
# K=128; d=8 10 µs, 2.2 µs at K=8 but 3.1 µs at K=32; d=12 15 µs, 17 µs at
# K=8; d=16 23 µs, 49 µs at K=8. So K·|S|² is held to
# 4·``linalg.BLOCK_ENTRIES`` (512 KB): K = 512, 128 and 8 at |S| = 4, 16
# and 64, and 1 from |S| = 144 on (|S| = 20, K = 81 on damped-ho's diagonal).
STEP_MATRIX_MAX_DIM = 16

# CSV text is formatted in blocks of rows of at most this many values (at
# least one row), each block's constant columns once. At d=20 a block is 654
# rows, ~0.1 s of %.17g formatting on one core where every column varies (a
# damped-ho block formats 29 of its 801 columns; the rest are constant).
CSV_BLOCK_VALUES = 1 << 19

__all__ = [
    "TimeGrid",
    "Trajectory",
    "MonitorReport",
    "state_flow",
    "invariant_flow",
    "beside",
    "conservation_series",
    "write_trajectory_csv",
    "csv_chunks",
    "write_file",
    "STATE",
    "INVARIANT",
    "METHODS",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = t_start + k * dt, k = 0..n_steps; a bad one is a
    ``ConfigError`` naming the run config's field."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError("grid.n_steps", "must be ≥ 1")
        if not self.t_end > self.t_start:
            raise ConfigError("grid.t_end", "must exceed grid.t_start")
        if not 0.0 < self.dt < math.inf:  # t_end - t_start may overflow, dt underflow
            raise ConfigError("grid", f"step (t_end - t_start) / n_steps = {self.dt} "
                                      "is not finite and positive")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def nodes(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    def midpoints(self) -> np.ndarray:
        """Every cell midpoint, t_start + dt (k + 1/2) for k = 0..n_steps-1."""
        return self.t_start + self.dt * (np.arange(self.n_steps) + 0.5)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Trajectory:
    """Operator samples on the grid nodes.

    ``samples`` is one complex array of shape ``(n_steps + 1, d, d)``, node
    ``k`` at ``samples[k]``; a list of d×d operators is stacked into it.
    """

    grid: TimeGrid
    samples: np.ndarray
    kind: str
    _hermitian = False  # True on a flow's (read-only): every node is (y + y†)/2, bitwise Hermitian

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
        return asdict(self)


def _step(f, i, y, h, method):
    """The increment of one step of y' = f(i, y) from the node at entry
    ``i`` of ``f``, a ``superop.Generator.span`` with the ±i folded in,
    sampling the model at t, t+h/2, t+h (entries i, i±1, i±2 as h > 0 or
    h < 0): the step takes y to y + ``_step(...)``."""
    d = 1 if h > 0 else -1
    if method == "rk4":
        k1 = f(i, y)
        k2 = f(i + d, y + (0.5 * h) * k1)
        k3 = f(i + d, y + (0.5 * h) * k2)
        k4 = f(i + 2 * d, y + h * k3)
        return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return h * f(i + d, y + (0.5 * h) * f(i, y))


def _propagate(model, y0, grid, dual, first, method, what, samples):
    """The flow y' = ±i generator(y) (+i L* with ``dual``, else -i L) from
    ``y0`` at node ``first`` (0: forward, n_steps: backward) into the stack
    ``samples``, and the largest Hermiticity defect of a raw step (None with
    ``dual``: only the state monitor reports it).

    The flow steps E entries: those of S = ``Generator.support(y0)``, by
    its step matrix, where the lattice is constant on S and 0 < |S| ≤
    ``STEP_MATRIX_MAX_DIM``², else all d², by stages. Blocks of B =
    ``linalg.BLOCK_ENTRIES`` // (4 E) steps keep a block's raw steps, its
    2B + 1 lattice entries (one ``Generator.span``) and the guard's
    temporaries within one block of entries. Each node is written as (y +
    y†)/2 of its raw step; after each block one pass over the raw steps
    raises ``IntegrationError`` (not finite) or ``BlowupError`` (beyond
    ``BLOWUP_CAP``) naming ``what`` and the first such node.

    Stepped by stages, a node is the next step's input. On S a step is
    linear and the same at every node, so it is one |S|×|S| matrix P: the
    step of the |S| unit operators of S, read on S. Its powers are kept as
    increments Q_j = P^j − 1, from the method's own increment Q_1, which
    keeps the digits that a product of plain powers loses. They are built
    by doubling, Q_(j+b) = Q_j Q_b + Q_j + Q_b for b = 1..j in one stacked
    product, so each is about log2(j) roundings from Q_1, not j, in
    log2(K) stacked products, not K small ones (the sequential Q_(j+1) =
    Q_j Q_1 + Q_j + Q_1 was slower and no more accurate). Q_1, ..., Q_K,
    K = min(B, n_steps, 4 ``BLOCK_ENTRIES`` // |S|²), lie side by side in
    one (|S|, K |S|) matrix, so that one product takes the raw steps y_k +
    y_k Q_j of a chunk of m ≤ K nodes from its first, y_k; the chunk's last
    node is the next chunk's input. Each node is scattered onto S, and
    every entry off S is exactly 0. The powers of an unstable model may
    overflow, so K stops at the last finite one: an infinite power would
    make NaN (0 · inf) of a node that stepping one by one keeps finite.
    """
    n = grid.n_steps
    d = 1 if first == 0 else -1
    h = d * grid.dt
    gen = Generator(model.on_grid(grid), dual, 1j if dual else -1j)
    dim, dim2 = model.dim, y0.size
    s = gen.support(y0)  # the entries stepped by P, or None: all d², stepped by stages
    if s is not None and not 0 < s.size <= STEP_MATRIX_MAX_DIM ** 2:
        s = None
    size = dim2 if s is None else s.size
    block = max(1, linalg.BLOCK_ENTRIES // (4 * size))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are checked instead
        if s is not None:
            chunk = max(1, min(block, n, 4 * linalg.BLOCK_ENTRIES // size ** 2))
            units = np.zeros((size, dim2), dtype=complex)
            units[np.arange(size), s] = 1.0
            q = np.empty((chunk, size, size), dtype=complex)  # q[j] = Q_(j+1) = P^(j+1) - 1
            q[0] = _step(gen.span(0, 3), 1 - d, units.reshape(size, dim, dim), h,
                         method).reshape(size, dim2)[:, s]
            j = 1
            while j < chunk:  # Q_(j+b) = Q_j Q_b + Q_j + Q_b for b = 1..j, as one stack
                b = min(j, chunk - j)
                np.matmul(q[j - 1], q[:b], out=q[j:j + b])
                q[j:j + b] += q[j - 1]
                q[j:j + b] += q[:b]
                j += b
            # the finite powers only: 0 · inf is NaN where stepping one by one keeps 0
            chunk = max(1, int(np.isfinite(q).all(axis=(1, 2)).cumprod().sum()))
            q = q[:chunk].transpose(1, 0, 2).reshape(size, chunk * size)  # y q = [y Q_1, ...]
            t = np.searchsorted(s, s % dim * dim + s // dim)  # y[t] is y† on S, conjugated
            flat = samples.reshape(n + 1, dim2)

        samples[first] = y0
        y = y0 if s is None else y0.reshape(-1)[s]
        max_defect = 0.0
        raw = np.empty((block,) + y.shape, dtype=complex)  # a block's raw steps, stepping order
        for k0 in range(first, n - first, d * block):  # the steps from nodes k0..k1-d
            k1 = k0 + d * min(block, abs(n - first - k0))
            steps = raw[:abs(k1 - k0)]
            if s is not None:  # node k + dj is the Hermitian part of y_k + y_k Q_j on S
                nodes = flat[min(k0 + d, k1):max(k0 + d, k1) + 1][::d]  # in stepping order
                nodes[...] = 0.0
                for i in range(0, len(steps), chunk):
                    r = steps[i:i + chunk]
                    np.matmul(y, q[:, :size * len(r)], out=r.reshape(-1))
                    r += y
                    y = r + r[:, t].conj()
                    y /= 2.0  # linalg.hermitize, on S
                    nodes[i:i + chunk, s] = y
                    y = y[-1]
            else:
                lo = min(k0, k1)
                f = gen.span(2 * lo, 2 * max(k0, k1) + 1)
                for i, k in enumerate(range(k0, k1, d)):  # computes node k + d from node k
                    raw[i] = y = y + _step(f, 2 * (k - lo), y, h, method)
                    y = np.add(y, y.conj().T, out=samples[k + d])  # (y + y†) / 2, bitwise
                    y /= 2.0  # linalg.hermitize
                del f  # before the next block binds its span
            # |z| <= 2 max(|Re z|, |Im z|): only a block beyond half the cap needs |z|
            if not np.abs(steps.view(float)).max() <= BLOWUP_CAP / 2:
                mag = np.abs(steps).reshape(len(steps), -1).max(axis=1)
                bad = np.flatnonzero(~(mag <= BLOWUP_CAP))  # NaN fails the comparison too
                if bad.size:
                    dst, m = k0 + d * (bad[0] + 1), float(mag[bad[0]])
                    if not math.isfinite(m):
                        raise IntegrationError(f"non-finite {what} at node {dst}", step=dst)
                    raise BlowupError(
                        f"{what} magnitude {m:.3e} exceeded cap {BLOWUP_CAP:.1e} at node {dst}",
                        step=dst,
                        magnitude=m,
                    )
            if not dual:
                dagger = steps.swapaxes(1, 2) if s is None else steps[:, t]
                max_defect = max(max_defect, np.abs(steps - dagger.conj()).max())
    return None if dual else float(max_defect)


def beside(child, here, what):
    """``(child(), here())``, bitwise the same as the two calls made in turn:
    ``child`` runs in a forked child process while this process calls
    ``here``. The child reports back through a pipe its exception, raised
    here, or its value, pickled (a forked flow's trajectory lies on a
    mapping both processes share, so only what the child takes of it needs
    to come back); a child that ended without a whole report (killed, say)
    raises ``IntegrationError`` naming ``what`` and the exit status. An
    error of ``here`` comes first, and the child is then killed and reaped.
    Where ``os.fork`` is missing, or
    ``os.sched_getaffinity`` gives this process fewer than two CPUs (where a
    child could only take turns with it), ``child`` is called here, after
    ``here``. A fork copies only the calling thread, so call this only from
    a process that runs no other Python threads."""
    if not hasattr(os, "fork") or (hasattr(os, "sched_getaffinity")
                                   and len(os.sched_getaffinity(0)) < 2):
        result = here()
        return child(), result
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then exit without returning to the caller
        status = 1
        try:
            os.close(r)
            try:
                report = None, child()
            except Exception as e:
                report = e, None
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(report, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        result = here()
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # its result is dropped
        raise
    finally:  # killed or done, the child is reaped
        try:
            with os.fdopen(r, "rb") as pipe:
                report = pipe.read()
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:  # killed, say, or the report could not be pickled whole
        raise IntegrationError(f"{what} ended without a result (exit status {status})", step=None)
    error, value = pickle.loads(report)
    if error is not None:
        raise error
    return value, result


def _flow_input(model: LindbladModel, a, method: str, what: str, rtol=linalg.HERMITICITY_RTOL):
    """The Hermitian part of a flow's initial operator ``a``, once the
    method is known and ``a`` is Hermitian within ``rtol`` (else a
    ``NotHermitianError``), of the model's dimension, and its Hermitian part
    finite (else a ``ConfigError``), each error naming ``what``."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite part is refused below
        a = linalg.require_hermitian(a, rtol=rtol, what=what)
    if a.shape != (model.dim, model.dim):
        raise ConfigError(what, f"dimension {a.shape[0]} != model dim {model.dim}")
    if not np.isfinite(a).all():
        raise ConfigError(what, "has a Hermitian part that is not finite")
    return a


def _flow(model, y0, grid, method, dual, first, kind, stack):
    """``(trajectory, run)``: the flow's ``Trajectory``, made here over a
    read-only view of ``stack``, and ``run()``, ``_propagate`` from ``y0``
    at node ``first`` into ``stack``. The trajectory's nodes are defined
    only once ``run`` has returned."""
    traj = Trajectory(grid=grid, samples=stack.view(), kind=kind)
    traj.samples.flags.writeable = False  # so that no edit in place can break the mark
    object.__setattr__(traj, "_hermitian", True)

    def run():
        return _propagate(model, y0, grid, dual, first, method, kind, stack)
    return traj, run


def state_flow(model: LindbladModel, rho0, grid: TimeGrid, method: str = "rk4", *,
               leakage_index: int | None = None):
    """``(trajectory, run)``: the state flow, its inputs checked here, once,
    in this order: the method, ``rho0`` (Hermitian, of the model's
    dimension, with a finite Hermitian part of unit trace within 1e-10 and
    min eigenvalue >= -1e-10; else a ``NotHermitianError`` or
    ``ConfigError``), then the model lattice, sampled here and kept. The
    trajectory is made here, over a stack of its own; its nodes are defined
    only once ``run`` has returned.

    ``run()`` steps the flow and returns a monitor report, truncation
    leakage tracked at ``leakage_index`` (the top retained basis level) if
    given. A step beyond ``BLOWUP_CAP`` raises ``BlowupError``, a non-finite
    one ``IntegrationError``."""
    rho0 = _flow_input(model, rho0, method, "rho0", rtol=1e-10)
    tr0 = linalg.trace(rho0)
    if abs(tr0 - 1.0) > 1e-10:
        raise ConfigError("rho0", f"trace {tr0} is not 1 within 1e-10")
    min_eig0 = float(np.linalg.eigvalsh(rho0)[0])  # rho0 is Hermitian: no second check
    if not min_eig0 >= -1e-10:
        raise ConfigError("rho0", f"has negative eigenvalue {min_eig0}")
    model.on_grid(grid)
    samples = np.empty((grid.n_steps + 1,) + rho0.shape, dtype=complex)
    traj, fill = _flow(model, rho0, grid, method, False, 0, STATE, samples)

    def run():
        max_herm = fill()
        drift = np.max(np.abs(np.trace(samples, axis1=1, axis2=2).real - tr0.real))
        min_eig = np.min(np.linalg.eigvalsh(samples)[:, 0])  # the flow made every node Hermitian
        if leakage_index is not None:
            leak = np.max(samples[:, leakage_index, leakage_index].real)
        else:
            leak = 0.0
        return MonitorReport(
            max_trace_drift=float(drift),
            max_hermiticity_defect=max_herm,
            min_eigenvalue=float(min_eig),
            max_leakage=float(leak),
        )
    return traj, run


def invariant_flow(model: LindbladModel, seed, seed_time: str, grid: TimeGrid,
                   method: str = "rk4", *, what: str = "invariant seed"):
    """``(trajectory, run)``: the flow dI/dt = +i L*(I) across the grid, its
    inputs checked here, once, in this order: ``seed_time`` ("start":
    forward from t_start; "end": backward from t_end, the direction the
    action principle fixes for the auxiliary operator), the method, ``seed``
    (Hermitian, not symmetrized, of the model's dimension, with a finite
    Hermitian part; its errors name ``what``), then the model lattice,
    sampled here and kept, so that a flow run by ``beside`` shares it.

    The trajectory is made here, over a stack on an anonymous shared
    mapping, so that a flow run in a forked child (``beside``) writes it
    where this process reads it; its nodes are defined only once ``run``
    has returned. ``run()`` steps the flow once and returns None. A step
    beyond ``BLOWUP_CAP`` raises ``BlowupError``, a non-finite one
    ``IntegrationError``."""
    if seed_time not in ("start", "end"):
        raise ValueError(f"seed_time must be 'start' or 'end', got {seed_time!r}")
    seed = _flow_input(model, seed, method, what)
    model.on_grid(grid)
    first = 0 if seed_time == "start" else grid.n_steps
    shape = (grid.n_steps + 1,) + seed.shape
    stack = np.frombuffer(mmap.mmap(-1, 16 * math.prod(shape)), dtype=complex).reshape(shape)
    return _flow(model, seed, grid, method, True, first, INVARIANT, stack)


def conservation_series(inv: Trajectory, state: Trajectory) -> np.ndarray:
    """<I>(t_k) = Re tr(I(t_k) rho(t_k)) per node.

    The imaginary parts must be roundoff-level (both trajectories Hermitian);
    anything larger is a failed check, an ``ImaginaryPartError`` naming the node.
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
        raise ImaginaryPartError(f"expectation at node {k} has imaginary part "
                                 f"{values[k].imag:.3e}", step=int(k))
    return values.real.copy()


def write_file(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``path``; on an error mid-way or at
    the flush on close (a full disk, say), remove the partial file. An
    ``OSError`` at the open, a write or the flush (a directory in the file's
    place, a full disk) is an input error naming ``path``, a ``ConfigError``
    (one line and exit 1 in the CLI); any other error is re-raised as it is."""
    try:
        f = open(path, "wb")
        try:
            with f:
                f.writelines(chunks)
        except BaseException:
            os.unlink(path)
            raise
    except OSError as e:
        raise ConfigError(None, f"cannot write {path}: {e.strerror or e}") from None


def csv_chunks(header: list[str], nodes, values):
    """The CSV text of a table, as byte strings: the header row, then the
    rows of ``values``, each led by its node's t, every number with 17
    significant digits (lossless), one block of at most ``CSV_BLOCK_VALUES``
    values (at least one row) at a time, each formatted as it is taken.

    A column whose float64 bits are the same in every row of a block (the
    entries a state never reaches, say) is formatted once, as a literal of
    that block's row format; only the other columns go through ``%`` per
    row. Comparing bits keeps -0.0 apart from +0.0, and NaN payloads apart."""
    yield (",".join(header) + "\n").encode()
    nodes = np.asarray(nodes)
    values = np.asarray(values).reshape(len(nodes), -1)
    rows = max(1, CSV_BLOCK_VALUES // (1 + values.shape[1]))
    for a in range(0, len(nodes), rows):
        table = np.column_stack([nodes[a:a + rows], values[a:a + rows]])
        bits = table.view(np.uint64)
        same = (bits == bits[0]).all(axis=0)
        fmt = ",".join(["%.17g" % v if s else "%.17g"
                        for v, s in zip(table[0].tolist(), same.tolist())]) + "\n"
        yield "".join([fmt % tuple(row) for row in table[:, ~same].tolist()]).encode()


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV export: t, then re_j_k / im_j_k for the row-major operator
    entries, by ``csv_chunks`` and ``write_file``."""
    d = traj.dim
    header = ["t"] + [f"{part}_{j}_{k}"
                      for j in range(d) for k in range(d) for part in ("re", "im")]
    # a complex128 row viewed as float64 interleaves the real and imaginary parts
    values = np.ascontiguousarray(traj.samples).reshape(len(traj.samples), -1).view(np.float64)
    write_file(path, csv_chunks(header, traj.grid.nodes(), values))
