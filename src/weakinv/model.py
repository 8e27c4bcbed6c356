"""Time-dependent Lindblad models: schedules, a validated sampling on a grid.

A model bundles a Hamiltonian schedule H(t) with a list of damping channels
(L_n(t), alpha_n(t)). Rates alpha_n must stay nonnegative and H must stay
Hermitian at every evaluated time. ``LindbladModel.on_grid`` samples the
model once at every node and cell midpoint of a time grid, and
``LindbladModel.snapshot`` at one time; both check every sampled value and
raise :class:`ModelValidationError` on the first violation.

A schedule answers for many times at once: ``Schedule.values(times)``,
its values stacked along axis 0, is the one evaluation path of every
built-in kind, and a sampling checks each stack once. User code may define
``__call__(t)`` instead, which the base ``values`` calls once per time.

Either gives one ``ModelSnapshot``, each field stacked over the times only
where it varies: an affine lattice. A ``scaled`` Hamiltonian c(t) M is kept
as its scalars c(t) and one operator M, checked for Hermiticity once (c M is
Hermitian whenever M is and c is real), and the dissipative part K0 = -i
sum_n alpha_n Ln†Ln of K = H + K0 is built once while the channels do not
depend on time. So a driven model holds no per-time operator for H or K.

The same pass over the distinct sampled operators rejects a non-finite H or
jump operator, as one check of every sampled rate and ``scaled``-H scale
rejects a non-finite one (or a scale c at which c M overflows), naming the
schedule and the first such time, and decides once per sampling whether the
generators can run in the Hadamard form of ``superop``
(``ModelSnapshot.hadamard``): every H diagonal, and every jump operator
time-independent with at most one nonzero per row and per column, kept as a
``Gather``. Rates may depend on time.

Schedule kinds are deliberately few: constant, sinusoidal (scalars only),
tabulated with linear interpolation and no extrapolation, and a scalar
schedule scaling a fixed operator. Anything fancier belongs in user code
producing tables.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers

import numpy as np

from . import linalg
from .errors import ModelValidationError, ScheduleDomainError

# Hermiticity tolerance for H(t), relative to its maxabs (floor 1e-14).
HAMILTONIAN_HERMITICITY_RTOL = 1e-10

# Slack for tabulated-domain checks: integrator endpoints land on the table
# edges up to roundoff, which must not count as extrapolation.
_DOMAIN_RTOL = 1e-12


class Schedule:
    """Scalar- or operator-valued function of time. Use the factory functions.

    ``values(times)`` is the one evaluation path of every built-in kind, and
    ``self(t)`` is ``values([t])[0]``. User code may define ``__call__``
    instead; the base ``values`` then calls it once per time. Each kind says
    whether it is constant and whether its values are operators.
    """

    name = "schedule"
    is_constant = False
    is_operator_valued: bool

    def __call__(self, t: float):
        return self.values([t])[0]

    def values(self, times) -> np.ndarray:
        """The values at ``times``, stacked along axis 0."""
        return np.array([self(float(t)) for t in times])


class _Constant(Schedule):
    is_constant = True

    def __init__(self, value, name="constant"):
        if isinstance(value, numbers.Real):
            self.value = float(value)
            if not math.isfinite(self.value):
                raise ModelValidationError(f"{name}: constant value must be finite")
        else:
            self.value = linalg.as_operator(value)
            if not np.all(np.isfinite(self.value)):
                raise ModelValidationError(f"{name}: constant operator has non-finite entries")
        self._one = np.asarray(self.value)[None]  # a stack of the one value
        self.is_operator_valued = self._one.ndim == 3
        self.name = name

    def values(self, times):
        return self._one.repeat(len(times), axis=0)


class _Sinusoidal(Schedule):
    """offset + amplitude * sin(omega * t + phase); scalar-valued only."""

    is_operator_valued = False

    def __init__(self, offset, amplitude, omega, phase=0.0, name="sinusoidal"):
        params = (float(offset), float(amplitude), float(omega), float(phase))
        if not all(math.isfinite(p) for p in params):
            raise ModelValidationError(f"{name}: sinusoidal parameters must be finite")
        self.offset, self.amplitude, self.omega, self.phase = params
        self.name = name

    def values(self, times):
        # where omega t + phase is not finite the value is NaN, never an error or a warning
        with np.errstate(over="ignore", invalid="ignore"):
            x = self.omega * np.asarray(times, dtype=float) + self.phase
            sin = np.sin(x, out=np.full_like(x, math.nan), where=np.isfinite(x))
            return self.offset + self.amplitude * sin


class _Tabulated(Schedule):
    """Linear interpolation between strictly increasing knots; no extrapolation."""

    def __init__(self, times, values, name="tabulated"):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ModelValidationError(f"{name}: need at least two knots")
        if not np.all(np.isfinite(self.times)) or np.any(np.diff(self.times) <= 0):
            raise ModelValidationError(f"{name}: knot times must be finite and strictly increasing")
        if len(values) != self.times.size:
            raise ModelValidationError(f"{name}: {len(values)} values for {self.times.size} knots")
        if isinstance(values[0], numbers.Real):
            self.table = np.asarray(values, dtype=float)
            if self.table.ndim != 1 or not np.all(np.isfinite(self.table)):
                raise ModelValidationError(f"{name}: scalar table must be finite numbers")
        else:
            ops = [linalg.as_operator(v) for v in values]
            if any(o.shape != ops[0].shape for o in ops):
                raise ModelValidationError(f"{name}: tabulated operators differ in dimension")
            self.table = np.stack(ops)
            bad = np.flatnonzero(~np.isfinite(self.table).all(axis=(1, 2)))
            if bad.size:
                k = int(bad[0])
                raise ModelValidationError(f"{name}: operator knot {k} at "
                                           f"t={float(self.times[k])} has non-finite entries")
        self.is_operator_valued = self.table.ndim == 3
        self.name = name

    def values(self, times):
        """One domain check naming the first time outside the table, then
        ``np.interp`` of a scalar table, or (1 - w) A_k + w A_k+1 of an
        operator table as one stacked blend, w A_k+1 added a block of
        ``linalg.BLOCK_ENTRIES`` entries at a time."""
        times = np.asarray(times, dtype=float)
        t0, t1 = float(self.times[0]), float(self.times[-1])
        slack = _DOMAIN_RTOL * max(1.0, abs(t0), abs(t1))
        outside = np.flatnonzero((times < t0 - slack) | (times > t1 + slack))
        if outside.size:
            raise ScheduleDomainError(f"{self.name}: t={float(times[outside[0]])!r} "
                                      f"outside tabulated range [{t0}, {t1}]")
        times = np.clip(times, t0, t1)
        if not self.is_operator_valued:
            return np.interp(times, self.times, self.table)
        k = np.clip(np.searchsorted(self.times, times, side="right") - 1, 0, self.times.size - 2)
        w = ((times - self.times[k]) / (self.times[k + 1] - self.times[k]))[:, None, None]
        # blended in place, so that the gathered stack A_k is the only whole one made
        out = self.table[k]
        out *= 1.0 - w
        rows = max(1, linalg.BLOCK_ENTRIES // self.table[0].size)
        for a in range(0, len(out), rows):
            b = self.table[k[a:a + rows] + 1]
            b *= w[a:a + rows]
            out[a:a + rows] += b
        return out


class _ScaledOperator(Schedule):
    """Scalar schedule times a fixed operator (the only time-dependent operator
    form besides tables; entrywise-independent time dependence is not a thing
    here)."""

    is_operator_valued = True

    def __init__(self, scalar: Schedule, operator, name="scaled"):
        if not isinstance(scalar, Schedule) or scalar.is_operator_valued:
            raise ModelValidationError(f"{name}: scaling schedule must be scalar-valued")
        self.scalar = scalar
        self.is_constant = scalar.is_constant
        self.operator = linalg.as_operator(operator)
        if not np.all(np.isfinite(self.operator)):
            raise ModelValidationError(f"{name}: operator has non-finite entries")
        self.name = name

    def values(self, times):
        return self.scalar.values(times)[:, None, None] * self.operator


def constant(value, name="constant") -> Schedule:
    return _Constant(value, name=name)


def sinusoidal(offset, amplitude, omega, phase=0.0, name="sinusoidal") -> Schedule:
    return _Sinusoidal(offset, amplitude, omega, phase, name=name)


def tabulated(times, values, name="tabulated") -> Schedule:
    return _Tabulated(times, values, name=name)


def scaled(scalar_schedule, operator, name="scaled") -> Schedule:
    return _ScaledOperator(scalar_schedule, operator, name=name)


def _as_schedule(value, *, name):
    if isinstance(value, Schedule):
        return value
    return _Constant(value, name=name)


@dataclass(frozen=True)
class Gather:
    """A jump operator L with at most one nonzero per row and per column
    (row i holds w_i at column sigma(i), w_i = 0 for an empty row, and sigma
    is completed to a permutation with tau its inverse) as the entrywise
    factors of its two sandwiches, for one operator X or a stack:

        L X L† = weights ∘ X[sigma, sigma],    L† X L = weights_dag ∘ X[tau, tau]

    ``index`` and ``index_dag`` hold the flat indices sigma(i) d + sigma(j)
    and tau(i) d + tau(j); the weights are w w† and v v†, v_i = conj(w_tau(i))."""

    index: np.ndarray
    weights: np.ndarray
    index_dag: np.ndarray
    weights_dag: np.ndarray


def _gather(l: np.ndarray) -> Gather | None:
    """``l`` as a ``Gather``, or None if a row or a column holds two nonzeros."""
    d = len(l)
    rows, cols = (ix.tolist() for ix in np.nonzero(l))
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return None
    # sigma sends each empty row to an empty column, so that it is a permutation
    empty = iter(sorted(set(range(d)) - set(cols)))
    at = dict(zip(rows, cols))
    sigma = np.array([at[i] if i in at else next(empty) for i in range(d)])
    tau = np.empty_like(sigma)
    tau[sigma] = np.arange(d)
    w = l[np.arange(d), sigma]
    v = w[tau].conj()
    return Gather(sigma[:, None] * d + sigma, w[:, None] * w.conj(),
                  tau[:, None] * d + tau, v[:, None] * v.conj())


def _cut(value, entries: slice):
    """``value[entries]`` for a stack over the entries (3 axes), else ``value``."""
    return value[entries] if np.ndim(value) == 3 else value


@dataclass(frozen=True)
class ChannelSnapshot:
    """One channel of a sampling, its operators and rate each one value or a
    stack over the entries (``alpha`` as ``(n, 1, 1)``). ``gather`` is the
    operator as a ``Gather`` in a sampling that runs in Hadamard form."""

    l: np.ndarray
    l_dag: np.ndarray
    l_dag_l: np.ndarray
    alpha: float | np.ndarray
    gather: Gather | None = None


@dataclass(frozen=True, slots=True)
class ModelSnapshot:
    """The model sampled at one time or at every entry of a lattice, with
    the products every generator application needs cached. Each field is
    one value shared by every entry, or a stack over the entries along axis
    0 where it varies: H's operator (a tabulated H), ``scale`` as an
    ``(n, 1, 1)`` array, and each channel's operators and rate.

    H is ``scale * operator`` for a ``scaled`` schedule (the operator is the
    shared M) and ``operator`` itself when ``scale`` is None. ``k0`` is the
    shared dissipative part of the effective Hamiltonian, or None when the
    channels vary and it is built per call. ``hadamard`` is set where every
    H is diagonal and every channel has a ``gather``: K is then diagonal,
    and the generators can run in the Hadamard form of ``superop``.
    ``constant``: no field is stacked, as for one time or a constant model.
    """

    operator: np.ndarray
    scale: float | np.ndarray | None
    channels: tuple[ChannelSnapshot, ...]
    k0: np.ndarray | None
    hadamard: bool
    constant: bool

    @property
    def h(self) -> np.ndarray:
        """H (per entry where it varies); bitwise ``float(c) * M`` if ``scaled``."""
        return self.operator if self.scale is None else self.scale * self.operator

    @property
    def dim(self) -> int:
        return self.operator.shape[-1]

    def effective_hamiltonian(self) -> np.ndarray:
        """K = H - i sum_n alpha_n Ln†Ln, built anew on each call."""
        k0 = dissipative_part(self.channels, self.dim) if self.k0 is None else self.k0
        return self.h + k0

    def part(self, j0: int, j1: int, stride: int = 1) -> ModelSnapshot:
        """Entries j0, j0 + stride, ... below j1, each stack sliced (a view)."""
        cut = slice(j0, j1, stride)
        channels = tuple(ChannelSnapshot(*(_cut(v, cut) for v in (ch.l, ch.l_dag, ch.l_dag_l)),
                                         _cut(ch.alpha, cut), ch.gather) for ch in self.channels)
        return ModelSnapshot(_cut(self.operator, cut), _cut(self.scale, cut), channels, self.k0,
                             self.hadamard, self.constant)


def dissipative_part(channels, dim: int) -> np.ndarray:
    """K0 = -i sum_n alpha_n Ln†Ln, the non-Hermitian part of K; with the
    rates (or operators) of ``channels`` stacked over entries, the stack of
    each entry's K0, bitwise."""
    k0 = np.zeros((dim, dim), dtype=complex)
    for ch in channels:
        k0 = k0 - (1j * ch.alpha) * ch.l_dag_l
    return k0


class Channel:
    def __init__(self, op, alpha):
        self.op = _as_schedule(op, name="channel op")
        self.alpha = _as_schedule(alpha, name="channel alpha")
        if not self.op.is_operator_valued:
            raise ModelValidationError("channel op schedule must be operator-valued")
        if self.alpha.is_operator_valued:
            raise ModelValidationError("channel alpha schedule must be scalar-valued")


class LindbladModel:
    """Bundle (H(t), {(L_n(t), alpha_n(t))}) on a fixed dimension.

    The schedules are fixed at construction. The model keeps the validated
    sampling of the last grid passed to ``on_grid``, so every pass of one
    run over the same grid samples the model once.
    """

    def __init__(self, dim: int, hamiltonian, channels=()):
        self.dim = int(dim)
        if self.dim < 1:
            raise ModelValidationError("dim must be >= 1")
        self.hamiltonian = _as_schedule(hamiltonian, name="hamiltonian")
        if not self.hamiltonian.is_operator_valued:
            raise ModelValidationError("hamiltonian schedule must be operator-valued")
        self.channels = tuple(ch if isinstance(ch, Channel) else Channel(*ch) for ch in channels)
        for label, sched in [("hamiltonian", self.hamiltonian)] + [
                (f"channels[{i}].op", ch.op) for i, ch in enumerate(self.channels)]:
            # a built-in kind's empty stack of values, (0, d, d), has its dimension
            shape = sched.values([]).shape
            if len(shape) == 3 and shape[-1] != self.dim:
                raise ModelValidationError(
                    f"{label}: operator dimension {shape[-1]} != model dim {self.dim}")
        self._lattice = None  # (grid, sampling) of the last on_grid call

    def snapshot(self, t: float) -> ModelSnapshot:
        """The model at one time ``t``, validated; deterministic for equal ``t``."""
        return self._sample(np.array([float(t)]))

    def on_grid(self, grid) -> ModelSnapshot:
        """The model sampled and validated at the ``2 n_steps + 1`` times
        ``t_start + (dt/2) j``: node k at entry 2k and the midpoint of cell k
        at entry 2k + 1, bitwise equal to ``grid.nodes()[k]`` and
        ``grid.midpoints()[k]``; each field that varies is stacked over them.

        The result for the last grid is kept and returned again for an equal
        grid.
        """
        lattice = self._lattice
        if lattice is None or lattice[0] != grid:
            times = grid.t_start + (0.5 * grid.dt) * np.arange(2 * grid.n_steps + 1)
            lattice = self._lattice = (grid, self._sample(times))
        return lattice[1]

    @np.errstate(invalid="ignore", over="ignore")  # a non-finite value fails the checks instead
    def _sample(self, times: np.ndarray) -> ModelSnapshot:
        """The model at ``times``, each schedule evaluated as one stack and
        each stack checked once. A time-independent schedule, and the
        products built from it, are evaluated, checked and kept once; a
        ``scaled`` Hamiltonian is its scalar per time and one operator,
        checked at the first time. The one pass over the distinct operators
        also decides ``hadamard``; a channel's ``gather`` is built only while
        the sampling may still qualify."""
        ham = self.hamiltonian
        if isinstance(ham, _ScaledOperator):
            ops = ham.operator[None]  # finite, and of the model's dimension, once built
            scale = self._scalars("hamiltonian", ham.scalar, times, "scale")
            # c M is finite wherever |c| maxabs(M) is; refuse the other times
            ok = np.isfinite(np.abs(scale) * linalg.maxabs(ham.operator))
            if not ok.all():
                t = float(times[ok.argmin()])
                raise ModelValidationError(f"hamiltonian: non-finite entry at t={t}")
            scale = _stack(scale)
        else:
            ops = self._operators("hamiltonian", ham, times)
            scale = None
        hadamard, channels = _check_hamiltonian(ops, times), []
        for i, ch in enumerate(self.channels):
            channels.append(self._sample_channel(i, ch, times, hadamard))
            hadamard = hadamard and channels[-1].gather is not None
        varying = any(np.ndim(ch.alpha) or ch.l.ndim == 3 for ch in channels)
        k0 = None if varying else dissipative_part(channels, self.dim)  # else built per entry
        constant = k0 is not None and len(ops) == 1 and np.ndim(scale) == 0
        return ModelSnapshot(_stack(ops), scale, tuple(channels), k0, hadamard, constant)

    def _sample_channel(self, i, ch, times, gather: bool) -> ChannelSnapshot:
        """The channel at ``times``, with its ``gather`` if asked for and
        the operator is time-independent."""
        label = f"channels[{i}]"
        alphas = self._scalars(f"{label}.alpha", ch.alpha, times, "rate", floor=0.0)
        ls = self._operators(f"{label}.op", ch.op, times)
        dags = linalg.dagger(ls)
        return ChannelSnapshot(_stack(ls), _stack(dags), _stack(dags @ ls), _stack(alphas),
                               _gather(ls[0]) if gather and ch.op.is_constant else None)

    @staticmethod
    def _evaluate(label, sched, times) -> np.ndarray:
        """The stack of ``sched``'s values at ``times``, or of its one value if constant."""
        try:
            return sched.values(times[:1] if sched.is_constant else times)
        except ScheduleDomainError as e:
            raise ScheduleDomainError(f"{label}: {e}") from None

    def _scalars(self, label, sched, times, what, floor=-math.inf) -> np.ndarray:
        """The scalar ``sched`` at ``times`` (see ``_evaluate``), each finite and >= ``floor``."""
        values = np.asarray(self._evaluate(label, sched, times), dtype=float)
        ok = np.isfinite(values) & (values >= floor)
        if not ok.all():
            k = ok.argmin()
            v, t = values[k], float(times[k])
            problem = f"negative-{what}" if math.isfinite(v) else f"non-finite {what}"
            raise ModelValidationError(f"{label}: {problem} {v} at t={t}")
        return values

    def _operators(self, label, sched, times) -> np.ndarray:
        """The operator ``sched`` at ``times`` (see ``_evaluate``) as a stack,
        each of the model's dimension with finite entries."""
        ops = linalg.as_operator(self._evaluate(label, sched, times), stack=True)
        if ops.shape[-1] != self.dim:
            raise ModelValidationError(
                f"{label}: dimension {ops.shape[-1]} != model dim {self.dim} at t={float(times[0])}"
            )
        finite = np.isfinite(ops).all(axis=(1, 2))
        if not finite.all():
            t = float(times[finite.argmin()])
            raise ModelValidationError(f"{label}: non-finite entry at t={t}")
        return ops


def _check_hamiltonian(ops: np.ndarray, times) -> bool:
    """Raise unless each H of the stack ``ops`` is Hermitian within its own
    tolerance, naming the first time that is not; return whether every H is
    diagonal. A block of ``linalg.BLOCK_ENTRIES`` entries at a time, so that
    the temporaries stay small however long the stack."""
    diagonal = True
    block = max(1, linalg.BLOCK_ENTRIES // ops.shape[-1] ** 2)
    for k0 in range(0, len(ops), block):
        part = ops[k0:k0 + block]
        defect = np.abs(part - linalg.dagger(part)).max(axis=(1, 2))
        tol = np.maximum(HAMILTONIAN_HERMITICITY_RTOL * np.abs(part).max(axis=(1, 2)),
                         linalg.TOLERANCE_FLOOR)
        bad = defect > tol
        if bad.any():
            j = bad.argmax()
            raise ModelValidationError(
                f"hamiltonian not Hermitian at t={float(times[k0 + j])}: defect {defect[j]:.3e}"
            )
        diagonal = diagonal and _is_diagonal(part)
    return diagonal


def _is_diagonal(ops: np.ndarray) -> bool:
    # in each entry, the entries after each diagonal one, up to the next: all the off-diagonal ones
    n, d = len(ops), ops.shape[-1]
    return not ops.reshape(n, d * d)[:, :-1].reshape(n, d - 1, d + 1)[:, :, 1:].any()


def _stack(values: np.ndarray):
    """The one value of a time-independent schedule (a float if scalar), else
    its stack of values: operators C-contiguous (a dagger comes as a
    transposed view), scalars as ``(n, 1, 1)``."""
    if len(values) == 1:
        return float(values[0]) if values.ndim == 1 else values[0]
    return values[:, None, None] if values.ndim == 1 else np.ascontiguousarray(values)
