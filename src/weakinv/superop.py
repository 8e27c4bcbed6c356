"""The Lindblad generator, its Hilbert-Schmidt adjoint, and vectorized forms.

State side (drives i drho/dt = generator(rho)):

    L(rho) = [H, rho] - i sum_n alpha_n (Ln†Ln rho + rho Ln†Ln - 2 Ln rho Ln†)

Observable side, fixed by the pairing convention tr(a L(rho)) = tr(L*(a) rho):

    L*(a) = -[H, a] - i sum_n alpha_n (Ln†Ln a + a Ln†Ln - 2 Ln† a Ln)

Both follow from trace cyclicity, so the two sides of the pairing agree up to
roundoff for any operator pair. Useful consequences that hold termwise:
tr L(rho) = 0 (trace preservation), L*(identity) = 0, and the shift property
L*(a + c*identity) = L*(a) for any c-number c.

Both are evaluated through the non-Hermitian effective Hamiltonian
K = H - i sum_n alpha_n Ln†Ln of quantum-jump unravellings (Dalibard,
Castin & Mølmer, PRL 68, 580 (1992); Plenio & Knight, RMP 70, 101 (1998)):

    L(rho) = K rho - rho K† + 2i sum_n alpha_n Ln rho Ln†
    L*(a)  = a K - K† a + 2i sum_n alpha_n Ln† a Ln

which takes 2 + 2m matrix products for m channels instead of 2 + 4m. Both
identities hold for any input, Hermitian or not. ``liouvillian`` and
``adjoint`` are the unchecked kernels on a prebuilt K, for loops that build
K once per snapshot; ``apply_liouvillian`` and ``apply_adjoint`` check their
input and build K themselves.

Every generator takes one operator or an ``(n, d, d)`` stack of them; a
stack is mapped node by node with the one snapshot. The unchecked kernels
also take K, and each channel's operators and rate, as stacks over the same
nodes (a rate as an ``(n, 1, 1)`` array), so that the cells of a driven
model are applied one block at a time, each with its own K.

Hadamard form. Where K is diagonal and every jump is a weighted partial
permutation (row i of Ln holds w_i at column sigma(i), w_i = 0 for an empty
row; Ln† is then described by tau = sigma^-1 and v_i = conj(w_tau(i))), both
generators need only O(d²) entrywise work. With k = diag K, the entrywise
product ∘ and D_ij = k_i - conj(k_j):

    L(rho) = D ∘ rho + 2i sum_n alpha_n (wn wn†) ∘ rho[sigma_n, sigma_n]
    L*(a)  = E ∘ a   + 2i sum_n alpha_n (vn vn†) ∘ a[tau_n, tau_n]

with E = -D̄ = D^T, built as its own contiguous array. These identities
hold exactly for any input, Hermitian or not, one operator or a stack, so
``hadamard_liouvillian`` (on D) and ``hadamard_adjoint`` (on E) follow the
conventions of the K-form kernels (D and E stacked like K, each channel's
``gather`` a ``model.Gather``).
``LindbladModel`` decides per sampled lattice whether they apply
(``ModelSnapshot.hadamard``: every H diagonal, every jump operator
time-independent with at most one nonzero per row and per column; rates may
vary). Every other lattice runs in K-form. ``apply_liouvillian``,
``apply_adjoint`` and ``build_liouvillian_matrix`` are always K-form, the
reference the Hadamard kernels are checked against.

``Generator(lattice, dual)`` is the one place that picks a lattice's form
and kernel and builds the operator it takes: the flows bind it per lattice
entry (``at``), the action per block of cell midpoints (``cells``).

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import linalg
from .model import ChannelSnapshot, ModelSnapshot, dissipative_part

__all__ = [
    "apply_liouvillian",
    "apply_adjoint",
    "liouvillian",
    "adjoint",
    "hadamard_liouvillian",
    "hadamard_adjoint",
    "difference",
    "Generator",
    "vec",
    "unvec",
    "build_liouvillian_matrix",
]


def _check_dim(s: ModelSnapshot, a: np.ndarray) -> np.ndarray:
    a = linalg.as_operator(a, stack=True)
    if a.shape[-2:] != s.operator.shape:
        raise ValueError(f"dimension mismatch: operator {a.shape} vs model {s.operator.shape}")
    return a


def liouvillian(k: np.ndarray, channels, rho: np.ndarray) -> np.ndarray:
    """K rho - rho K† + 2i sum alpha L rho L† for the effective Hamiltonian
    ``k`` of the snapshot whose ``channels`` are given, each one operator
    or a stack over the nodes of ``rho``; no input checks."""
    out = k @ rho
    out -= rho @ k.conj().swapaxes(-1, -2)
    for ch in channels:
        out += (2j * ch.alpha) * (ch.l @ rho @ ch.l_dag)
    return out


def adjoint(k: np.ndarray, channels, a: np.ndarray) -> np.ndarray:
    """a K - K† a + 2i sum alpha L† a L for the effective Hamiltonian ``k``
    of the snapshot whose ``channels`` are given, each one operator or a
    stack over the nodes of ``a``; no input checks."""
    out = a @ k
    out -= k.conj().swapaxes(-1, -2) @ a
    for ch in channels:
        out += (2j * ch.alpha) * (ch.l_dag @ a @ ch.l)
    return out


def hadamard_liouvillian(dk: np.ndarray, channels, rho: np.ndarray) -> np.ndarray:
    """D ∘ rho + 2i sum alpha (w w†) ∘ rho[sigma, sigma] for ``dk`` = D of a
    Hadamard-form snapshot whose ``channels`` are given, each rate one
    number or a stack over the nodes of ``rho``; no input checks."""
    out = dk * rho
    flat = rho.reshape(*rho.shape[:-2], -1)
    for ch in channels:
        g = flat.take(ch.gather.index, axis=-1)
        g *= ch.gather.weights
        g *= 2j * ch.alpha
        out += g
    return out


def hadamard_adjoint(ek: np.ndarray, channels, a: np.ndarray) -> np.ndarray:
    """E ∘ a + 2i sum alpha (v v†) ∘ a[tau, tau] for ``ek`` = E = -D̄ of a
    Hadamard-form snapshot whose ``channels`` are given, each rate one
    number or a stack over the nodes of ``a``; no input checks."""
    out = ek * a
    flat = a.reshape(*a.shape[:-2], -1)
    for ch in channels:
        g = flat.take(ch.gather.index_dag, axis=-1)
        g *= ch.gather.weights_dag
        g *= 2j * ch.alpha
        out += g
    return out


def difference(k: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """D_ij = k_i - conj(k_j) for the diagonal k of ``k`` (of each node of
    a stack), the operator ``hadamard_liouvillian`` takes for K = ``k``;
    with ``adjoint``, E = -D̄ = D^T, the one ``hadamard_adjoint`` takes."""
    kd = np.diagonal(k, axis1=-2, axis2=-1)
    if adjoint:
        return kd[..., None, :] - kd.conj()[..., :, None]
    return kd[..., :, None] - kd.conj()[..., None, :]


class Generator:
    """One side's generator (``dual``: L*, else L) of one sampled lattice
    (``LindbladModel.on_grid``), bound to its operator and channels, with
    the kernel chosen once from the lattice's form: Hadamard on D (or E)
    where ``ModelSnapshot.hadamard``, else K-form on K.

    ``at(j)`` is the kernel bound to lattice entry ``j``; the last ``KEPT``
    are kept, so that a step of a flow finds its first node's kernel bound
    by the step before, and a constant model's one kernel is bound once.
    ``cells(k0, k1)`` is the kernel bound to the midpoints of cells
    k0..k1-1 as one stack (a constant model's one entry serves them all).
    Where every entry shares one M and one K0 (a ``scaled`` H and
    time-independent channels) the operator is c(t) x_m + x_0, with x_m and
    x_0 the form of M and K0, built once (bitwise K = c M + K0 in K-form);
    otherwise it is the form of K = H + K0, with H and the channels stacked
    per cell only where they vary."""

    KEPT = 3

    def __init__(self, lattice, dual: bool):
        first = lattice[0]
        self.lattice, self.dual, self.hadamard = lattice, dual, first.hadamard
        if dual:
            self.kernel = hadamard_adjoint if self.hadamard else adjoint
        else:
            self.kernel = hadamard_liouvillian if self.hadamard else liouvillian
        if first.scale is not None and first.k0 is not None:
            self._x_m, self._x_0 = self._form(first.operator), self._form(first.k0)
        else:
            self._x_m = self._x_0 = None
        self._kept = {}  # id of a lattice entry (held alive by self.lattice) -> kernel

    def _form(self, k: np.ndarray) -> np.ndarray:
        return difference(k, self.dual) if self.hadamard else k

    def at(self, j: int):
        s = self.lattice[j]
        bound = self._kept.get(id(s))
        if bound is None:
            bound = self._bind(s, s.scale, s.operator, s.channels)
            if len(self._kept) == self.KEPT:
                del self._kept[next(iter(self._kept))]
            self._kept[id(s)] = bound
        return bound

    def cells(self, k0: int, k1: int):
        if self.lattice[0] is self.lattice[-1]:  # a constant model's lattice is one entry
            return self.at(1)
        part = self.lattice[2 * k0 + 1:2 * k1 + 1:2]
        s = part[0]
        scale = None if s.scale is None else np.array([c.scale for c in part])[:, None, None]
        channels = s.channels if s.k0 is not None else _stacked_channels(part)
        shared = s.operator is self.lattice[-1].operator  # else H is tabulated per entry
        h = s.operator if shared else np.stack([c.operator for c in part])
        return self._bind(s, scale, h, channels)

    def _bind(self, s: ModelSnapshot, scale, operator, channels):
        """The kernel bound to H = ``scale`` ``operator`` (``operator`` where
        ``scale`` is None) and ``channels``, of one entry or stacked per
        cell, with the lattice's shared K0 read from entry ``s``."""
        if self._x_m is not None:
            x = scale * self._x_m + self._x_0
        else:
            h = operator if scale is None else scale * operator
            x = self._form(h + (dissipative_part(channels, s.dim) if s.k0 is None else s.k0))
        return partial(self.kernel, x, channels)


def _stacked_channels(snaps) -> tuple:
    """The channels of cell snapshots, each rate stacked per cell as an
    ``(n, 1, 1)`` array and each operator too where it varies."""
    def per_cell(values):
        return values[0] if all(v is values[0] for v in values) else np.stack(values)

    stacked = []
    for i in range(len(snaps[0].channels)):
        cells = [s.channels[i] for s in snaps]
        stacked.append(ChannelSnapshot(
            l=per_cell([c.l for c in cells]),
            l_dag=per_cell([c.l_dag for c in cells]),
            l_dag_l=per_cell([c.l_dag_l for c in cells]),
            alpha=np.array([c.alpha for c in cells])[:, None, None],
            gather=cells[0].gather))
    return tuple(stacked)


def apply_liouvillian(s: ModelSnapshot, rho) -> np.ndarray:
    """Generator on the state side: [H, rho] - i * dissipator."""
    return liouvillian(s.effective_hamiltonian(), s.channels, _check_dim(s, rho))


def apply_adjoint(s: ModelSnapshot, a) -> np.ndarray:
    """Adjoint generator on the observable side: -[H, a] - i * dual dissipator."""
    return adjoint(s.effective_hamiltonian(), s.channels, _check_dim(s, a))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization."""
    return linalg.as_operator(a).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def build_liouvillian_matrix(s: ModelSnapshot) -> np.ndarray:
    """The d² x d² matrix M = I kron K - conj(K) kron I + 2i sum alpha
    conj(L) kron L, with M @ vec(rho) = vec(L(rho))."""
    d = s.dim
    eye = np.eye(d, dtype=complex)
    k = s.effective_hamiltonian()
    m = np.kron(eye, k) - np.kron(np.conj(k), eye)
    for ch in s.channels:
        m += (2j * ch.alpha) * np.kron(np.conj(ch.l), ch.l)
    return m
