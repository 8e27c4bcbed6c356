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
vary), and ``GeneratorForm`` builds the operator they take. Every other
lattice runs in K-form. ``apply_liouvillian``, ``apply_adjoint`` and
``build_liouvillian_matrix`` are always K-form, the reference the Hadamard
kernels are checked against.

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .model import ModelSnapshot

__all__ = [
    "apply_liouvillian",
    "apply_adjoint",
    "liouvillian",
    "adjoint",
    "hadamard_liouvillian",
    "hadamard_adjoint",
    "difference",
    "GeneratorForm",
    "vec",
    "unvec",
    "VectorizedLiouvillian",
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


class GeneratorForm:
    """The form in which one side's generator (``adjoint``: L*, else L) of
    one sampled lattice runs, decided from any of its entries ``snap``:
    Hadamard (``hadamard``, on D or E) or K-form (on K). ``form(k)`` maps K
    (or a stack) to the operator the side's kernel takes, and
    ``operator(s)`` builds it for an entry ``s``. Where every entry shares
    one M and one K0 (a ``scaled`` H and time-independent channels) that
    operator is c(t) x_m + x_0, with ``x_m`` and ``x_0`` built once,
    bitwise K = c M + K0 in K-form; otherwise they are None and it is built
    from the entry's K. The operators of the last ``KEPT`` entries are
    kept, so that a step of a flow finds its first node's operator built
    by the step before, and a constant model's one operator is built once."""

    KEPT = 3

    def __init__(self, snap: ModelSnapshot, adjoint: bool):
        self.hadamard, self.adjoint = snap.hadamard, adjoint
        if snap.scale is not None and snap.k0 is not None:
            self.x_m, self.x_0 = self.form(snap.operator), self.form(snap.k0)
        else:
            self.x_m = self.x_0 = None
        self._kept = {}  # id of a lattice entry (the lattice outlives the form) -> operator

    def form(self, k: np.ndarray) -> np.ndarray:
        return difference(k, self.adjoint) if self.hadamard else k

    def operator(self, s: ModelSnapshot) -> np.ndarray:
        x = self._kept.get(id(s))
        if x is None:
            if self.x_m is None:
                x = self.form(s.effective_hamiltonian())
            else:
                x = s.scale * self.x_m + self.x_0
            if len(self._kept) == self.KEPT:
                del self._kept[next(iter(self._kept))]
            self._kept[id(s)] = x
        return x


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


@dataclass(frozen=True)
class VectorizedLiouvillian:
    """dim² x dim² matrix M with M @ vec(rho) = vec(L(rho))."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(self.matrix.shape[0] ** 0.5))

    def apply(self, rho) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)


def build_liouvillian_matrix(s: ModelSnapshot) -> VectorizedLiouvillian:
    """M = I kron K - conj(K) kron I + 2i sum alpha conj(L) kron L."""
    d = s.dim
    eye = np.eye(d, dtype=complex)
    k = s.effective_hamiltonian()
    m = np.kron(eye, k) - np.kron(np.conj(k), eye)
    for ch in s.channels:
        m += (2j * ch.alpha) * np.kron(np.conj(ch.l), ch.l)
    return VectorizedLiouvillian(matrix=m)
