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
