"""The Lindblad generator, its Hilbert-Schmidt adjoint, and vectorized forms.

State side (drives i drho/dt = generator(rho)):

    L(rho) = [H, rho] - i sum_n alpha_n (Ln†Ln rho + rho Ln†Ln - 2 Ln rho Ln†)

Observable side, fixed by the pairing convention tr(a L(rho)) = tr(L*(a) rho):

    L*(a) = -[H, a] - i sum_n alpha_n (Ln†Ln a + a Ln†Ln - 2 Ln† a Ln)

Both follow from trace cyclicity, so the two sides of the pairing agree up to
roundoff for any operator pair. Useful consequences that hold termwise:
tr L(rho) = 0 (trace preservation), L*(identity) = 0, and the shift property
L*(a + c*identity) = L*(a) for any c-number c.

Both generators take one operator or an ``(n, d, d)`` stack of them; a stack
is mapped node by node with the one snapshot.

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
    "vec",
    "unvec",
    "VectorizedLiouvillian",
    "build_liouvillian_matrix",
]


def _check_dim(s: ModelSnapshot, a: np.ndarray) -> np.ndarray:
    a = linalg.as_operator(a, stack=True)
    if a.shape[-2:] != s.h.shape:
        raise ValueError(f"dimension mismatch: operator {a.shape} vs model {s.h.shape}")
    return a


def apply_liouvillian(s: ModelSnapshot, rho) -> np.ndarray:
    """Generator on the state side: [H, rho] - i * dissipator."""
    rho = _check_dim(s, rho)
    out = s.h @ rho - rho @ s.h
    for ch in s.channels:
        diss = ch.l_dag_l @ rho + rho @ ch.l_dag_l - 2.0 * (ch.l @ rho @ ch.l_dag)
        out = out - (1j * ch.alpha) * diss
    return out


def apply_adjoint(s: ModelSnapshot, a) -> np.ndarray:
    """Adjoint generator on the observable side: -[H, a] - i * dual dissipator."""
    a = _check_dim(s, a)
    out = a @ s.h - s.h @ a
    for ch in s.channels:
        diss = ch.l_dag_l @ a + a @ ch.l_dag_l - 2.0 * (ch.l_dag @ a @ ch.l)
        out = out - (1j * ch.alpha) * diss
    return out


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
    d = s.dim
    eye = np.eye(d, dtype=complex)
    m = np.kron(eye, s.h) - np.kron(s.h.T, eye)
    for ch in s.channels:
        m = m - (1j * ch.alpha) * (
            np.kron(eye, ch.l_dag_l)
            + np.kron(ch.l_dag_l.T, eye)
            - 2.0 * np.kron(np.conj(ch.l), ch.l)
        )
    return VectorizedLiouvillian(matrix=m)
