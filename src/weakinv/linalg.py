"""Dense complex operator algebra for small quantum systems.

Operators are plain square ``complex128`` numpy arrays (row-major); a
trajectory is one ``(n, d, d)`` stack of them. Every function here is pure
and never mutates its arguments, so operators can be shared freely between
threads once built.

The Hermiticity gate and the Hermitian eigenvalues accept one operator or a
whole stack; the eigenvalues come from LAPACK through ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError

# Tolerances are relative to maxabs of the input with an absolute floor.
HERMITICITY_RTOL = 1e-12
TOLERANCE_FLOOR = 1e-14

# Entries per block where a stack is processed a block of nodes at a time
# (128 KB of complex entries, 20 nodes at d=20), so that the temporaries stay
# in cache however long the stack.
BLOCK_ENTRIES = 1 << 13

__all__ = [
    "as_operator",
    "identity",
    "maxabs",
    "dagger",
    "trace",
    "hermitize",
    "hermiticity_defect",
    "check_hermitian",
    "require_hermitian",
    "hermitian_eigenvalues",
]


def as_operator(a, *, stack: bool = False) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, validating the shape.

    With ``stack``, an ``(n, d, d)`` stack of square matrices is accepted too.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    return m


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def maxabs(a) -> float:
    m = np.asarray(a)
    return float(np.max(np.abs(m))) if m.size else 0.0


def dagger(a) -> np.ndarray:
    """Conjugate transpose (of each node, for a stack)."""
    return np.conj(np.asarray(a, dtype=complex)).swapaxes(-1, -2)


def trace(a) -> complex:
    return complex(np.trace(as_operator(a)))


def hermitize(a) -> np.ndarray:
    """Hermitian part ``(a + a†) / 2`` of an operator or a stack; exactly
    Hermitian in floating point."""
    a = as_operator(a, stack=True)
    h = a + dagger(a)
    h /= 2.0
    return h


def hermiticity_defect(a) -> float:
    """``max |a - a†|`` entrywise."""
    a = as_operator(a)
    return maxabs(a - dagger(a))


def check_hermitian(a, rtol: float = HERMITICITY_RTOL, what: str = "operator") -> None:
    """Raise :class:`NotHermitianError` unless ``a`` is Hermitian within tolerance.

    ``a`` is one operator or an ``(n, d, d)`` stack. Each node is held to
    ``rtol * max(1, maxabs)`` of its own entries (floor ``TOLERANCE_FLOOR``),
    and a node with a NaN or infinite entry fails; for a stack the error
    names the first failing node. No copy of ``a`` is kept or returned.
    """
    a = as_operator(a, stack=True)
    nodes = a.reshape((-1,) + a.shape[-2:])
    block = max(1, BLOCK_ENTRIES // a.shape[-1] ** 2)
    for k0 in range(0, len(nodes), block):
        part = nodes[k0:k0 + block]
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries fail below
            defect = np.max(np.abs(part - dagger(part)), axis=(-2, -1))
        scale = np.max(np.abs(part), axis=(-2, -1))
        tol = np.maximum(rtol * np.maximum(1.0, scale), TOLERANCE_FLOOR)
        finite = np.isfinite(scale)
        bad = np.flatnonzero(~finite | (defect > tol))
        if bad.size:
            j = bad[0]
            k = k0 + j
            where = f"{what}[{k}] at node {k}" if a.ndim == 3 else what
            if not finite[j]:
                raise NotHermitianError(f"{where} is not Hermitian: it has a non-finite entry")
            raise NotHermitianError(
                f"{where} is not Hermitian: defect {defect[j]:.3e} "
                f"exceeds tolerance {tol[j]:.3e}"
            )


def require_hermitian(a, rtol: float = HERMITICITY_RTOL, what: str = "operator") -> np.ndarray:
    """Return the Hermitian part of ``a`` once :func:`check_hermitian` passes."""
    check_hermitian(a, rtol=rtol, what=what)
    return hermitize(a)


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian operator, or of every node of a
    ``(n, d, d)`` stack (one row per node), from LAPACK's ``eigvalsh``.

    The input passes :func:`check_hermitian` first, so a Hermiticity defect
    beyond ``HERMITICITY_RTOL * max(1, maxabs)`` raises
    :class:`NotHermitianError`; the solver then reads one triangle of the
    input itself, without a copy.
    """
    a = as_operator(a, stack=True)
    check_hermitian(a, what="eigensolver input")
    return np.linalg.eigvalsh(a)
