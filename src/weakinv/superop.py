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
K once per span of a sampling; ``apply_liouvillian`` and ``apply_adjoint``
check their input and build K themselves.

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
the one kernel ``hadamard`` (on D for L, on E for L*) follows the
conventions of the K-form kernels (D and E stacked like K), each channel's
``model.Gather`` a term with its weights and 2i alpha (and a flow's ±i)
folded in (``hadamard_terms``).
``LindbladModel`` decides per sampled lattice whether they apply
(``ModelSnapshot.hadamard``: every H diagonal, every jump operator
time-independent with at most one nonzero per row and per column; rates may
vary). Every other lattice runs in K-form. ``apply_liouvillian``,
``apply_adjoint`` and ``build_liouvillian_matrix`` are always K-form, the
reference the Hadamard kernels are checked against.

``Generator(lattice, dual, unit)`` is the one place that picks a lattice's
form and kernel and binds the operators it takes, a span of entries at a
time, sliced from the lattice: per block of steps for the flows, per block
of cells for the action.

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import linalg
from .model import ChannelSnapshot, ModelSnapshot

__all__ = [
    "apply_liouvillian",
    "apply_adjoint",
    "liouvillian",
    "adjoint",
    "hadamard",
    "hadamard_terms",
    "difference",
    "Generator",
    "vec",
    "unvec",
    "build_liouvillian_matrix",
]


def _check_dim(s: ModelSnapshot, a: np.ndarray) -> np.ndarray:
    a = linalg.as_operator(a, stack=True)
    if a.shape[-2:] != (s.dim, s.dim):
        raise ValueError(f"dimension mismatch: operator {a.shape} vs model {(s.dim, s.dim)}")
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


def hadamard(x: np.ndarray, terms, y: np.ndarray) -> np.ndarray:
    """x ∘ y + sum c ∘ y.flat[index] over the ``(index, c)`` of ``terms``
    (``hadamard_terms``), for one operator y or a stack, with x and each c
    one operator or stacked like y; no input checks."""
    out = x * y
    stack = y.ndim > 2  # a stack gathers per node, one operator from its flat entries
    flat = y.reshape(y.shape[:-2] + (-1,)) if stack else y
    for index, c in terms:
        g = flat.take(index, axis=-1 if stack else None)
        g *= c
        out += g
    return out


def hadamard_terms(channels, dual: bool, unit=1) -> tuple:
    """Each channel's ``gather`` as an ``(index, c)`` term of ``hadamard``:
    c = unit 2i alpha (w w†) (v v† with ``dual``), stacked like the rate."""
    return tuple((ch.gather.index_dag, (unit * 2j * ch.alpha) * ch.gather.weights_dag) if dual
                 else (ch.gather.index, (unit * 2j * ch.alpha) * ch.gather.weights)
                 for ch in channels)


def difference(k: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """D_ij = k_i - conj(k_j) for the diagonal k of ``k`` (of each node of
    a stack), the x of ``hadamard`` for L with K = ``k``; with ``adjoint``,
    E = -D̄ = D^T, the one for L*."""
    kd = np.diagonal(k, axis1=-2, axis2=-1)
    if adjoint:
        return kd[..., None, :] - kd.conj()[..., :, None]
    return kd[..., :, None] - kd.conj()[..., None, :]


class Generator:
    """One side's generator (``dual``: L*, else L) of one sampled lattice
    (``LindbladModel.on_grid``) times ``unit``: ``hadamard`` on unit D (or
    unit E), each rate and ``unit`` folded into its channel's term, where
    ``ModelSnapshot.hadamard``, else ``unit`` times the K-form kernel on K.

    ``span(j0, j1)`` is ``f(i, y)``, the generator at entry j0 + i applied
    to y, with entries j0..j1-1 bound in one ``_bind``; ``cells(k0, k1)``
    is the generator at the midpoints of cells k0..k1-1 applied to a stack
    over them, bound with stride 2. A ``constant`` lattice is bound once.
    Where every entry shares one M and one K0 (a ``scaled`` H and
    time-independent channels) x is one broadcast c(t) x_m + x_0 over a
    slice of the lattice's scales, as real arrays (in K-form K = c M + K0
    bitwise but for the sign of a zero); else the form of the effective
    Hamiltonian of the lattice's ``part``, stacked per entry where it
    varies."""

    def __init__(self, lattice: ModelSnapshot, dual: bool, unit=1):
        self.lattice, self.dual, self.unit = lattice, dual, unit
        self.hadamard, self.constant = lattice.hadamard, lattice.constant
        if self.hadamard:
            self._stage = hadamard
        else:
            kernel = adjoint if dual else liouvillian
            self._stage = kernel if unit == 1 else lambda k, chs, y: unit * kernel(k, chs, y)
        fold = self.hadamard and lattice.k0 is not None  # time-independent channels fold once
        self._terms = hadamard_terms(lattice.channels, dual, unit) if fold else None
        self._x_m = self._x_0 = None
        if lattice.scale is not None and lattice.k0 is not None:
            self._x_m, self._x_0 = (np.ascontiguousarray(self._form(k)).view(float)
                                    for k in (lattice.operator, lattice.k0))
        if self.constant:
            self._one = partial(self._stage, *self._bind(0, 1, 1))

    def support(self, y0: np.ndarray) -> np.ndarray | None:
        """The flat indices S of the entries that a flow from ``y0`` can
        reach, or None where the lattice varies on them. In K-form S is all
        d² entries; in Hadamard form it is y0's nonzero entries, closed under
        each term's gather (entry e joins S when ``index[e]`` is in S and
        its weight ``c[e]`` is not 0: a slot of zero weight is no edge). The
        lattice is constant on S where it is ``constant``, or where x is
        c(t) x_m + x_0 with x_m zero on S (as on the diagonal, where the
        scaled H of a Hadamard lattice cancels in D_ii = k_i − conj(k_i))."""
        if not (self.constant or self.hadamard and self._x_m is not None):
            return None
        if not self.hadamard:
            return np.arange(y0.size)
        reach = y0.reshape(-1) != 0
        while True:
            grown = reach.copy()
            for index, c in self._terms:
                grown |= reach[index.reshape(-1)] & (c.reshape(-1) != 0)
            if (grown == reach).all():
                break
            reach = grown
        s = np.flatnonzero(reach)
        if not self.constant and self._x_m.view(complex).reshape(-1)[s].any():
            return None
        return s

    def _form(self, k: np.ndarray) -> np.ndarray:
        return self.unit * difference(k, self.dual) if self.hadamard else k

    def span(self, j0: int, j1: int):
        if self.constant:
            return lambda i, y: self._one(y)
        x, channels = self._bind(j0, j1, 1)
        stage = self._stage
        if self.lattice.k0 is None:  # the channels vary: each entry's, taken once per span
            at = list(zip(*(_entries(ch, j1 - j0) for ch in channels)))
            return lambda i, y: stage(x[i], at[i], y)
        return lambda i, y: stage(x[i], channels, y)

    def cells(self, k0: int, k1: int):
        if self.constant:
            return self._one
        return partial(self._stage, *self._bind(2 * k0 + 1, 2 * k1 + 1, 2))

    def _bind(self, j0: int, j1: int, stride: int):
        """The operator x and the channels (terms in Hadamard form) of
        lattice entries j0, j0 + stride, ... below j1, each stacked per entry
        where it varies; of every entry, for a constant lattice."""
        s = self.lattice
        if self._x_m is not None:
            x = (s.scale if self.constant else s.scale[j0:j1:stride]) * self._x_m
            x += self._x_0
            x = x.view(complex)
        else:
            s = s.part(j0, j1, stride)
            x = self._form(s.effective_hamiltonian())
        channels = s.channels
        if self.hadamard:
            channels = self._terms or hadamard_terms(channels, self.dual, self.unit)
        return x, channels


def _entries(ch, n: int) -> list:
    """A channel, or a Hadamard term ``(index, c)``, at each of ``n``
    entries: each stack row by row, a stacked rate as floats."""
    def rows(v):
        return list(v) if np.ndim(v) == 3 else [v] * n

    if not isinstance(ch, ChannelSnapshot):
        return list(zip(rows(ch[0]), rows(ch[1])))
    alpha = ch.alpha.ravel().tolist() if np.ndim(ch.alpha) else [ch.alpha] * n
    return list(map(ChannelSnapshot, rows(ch.l), rows(ch.l_dag), rows(ch.l_dag_l), alpha))


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
