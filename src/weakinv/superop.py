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
of cells for the action. A flow binds it to the entries S it can reach
(``Generator.support`` and ``Generator.on``): in Hadamard form x, each
weight and each gather then act on the vector of a flow's values on S.

Vectorization is column-stacking: vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import copy
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
    one operator or stacked like y; no input checks. On the entries S of a
    flow (``Generator.on``) y is one vector on S or a stack of them, x and
    each c are vectors on S, and each index holds positions in S."""
    out = x * y
    # on S (x a vector) y's last axis holds the entries; each node of a stack gathers its own
    flat = y if x.ndim == 1 else y.reshape(y.shape[:-2] + (-1,))
    for index, c in terms:
        g = flat.take(index, axis=-1)
        g *= c
        out += g
    return out


def hadamard_terms(channels, dual: bool, unit=1, gathers=None) -> tuple:
    """Each channel's ``gather`` as an ``(index, c)`` term of ``hadamard``:
    c = unit 2i alpha (w w†) (v v† with ``dual``), stacked like the rate.
    ``gathers`` holds each channel's ``(index, weights)``: by default its
    gather's own, on a flow's entries S those remapped to S (``Generator.on``)."""
    if gathers is None:
        gathers = [_side(ch.gather, dual) for ch in channels]
    return tuple((index, (unit * 2j * _rate(ch.alpha, w.ndim)) * w)
                 for (index, w), ch in zip(gathers, channels))


def _side(gather, dual: bool) -> tuple:
    """``(index, weights)`` of a ``model.Gather`` for L (for L* with ``dual``)."""
    return (gather.index_dag, gather.weights_dag) if dual else (gather.index, gather.weights)


def _rate(alpha, ndim: int):
    """A rate, stacked over entries as ``(n,) + (1,) * ndim`` where it varies,
    to scale weights of ``ndim`` axes entry by entry."""
    return alpha if np.ndim(alpha) == 0 else alpha.reshape((-1,) + (1,) * ndim)


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
    over them, bound with stride 2. A ``constant`` lattice is bound once, on
    first use. Where every entry shares one M and one K0 (a ``scaled`` H and
    time-independent channels) x is one broadcast c(t) x_m + x_0 over a
    slice of the lattice's scales, as real arrays (in K-form K = c M + K0
    bitwise but for the sign of a zero); else the form of the effective
    Hamiltonian of the lattice's ``part``, stacked per entry where it
    varies.

    A flow's generator acts on the entries S it can reach (``support``):
    in Hadamard form ``on(S)`` is the same generator on vectors of the
    values on S, and its ``constant_on_s`` says whether the lattice is
    constant on S."""

    def __init__(self, lattice: ModelSnapshot, dual: bool, unit=1):
        self.lattice, self.dual, self.unit = lattice, dual, unit
        self.hadamard, self.constant = lattice.hadamard, lattice.constant
        self.constant_on_s = self.constant  # S is every entry until ``on`` binds one
        self._s = self._gathers = None
        if self.hadamard:
            self._stage = hadamard
            self._gathers = [_side(ch.gather, dual) for ch in lattice.channels]
        else:
            kernel = adjoint if dual else liouvillian
            self._stage = kernel if unit == 1 else lambda k, chs, y: unit * kernel(k, chs, y)
        self._scale, self._x_m, self._x_0 = lattice.scale, None, None
        if lattice.scale is not None and lattice.k0 is not None:
            self._x_m, self._x_0 = (np.ascontiguousarray(self._form(k)).view(float)
                                    for k in (lattice.operator, lattice.k0))
        self._terms = self._one = None  # bound on first use

    def support(self, y0: np.ndarray) -> np.ndarray:
        """The sorted flat indices S of the entries that a flow from ``y0``
        can reach. In K-form S is all d² entries. In Hadamard form it is
        y0's nonzero entries, closed under each channel's gather: entry e
        joins S when ``index[e]`` is in S and its weight, and the channel's
        rate at some entry, are not 0 (a slot of zero weight is no edge). A
        Hadamard flow steps S only (``on``): by its step matrix where the
        lattice is constant on S, else by stages (``dynamics._propagate``)."""
        if not self.hadamard:
            return np.arange(y0.size)
        edges = [(index.reshape(-1), (w.reshape(-1) != 0) & np.any(ch.alpha != 0))
                 for (index, w), ch in zip(self._gathers, self.lattice.channels)]
        reach = y0.reshape(-1) != 0
        while True:
            grown = reach.copy()
            for index, live in edges:
                grown |= reach[index] & live
            if (grown == reach).all():
                return np.flatnonzero(reach)
            reach = grown

    def on(self, s: np.ndarray) -> Generator:
        """This generator on the entries ``s`` (``support``): in K-form
        itself, on whole operators (S is every entry); in Hadamard form a
        copy whose spans act on one vector of the values on S, or a stack of
        them. x is sliced to S, elementwise and so bitwise the sliced x of
        every entry. Each gather is remapped to positions in S, its weight
        sliced to S and 0 where the source lies off S (where a flow on S
        holds 0). ``constant_on_s``: the lattice is ``constant``, or x is
        c(t) x_m + x_0 with x_m zero on S (as on the diagonal, where the
        scaled H of a Hadamard lattice cancels in D_ii = k_i − conj(k_i))."""
        if not self.hadamard:
            return self
        g = copy.copy(self)
        g._s, g._gathers, g._terms, g._one = s, [], None, None
        for index, w in self._gathers:
            src = index.reshape(-1)[s]
            pos = np.minimum(np.searchsorted(s, src), s.size - 1)
            g._gathers.append((pos, np.where(s[pos] == src, w.reshape(-1)[s], 0)))
        if self._x_m is not None:
            g._x_m, g._x_0 = (v.view(complex).reshape(-1)[s].view(float)
                              for v in (self._x_m, self._x_0))
            g.constant_on_s = self.constant or not g._x_m.any()
            if not self.constant:  # the scales, per entry, against vectors on S
                g._scale = self._scale.reshape(-1, 1)
        return g

    def _form(self, k: np.ndarray) -> np.ndarray:
        return self.unit * difference(k, self.dual) if self.hadamard else k

    def span(self, j0: int, j1: int):
        if self.constant:
            one = self._bound()
            return lambda i, y: one(y)
        x, channels = self._bind(j0, j1, 1)
        stage = self._stage
        if self.lattice.k0 is None:  # the channels vary: each entry's, taken once per span
            at = list(zip(*(_entries(ch, j1 - j0) for ch in channels)))
            return lambda i, y: stage(x[i], at[i], y)
        return lambda i, y: stage(x[i], channels, y)

    def cells(self, k0: int, k1: int):
        if self.constant:
            return self._bound()
        return partial(self._stage, *self._bind(2 * k0 + 1, 2 * k1 + 1, 2))

    def _bound(self):
        """The generator of a ``constant`` lattice, bound on first use."""
        if self._one is None:
            self._one = partial(self._stage, *self._bind(0, 1, 1))
        return self._one

    def _bind(self, j0: int, j1: int, stride: int):
        """The operator x and the channels (terms in Hadamard form) of
        lattice entries j0, j0 + stride, ... below j1, each stacked per entry
        where it varies; of every entry, for a constant lattice. On S
        (``on``) x and each term are vectors on S."""
        s = self.lattice
        if self._x_m is not None:
            x = (self._scale if self.constant else self._scale[j0:j1:stride]) * self._x_m
            x += self._x_0
            x = x.view(complex)
        else:
            s = s.part(j0, j1, stride)
            x = self._form(s.effective_hamiltonian())
            if self._s is not None:
                x = x.reshape(x.shape[:-2] + (-1,))[..., self._s]
        channels = s.channels
        if self.hadamard:
            if s.k0 is None:  # the rates vary: this part's
                return x, hadamard_terms(channels, self.dual, self.unit, self._gathers)
            if self._terms is None:  # time-independent channels fold once
                self._terms = hadamard_terms(channels, self.dual, self.unit, self._gathers)
            channels = self._terms
        return x, channels


def _entries(ch, n: int) -> list:
    """A channel, or a Hadamard term ``(index, c)``, at each of ``n``
    entries: each stack row by row, a stacked rate as floats."""
    def rows(v, ndim=2):
        return list(v) if np.ndim(v) > ndim else [v] * n

    if not isinstance(ch, ChannelSnapshot):
        index, c = ch
        return [(index, c) for c in rows(c, index.ndim)]
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
