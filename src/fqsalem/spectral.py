"""Fourier analysis over F_q^d.

The transform is E_hat(m) = q^{-d} sum_{y in E} chi(-m.y) with
chi(x) = exp(2*pi*i*Tr(x)/p). Two evaluation paths are kept:

* direct summation, O(|E| * q^d), the oracle (`fourier_direct`);
* the pruned transform in `half_power`, through the additive-group
  isomorphism F_q^d ~ (Z_p)^{rd}.
  The kernel Tr(m_i * y_i) is bilinear in the base-p digit vectors with
  Gram matrix B[j][k] = Tr(x^{j+k}). B is symmetric, so Tr(m_i * y_i) is
  digits(m_i) . (B . digits(y_i)): after the digit twist y -> B . digits(y)
  of the points of E, a length-p DFT along each of the rd digit axes gives
  the spectrum in index order. B is invertible because the trace form is
  nondegenerate, so the twist is a bijection. Each axis is transformed only
  under the digit prefixes that the twisted points occupy. For p up to
  _DFT_MATRIX_MAX_P each pass is a product with the p x p DFT matrix
  W[f, j] = exp(-2*pi*i*f*j/p), an outer product with one column of W when
  every prefix holds one digit; above it, np.fft.fft along the axis.

1_E is real, so E_hat(-m) = conj E_hat(m): |E_hat|^2 is even. Negating m
negates each base-p digit, so the trailing frequency digit f pairs with
p - f (p is odd). `half_power` keeps f in 0..(p-1)/2 only, a
(q^d/p, (p+1)/2) array: its first pass keeps those rows of W (those
outputs of the FFT), so every later pass carries (p+1)/(2p) of the columns.
The points enter the first pass at q^{-d}, so the squared half needs no
division; `power_sums` takes every sum a report reads from it in one call.

Counting quantities are never taken from the spectrum; `analysis` checks
the energy identity against the exact Lambda_4 of the energy module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import check_budget
from .field import FieldSpec
from .geometry import PointSet, dot, encode


def _char_table(F: FieldSpec) -> np.ndarray:
    tr = np.array([F.trace(t) for t in range(F.q)])
    return np.exp(-2j * np.pi * tr / F.p)  # chi(-t)


def fourier_direct(E: PointSet) -> np.ndarray:
    """E_hat at all q^d frequencies, in flat-index order, by direct summation
    (the oracle path)."""
    F, d, q = E.field, E.d, E.field.q
    check_budget(q ** d * max(len(E), 1), "direct Fourier transform")
    chi_neg = _char_table(F)
    vals = np.zeros(q ** d, dtype=complex)
    for i, m in enumerate(product(range(q), repeat=d)):  # index order
        acc = 0j
        for y in E.points:
            acc += chi_neg[dot(F, m, y)]
        vals[i] = acc / q ** d
    return vals


def _trace_gram(F: FieldSpec) -> list[list[int]]:
    # the basis power x^j has canonical value p^j
    return [[F.trace(F.mul(F.p ** j, F.p ** k)) for k in range(F.r)]
            for j in range(F.r)]


@lru_cache(maxsize=None)
def _digit_permutation(F: FieldSpec) -> np.ndarray:
    """perm[e] = value whose digits are B . digits(e) mod p; built once per field."""
    weights = F.p ** np.arange(F.r)
    digits = np.arange(F.q)[:, None] // weights % F.p  # little-endian, as F.digits
    perm = (digits @ np.array(_trace_gram(F)) % F.p) @ weights  # B is symmetric
    perm.flags.writeable = False
    return perm


#: the largest p whose passes are products with the p x p DFT matrix; above it a
#: pass is np.fft.fft along the digit axis, O(p log p) per column rather than
#: O(p^2), and the matrix is never built (crossover measured between 127 and 257)
_DFT_MATRIX_MAX_P = 127


@lru_cache(maxsize=None)
def _dft_matrix(p: int) -> np.ndarray:
    """W[f, j] = exp(-2 pi i f j / p), the length-p DFT that np.fft.fft applies."""
    k = np.arange(p)
    W = np.exp(-2j * np.pi / p * (np.outer(k, k) % p))
    W.flags.writeable = False
    return W


#: from this many entries per prefix (p * columns), a pass makes one product per
#: prefix with the columns of W of its occupied digits, rather than zero-filling
#: the absent digits for one batched product: a Python call per prefix then
#: costs less than the zeros (crossover measured at about 1 000 to 2 000)
_PREFIX_PRODUCT_MIN = 1 << 10


def _axis_pass(p: int, c: int, heads: np.ndarray, X: np.ndarray):
    """Transform the trailing digit axis not yet transformed: the rows of X under
    each prefix heads // p, one per digit, become the output digits 0..c-1 (the
    leading ones of the new columns). Returns the new (heads, X)."""
    cols = X.shape[1]
    up = heads // p
    first = np.concatenate(([True], up[1:] != up[:-1]))  # first head under each prefix
    n = int(np.count_nonzero(first))
    W = _dft_matrix(p)[:c] if p <= _DFT_MATRIX_MAX_P else None
    if n * p == len(heads):  # heads are distinct: every prefix has all p digits
        Y = X.reshape(n, p, cols)
    elif W is not None and n == len(heads):  # one digit per prefix: an outer product
        return up, (W.T[heads % p][:, :, None] * X[:, None, :]).reshape(n, -1)
    elif W is not None and p * cols >= _PREFIX_PRODUCT_MIN:  # one product per prefix
        starts = np.flatnonzero(first).tolist() + [len(heads)]
        digits = heads % p
        Z = np.empty((n, c, cols), dtype=complex)
        for i, (lo, hi) in enumerate(zip(starts, starts[1:])):
            np.matmul(W[:, digits[lo:hi]], X[lo:hi], out=Z[i])
        return up[first], Z.reshape(n, -1)
    else:
        Y = np.zeros((n, p, cols), dtype=complex)
        Y[np.cumsum(first) - 1, heads % p] = X
    if W is None:
        return up[first], np.fft.fft(Y, axis=1)[:, :c].reshape(n, -1)
    return up[first], np.matmul(W, Y).reshape(n, -1)


def half_power(E: PointSet) -> np.ndarray:
    """P = |E_hat(m)|^2 on the Hermitian half: (q^d/p, (p+1)/2), row m // p,
    column the trailing base-p digit of m, kept in 0..(p-1)/2; P[0, 0] is
    m = 0; column 0 holds each of its frequencies once, every other column
    also the negated ones. For d = 0 the one frequency m = 0 has no digit,
    and P is (1, 1).

    One pass per digit axis of the twisted points, trailing axis first, each
    a DFT under the digit prefixes the points occupy.
    """
    F, d, q, p = E.field, E.d, E.field.q, E.field.p
    check_budget(q ** d, "fast Fourier transform")
    c = (p + 1) // 2 if d else 1
    scale = 1.0 / q ** d  # the factor q^{-d} of E_hat, in X from the start
    if d == 0 or len(E) == 0:  # no axis to transform: E_hat(0) = |E|, or all zero
        X = np.full((max(q ** d // p, 1), c), len(E) * scale, dtype=complex)
    else:
        # the flat index is C-order over the (q,)*d grid; each axis splits into
        # r digit axes (big-endian), under which a canonical value is its
        # C-order index
        heads = E.codes if F.r == 1 else np.sort(encode(_digit_permutation(F)[E.array], q))
        # heads: the sorted occupied prefixes over the axes not yet transformed;
        # X[i, f]: the transform at frequency f over the axes already
        # transformed of the points under heads[i]
        X = np.full((len(heads), 1), scale, dtype=complex)
        heads, X = _axis_pass(p, c, heads, X)  # the trailing digit of m: 0..c-1
        for _ in range(F.r * d - 1):
            heads, X = _axis_pass(p, p, heads, X)
    v = X.reshape(-1, c).view(np.float64)  # re, im interleaved
    np.square(v, out=v)
    return np.add(v[:, 0::2], v[:, 1::2])


@dataclass(frozen=True)
class PowerSums:
    """The sums over the half spectrum that the fourier section reads."""
    sum2: float  # sum over m != 0 of |E_hat(m)|^2
    sum4: float  # sum over m != 0 of |E_hat(m)|^4
    zero: float  # |E_hat(0)|^2
    sup: float  # max over m != 0 of |E_hat(m)|^2


def power_sums(P: np.ndarray) -> PowerSums:
    """The PowerSums of the half P. Column 0 has weight 1, every other column
    2; [0, 0] is sliced out, so no large term cancels. Each sum is one
    np.einsum, with no temporary and no BLAS call: BLAS sums in an order that
    follows its thread count."""
    flat, col = P.ravel()[1:], P[1:, 0]
    return PowerSums(
        sum2=2.0 * float(np.einsum("i->", flat)) - float(np.einsum("i->", col)),
        sum4=2.0 * float(np.einsum("i,i->", flat, flat)) - float(np.einsum("i,i->", col, col)),
        zero=float(P[0, 0]), sup=float(flat.max(initial=0.0)))
