"""Fourier analysis over F_q^d.

The transform is E_hat(m) = q^{-d} sum_{y in E} chi(-m.y) with
chi(x) = exp(2*pi*i*Tr(x)/p). Two evaluation paths are kept:

* direct summation, O(|E| * q^d), the oracle;
* the path `fourier` always takes, through the additive-group isomorphism
  F_q^d ~ (Z_p)^{rd}.
  The kernel Tr(m_i * y_i) is bilinear in the base-p digit vectors with
  Gram matrix B[j][k] = Tr(x^{j+k}). B is symmetric, so Tr(m_i * y_i) is
  digits(m_i) . (B . digits(y_i)): after the digit twist y -> B . digits(y)
  of the points of E, a length-p DFT along each of the rd digit axes gives
  the spectrum in index order. B is invertible because the trace form is
  nondegenerate, so the twist is a bijection. Each axis is transformed only
  under the digit prefixes that the twisted points occupy.

Counting quantities are never taken from the spectrum; identities against
exact integers are checked through the energy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, check_budget
from .field import FieldSpec
from .geometry import PointSet, all_vectors, dot, encode

if TYPE_CHECKING:
    from .harness import Analysis


@dataclass(frozen=True)
class Spectrum:
    field: FieldSpec
    d: int
    values: np.ndarray  # complex, length q^d, indexed by flat index (geometry.encode)
    set_size: int

    def at(self, m: tuple[int, ...]) -> complex:
        return complex(self.values[encode(np.array([m]), self.field.q)[0]])

    def export_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("m,re,im\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i},{v.real:.17g},{v.imag:.17g}\n")


def _char_table(F: FieldSpec) -> np.ndarray:
    tr = np.array([F.trace(t) for t in range(F.q)])
    return np.exp(-2j * np.pi * tr / F.p)  # chi(-t)


def fourier_direct(E: PointSet, budget: int | None = None) -> Spectrum:
    """Direct summation over all q^d frequencies (the oracle path)."""
    F, d, q = E.field, E.d, E.field.q
    check_budget(q ** d * max(len(E), 1), budget, "direct Fourier transform")
    chi_neg = _char_table(F)
    vals = np.zeros(q ** d, dtype=complex)
    for i, m in enumerate(all_vectors(F, d, budget)):  # index order
        acc = 0j
        for y in E.points:
            acc += chi_neg[dot(F, m, y)]
        vals[i] = acc / q ** d
    return Spectrum(F, d, vals, len(E))


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


def fourier_fast(E: PointSet, budget: int | None = None) -> Spectrum:
    """Length-p transforms along the rd digit axes of the twisted points, trailing
    axis first, each only under the digit prefixes the points occupy."""
    F, d, q, p = E.field, E.d, E.field.q, E.field.p
    check_budget(q ** d, budget, "fast Fourier transform")
    if len(E) == 0:
        return Spectrum(F, d, np.zeros(q ** d, dtype=complex), 0)
    # the flat index is C-order over the (q,)*d grid; each axis splits into r
    # digit axes (big-endian), under which a canonical value is its C-order index
    heads = E.codes if F.r == 1 else np.sort(encode(_digit_permutation(F)[E.array], q))
    # heads: the sorted occupied prefixes over the axes not yet transformed;
    # X[i, f]: the transform at frequency f over the axes already transformed
    # of the points under heads[i]
    X = np.ones((len(heads), 1), dtype=complex)
    for _ in range(F.r * d):
        up = heads // p
        first = np.empty(len(up), dtype=bool)  # first head under each new prefix
        first[0] = True
        np.not_equal(up[1:], up[:-1], out=first[1:])
        n = int(np.count_nonzero(first))
        if n * p == len(heads):  # heads are distinct: every prefix has all p digits
            Y = X.reshape(n, p, -1)
        else:
            Y = np.zeros((n, p, X.shape[1]), dtype=complex)
            Y[np.cumsum(first) - 1, heads % p] = X
        X = np.fft.fft(Y, axis=1).reshape(n, -1)
        heads = up[first]
    values = X.reshape(-1)
    values /= q ** d
    return Spectrum(F, d, values, len(E))


def fourier(E: PointSet, budget: int | None = None) -> Spectrum:
    """Transform of the indicator of E (the fast path; fourier_direct is its oracle)."""
    return fourier_fast(E, budget)


def lp_norm(S: Spectrum, u: float) -> float:
    """The zero-frequency-excluding norm with the q^{-d} prefactor (finite u)."""
    if u < 1:
        raise ConfigError(f"u must be >= 1, got {u}")
    q_d = S.field.q ** S.d
    nonzero = np.abs(S.values[1:])  # index 0 is the zero frequency
    if math.isinf(u):
        return float(nonzero.max(initial=0.0))
    return float((np.sum(nonzero ** u) / q_d) ** (1.0 / u))


def energy_identity_residual(A: Analysis, k: int) -> float:
    """Relative residual of ||E_hat||_{2k}^{2k} = q^{-2kd} L_{2k} - q^{-(2k+1)d} |E|^{2k}."""
    E = A.E
    q_d = E.field.q ** E.d
    lam = A.lam(k)
    lhs = A.fourier_moment(k)
    rhs = lam / q_d ** (2 * k) - len(E) ** (2 * k) / q_d ** (2 * k + 1)
    return abs(lhs - rhs) / max(abs(rhs), q_d ** -(2 * k + 1))
