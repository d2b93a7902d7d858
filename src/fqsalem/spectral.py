"""Fourier analysis over F_q^d.

The transform is E_hat(m) = q^{-d} sum_{y in E} chi(-m.y) with
chi(x) = exp(2*pi*i*Tr(x)/p). Two evaluation paths are kept:

* direct summation, O(|E| * q^d), the oracle;
* the path `fourier` always takes, through the additive-group isomorphism
  F_q^d ~ (Z_p)^{rd}.
  The kernel Tr(m_i * y_i) is bilinear in the base-p digit vectors with
  Gram matrix B[j][k] = Tr(x^{j+k}), so after a length-p DFT along each of
  the rd digit axes the spectrum is read off through the digit permutation
  e -> B . digits(e). B is invertible because the trace form is
  nondegenerate.

Counting quantities are never taken from the spectrum; identities against
exact integers are checked through the energy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _digit_permutation(F: FieldSpec) -> np.ndarray:
    """perm[e] = value whose digits are B . digits(e) mod p."""
    if F.r == 1:
        return np.arange(F.q)
    B = _trace_gram(F)
    perm = np.empty(F.q, dtype=np.int64)
    for e in range(F.q):
        ds = F.digits(e)
        out = [sum(B[j][k] * ds[k] for k in range(F.r)) % F.p for j in range(F.r)]
        perm[e] = F.from_digits(out)
    return perm


def fourier_fast(E: PointSet, budget: int | None = None) -> Spectrum:
    """rd successive length-p transforms over (Z_p)^{rd}, then digit twist."""
    F, d, q, p, r = E.field, E.d, E.field.q, E.field.p, E.field.r
    check_budget(q ** d, budget, "fast Fourier transform")
    ind = np.zeros(q ** d)
    ind[E.codes] = 1.0
    # the flat index is C-order over the (q,)*d grid; each axis splits into r
    # digit axes (big-endian), under which a canonical value is its C-order index
    G = np.fft.fftn(ind.reshape((p,) * (r * d)))
    S = G.reshape((q,) * d)
    perm = _digit_permutation(F)
    if F.r > 1:
        S = S[np.ix_(*([perm] * d))]
    return Spectrum(F, d, S.ravel() / q ** d, len(E))


def fourier(E: PointSet, budget: int | None = None) -> Spectrum:
    """Transform of the indicator of E (the fast path; fourier_direct is its oracle)."""
    return fourier_fast(E, budget)


def lp_norm(S: Spectrum, u: float) -> float:
    """The zero-frequency-excluding norm with the q^{-d} prefactor (finite u)."""
    if u < 1:
        raise ConfigError(f"u must be >= 1, got {u}")
    q_d = S.field.q ** S.d
    mags = np.abs(S.values)
    zero_idx = 0  # flat index of the zero frequency
    nonzero = np.delete(mags, zero_idx)
    if math.isinf(u):
        return float(nonzero.max(initial=0.0))
    return float((np.sum(nonzero ** u) / q_d) ** (1.0 / u))


def energy_identity_residual(A: Analysis, k: int) -> float:
    """Relative residual of ||E_hat||_{2k}^{2k} = q^{-2kd} L_{2k} - q^{-(2k+1)d} |E|^{2k}."""
    E = A.E
    q_d = E.field.q ** E.d
    lam = A.lam(k)
    lhs = lp_norm(A.spectrum, 2 * k) ** (2 * k)
    rhs = lam / q_d ** (2 * k) - len(E) ** (2 * k) / q_d ** (2 * k + 1)
    return abs(lhs - rhs) / max(abs(rhs), q_d ** -(2 * k + 1))
