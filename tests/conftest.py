"""Shared fixtures and small helpers for the test suite."""

from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fqsalem import kernels
from fqsalem.constructions import random_pointset
from fqsalem.energy import energy_convolution
from fqsalem.errors import ConfigError
from fqsalem.field import field_create, prime_factors
from fqsalem.geometry import PointSet, dot, encode, full_space, norm, vsub
from fqsalem.spectral import fourier_direct, half_power


@pytest.fixture(scope="session")
def f3():
    return field_create(3, 1)


@pytest.fixture(scope="session")
def f5():
    return field_create(5, 1)


@pytest.fixture(scope="session")
def f7():
    return field_create(7, 1)


@pytest.fixture(scope="session")
def f9():
    return field_create(3, 2)


@pytest.fixture(scope="session")
def f27():
    return field_create(3, 3)


def rand_set(F, d, size, seed):
    return random_pointset(F, d, size, seed)


def write_hyperplanes(H, path):
    """The hyperplane file that geometry.read_hyperplanes reads: one
    "a_1 .. a_d b=<b> mult=<m>" line per row, after the field and d headers."""
    lines = [H.field.header(), f"d={H.d}"]
    lines += [" ".join(map(str, a)) + f" b={b} mult={m}" for a, b, m in H.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def field_of_order(q):
    """F_q for a prime power q, so parametrizations over q can name extension fields."""
    (p,) = prime_factors(q)
    r = 1
    while p ** r < q:
        r += 1
    return field_create(p, r)


def translate(E, v):
    """E + v, through the field's addition table."""
    moved = E.field.tables().add[E.array, np.asarray(v, dtype=np.int64)]
    return PointSet.from_codes(E.field, E.d, encode(moved, E.field.q))


def exhaustive_null_basis(F, d, m):
    """Oracle for constructions.null_basis: the first m mutually orthogonal,
    independent null vectors of F_q^d in index order, by a greedy scalar scan."""
    basis = []
    for v in product(range(F.q), repeat=d):
        if all(c == 0 for c in v):
            continue
        if norm(F, v) != 0:
            continue
        if any(dot(F, v, u) != 0 for u in basis):
            continue
        if _in_span(F, v, basis):
            continue
        basis.append(v)
        if len(basis) == m:
            return basis
    raise ConfigError(f"no {m} mutually orthogonal null vectors in F_{F.q}^{d}")


def _in_span(F, v, basis):
    if not basis:
        return all(c == 0 for c in v)
    for coeffs in product(range(F.q), repeat=len(basis)):
        acc = [0] * len(v)
        for c, u in zip(coeffs, basis):
            for idx in range(len(v)):
                acc[idx] = F.add(acc[idx], F.mul(c, u[idx]))
        if tuple(acc) == v:
            return True
    return False


def difference_family_oracle(E):
    """The difference family of E as sorted (index(u) q + t, m_t(u)) pairs, by a
    scalar double loop: t = ||y|| - ||z||, u = y - z over (y, z) in E^2."""
    F = E.field
    counts = {}
    for y in E.points:
        for z in E.points:
            key = 0
            for c in vsub(F, y, z):
                key = key * F.q + c
            key = key * F.q + F.sub(norm(F, y), norm(F, z))
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def nonzero_counts(nu):
    """{t: nu[t]} for the t with nu[t] != 0, in increasing t: a profile array in
    the shape of harness.oracle_distances."""
    t = np.flatnonzero(nu)
    return dict(zip(t.tolist(), nu[t].tolist()))


def folded_power(E):
    """The oracle's |E_hat|^2 laid out as spectral.half_power's P: row m // p,
    column the trailing digit of m in 0..(p-1)/2; (1, 1) for d = 0."""
    p = E.field.p if E.d else 1
    return np.abs(fourier_direct(E).reshape(-1, p)[:, :(p + 1) // 2]) ** 2


def half_total(P):
    """The sum of |E_hat(m)|^2 over every frequency m, read from the half P of
    spectral.half_power: column 0 holds its frequencies once, every other
    column also stands for the negated ones, so it is 2 sum(P) - sum(P[:, 0])."""
    return 2 * float(P.sum()) - float(P[:, 0].sum())


def half_moment(P, k):
    """The sum of |E_hat(m)|^{2k} over m != 0, read from the half P as half_total
    reads it, with P[0, 0] (m = 0) sliced out so that no large term cancels."""
    flat, col = P.ravel()[1:], P[1:, 0]
    return 2 * float(np.sum(flat ** k)) - float(np.sum(col ** k))


def identity_residual(E, k):
    """Relative residual of the energy identity ||E_hat||_{2k}^{2k} =
    q^{-2kd} Lambda_{2k} - q^{-(2k+1)d} |E|^{2k}: its left side from half_moment,
    Lambda_{2k} from energy_convolution (the report checks k = 2 only)."""
    q_d, n = E.field.q ** E.d, len(E)
    lhs = half_moment(half_power(E), k) / q_d
    rhs = (energy_convolution(E, k) * q_d - n ** (2 * k)) / q_d ** (2 * k + 1)
    return abs(lhs - rhs) / max(abs(rhs), q_d ** -(2 * k + 1))


def oracle_moment(E, k, direct=None):
    """q^{-d} sum_{m != 0} |E_hat(m)|^{2k} from the oracle's values."""
    direct = fourier_direct(E) if direct is None else direct
    return float(np.sum(np.abs(direct[1:]) ** (2 * k)) / E.field.q ** E.d)


def sorts_recorded(mp):
    """Patch kernels.group_sums, which count_keys reaches on its sorted route
    only, to record the number of keys of each call; the list it returns is
    empty while every count_keys call took the dense route."""
    calls, group_sums = [], kernels.group_sums

    def recorded(keys, counts=None):
        calls.append(len(keys))
        return group_sums(keys, counts)

    mp.setattr(kernels, "group_sums", recorded)
    return calls


def counts_sorted(space, n_keys, chunk):
    """Whether count_keys sorts n_keys keys of [0, space) under CHUNK_ELEMS = chunk."""
    return space > max(4 * n_keys, chunk)


def blocks_recorded(mp):
    """Patch kernels.row_blocks to record (rows, width) of every block it yields."""
    blocks, row_blocks = [], kernels.row_blocks

    def recorded(n_rows, width):
        for rows in row_blocks(n_rows, width):
            blocks.append((rows.stop - rows.start, width))
            yield rows

    mp.setattr(kernels, "row_blocks", recorded)
    return blocks
