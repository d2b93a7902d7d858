"""Shared fixtures and small helpers for the test suite."""

from itertools import product

import numpy as np
import pytest

from fqsalem.constructions import random_pointset
from fqsalem.errors import ConfigError
from fqsalem.field import field_create, prime_factors
from fqsalem.geometry import PointSet, dot, encode, full_space, norm, vsub
from fqsalem.spectral import fourier_direct


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


def folded_power(E):
    """The oracle's |E_hat|^2 laid out as spectral.half_power's P: row m // p,
    column the trailing digit of m in 0..(p-1)/2; (1, 1) for d = 0."""
    p = E.field.p if E.d else 1
    return np.abs(fourier_direct(E).reshape(-1, p)[:, :(p + 1) // 2]) ** 2


def oracle_moment(E, k, direct=None):
    """q^{-d} sum_{m != 0} |E_hat(m)|^{2k} from the oracle's values."""
    direct = fourier_direct(E) if direct is None else direct
    return float(np.sum(np.abs(direct[1:]) ** (2 * k)) / E.field.q ** E.d)
