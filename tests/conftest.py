"""Shared fixtures and small helpers for the test suite."""

import pytest

from fqsalem.constructions import random_pointset
from fqsalem.field import field_create, prime_factors
from fqsalem.geometry import full_space, norm, vsub


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


def difference_family_oracle(E):
    """The difference family of E as sorted (t q^d + index(u), m_t(u)) pairs, by a
    scalar double loop: t = ||y|| - ||z||, u = y - z over (y, z) in E^2."""
    F = E.field
    counts = {}
    for y in E.points:
        for z in E.points:
            key = F.sub(norm(F, y), norm(F, z))
            for c in vsub(F, y, z):
                key = key * F.q + c
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())
