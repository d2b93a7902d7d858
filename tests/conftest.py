"""Shared fixtures and small helpers for the test suite."""

import pytest

from fqsalem.constructions import random_pointset
from fqsalem.field import field_create, prime_factors
from fqsalem.geometry import PointSet, all_vectors


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


def full_space(F, d):
    return PointSet.build(F, d, all_vectors(F, d))


def rand_set(F, d, size, seed):
    return random_pointset(F, d, size, seed)


def field_of_order(q):
    """F_q for a prime power q, so parametrizations over q can name extension fields."""
    (p,) = prime_factors(q)
    r = 1
    while p ** r < q:
        r += 1
    return field_create(p, r)
