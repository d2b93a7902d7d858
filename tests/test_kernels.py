"""The chunked numpy counting: block boundaries, the sparse merge, the int64 guard."""

import random

import pytest

from conftest import field_of_order, rand_set
from fqsalem import kernels
from fqsalem.distance import distance_profile
from fqsalem.energy import difference_set, energy_bruteforce, energy_convolution
from fqsalem.errors import BudgetExceeded
from fqsalem.geometry import HyperplaneMultiset, PointSet, vsub
from fqsalem.harness import oracle_distances, oracle_incidences
from fqsalem.incidence import count_incidences, distance_energy_setup


@pytest.mark.parametrize("chunk", [1, 7, 64])
@pytest.mark.parametrize("q,d", [(5, 2), (9, 2), (27, 1)])
def test_small_chunk_cap_matches_oracles(q, d, chunk, monkeypatch):
    # a cap of 1 puts one row in each block and counts every key space
    # sparsely; 64 counts F_5^2 and F_27 densely and F_9^2 sparsely
    F = field_of_order(q)
    E = rand_set(F, d, min(8, q ** d), seed=q + d)
    rng = random.Random(q * d)
    H = HyperplaneMultiset.build(F, d, [
        (tuple(rng.randrange(1, q) for _ in range(d)), rng.randrange(q), rng.randrange(1, 4))
        for _ in range(5)])
    family = distance_energy_setup(E).multiplicities
    monkeypatch.setattr(kernels, "CHUNK_ELEMS", chunk)
    assert distance_profile(E).counts == oracle_distances(E)
    assert energy_convolution(E, 2) == energy_bruteforce(E, 2)
    assert energy_convolution(E, 3) == energy_bruteforce(E, 3)
    assert set(difference_set(E).points) == {vsub(F, x, y) for x in E.points for y in E.points}
    assert count_incidences(E, H) == oracle_incidences(E, H)
    assert distance_energy_setup(E).multiplicities == family


def test_counts_beyond_int64_are_refused(f3):
    E = PointSet.build(f3, 1, [(0,), (1,), (2,)])
    assert energy_convolution(E, 39) == 3 ** 77
    with pytest.raises(BudgetExceeded):
        energy_convolution(E, 40)
