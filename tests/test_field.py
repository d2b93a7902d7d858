"""Finite-field arithmetic: creation, trace, roots."""

import random

import pytest

from fqsalem.errors import ConfigError
from fqsalem.field import FieldSpec, field_create, is_prime, parse_header, prime_factors


def test_create_sizes():
    assert field_create(5, 1).q == 5
    assert field_create(3, 3).q == 27
    assert field_create(7, 2).q == 49


def test_create_skips_moduli_divisible_by_x(monkeypatch):
    # a candidate with c_0 = 0 has the factor x; trying all 3^11 of them
    # first made field_create(3, 12) test 177 176 moduli
    import fqsalem.field as field
    tried, real = [], field._is_irreducible
    monkeypatch.setattr(field, "_is_irreducible",
                        lambda coeffs, p: tried.append(coeffs) or real(coeffs, p))
    F = field_create.__wrapped__(3, 12)  # past the cache
    assert len(tried) == 29 and all(c[0] != 0 for c in tried)
    assert F.modulus == tried[-1] and F.modulus[0] != 0
    assert field_create.__wrapped__(3, 20).q == 3 ** 20


def test_create_rejects_bad_p():
    with pytest.raises(ConfigError):
        field_create(2, 1)
    with pytest.raises(ConfigError):
        field_create(9, 1)
    with pytest.raises(ConfigError):
        field_create(15, 2)


def test_create_rejects_overflow():
    with pytest.raises(ConfigError):
        field_create(3, 64)


def test_modulus_monic_deterministic():
    F = field_create(3, 2)
    assert F.modulus[-1] == 1 and len(F.modulus) == 3
    # x^2 + 1 is the smallest monic irreducible over F_3
    assert F.modulus == (1, 0, 1)
    assert field_create(3, 2) is F  # cached


def test_primality_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(360) == [2, 3, 5]


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (3, 2), (3, 3), (7, 2)])
def test_field_axioms_random(p, r):
    F = field_create(p, r)
    rng = random.Random(1234 + F.q)
    for _ in range(1000):
        x, y, z = (rng.randrange(F.q) for _ in range(3))
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        if x != 0:
            assert F.mul(x, F.pow(x, F.q - 2)) == 1  # x^(q-1) = 1
    assert F.add(0, 5 % F.q) == 5 % F.q
    assert F.mul(1, 5 % F.q) == 5 % F.q
    with pytest.raises(ValueError):
        F.pow(2, -1)  # exponents are non-negative


def test_trace_prime_field_is_identity(f5):
    for x in range(5):
        assert f5.trace(x) == x


def test_trace_via_power_oracle(f9):
    # in F_9 the trace of x is x + x^3, computed here by repeated squaring
    for x in range(9):
        t = f9.add(x, f9.pow(x, 3))
        assert t < 3  # lands in the prime subfield
        assert f9.trace(x) == t
    assert f9.trace(0) == 0


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
def test_trace_linear_and_surjective(p, r):
    F = field_create(p, r)
    rng = random.Random(99)
    for _ in range(200):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        assert F.trace(F.add(x, y)) == (F.trace(x) + F.trace(y)) % p
    assert {F.trace(x) for x in range(F.q)} == set(range(p))


def test_primitive_elements():
    assert field_create(5, 1).primitive_element() == 2
    assert field_create(3, 1).primitive_element() == 2
    assert field_create(7, 1).primitive_element() == 3


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_primitive_element_order(p, r):
    F = field_create(p, r)
    g = F.primitive_element()
    for ell in prime_factors(F.q - 1):
        assert F.pow(g, (F.q - 1) // ell) != 1


def roots(F, c):
    """All y with y^2 = c, by a scan of F_q."""
    return [y for y in range(F.q) if F.mul(y, y) == c]


def test_sqrt_examples(f5):
    assert roots(f5, 4) == [2, 3]
    assert roots(f5, 0) == [0]
    assert roots(f5, 2) == []
    assert f5.pow(2, 2) != 1 and f5.pow(4, 2) == 1  # Euler's criterion


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (3, 3), (5, 2)])
def test_sqrt_exhaustive(p, r):
    # squaring is two-to-one on F_q^*, and c != 0 is a square iff c^((q-1)/2) = 1
    F = field_create(p, r)
    for c in range(1, F.q):
        assert len(roots(F, c)) == (2 if F.pow(c, (F.q - 1) // 2) == 1 else 0)
    assert roots(F, 0) == [0]
    assert sum(len(roots(F, c)) for c in range(F.q)) == F.q


def two_squares(F, c):
    """The first a with c - a^2 a square, and the smaller root b of c - a^2:
    the lookup null_basis makes for c = -1."""
    for a in range(F.q):
        rest = roots(F, F.sub(c, F.mul(a, a)))
        if rest:
            return a, rest[0]
    return None


def test_two_square_decomposition(f3, f5):
    assert two_squares(f3, 2) == (1, 1)  # 2 = -1 mod 3
    assert two_squares(f5, 0) == (0, 0)
    assert two_squares(f5, 1) == (0, 1)


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_two_square_everywhere(p, r):
    # every element of F_q, q odd, is a sum of two squares
    F = field_create(p, r)
    for c in range(F.q):
        a, b = two_squares(F, c)
        assert F.add(F.mul(a, a), F.mul(b, b)) == c


def test_header_roundtrip():
    for p, r in [(5, 1), (3, 3), (7, 2)]:
        F = field_create(p, r)
        G = parse_header(F.header())
        assert isinstance(G, FieldSpec) and G == F


def test_header_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_header("q=banana")
    with pytest.raises(ConfigError):
        parse_header("")


@pytest.mark.parametrize("p,r", [(3, 1), (5, 2), (3, 3), (7, 2)])
def test_tables_match_scalar_ops(p, r):
    F = field_create(p, r)
    T = F.tables()
    for a in range(F.q):
        assert T.neg[a] == F.neg(a) and T.square[a] == F.mul(a, a)
        for b in range(F.q):
            assert (T.add[a, b], T.sub[a, b], T.mul[a, b]) == (
                F.add(a, b), F.sub(a, b), F.mul(a, b))
    assert F.tables() is T
