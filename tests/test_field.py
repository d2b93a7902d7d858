"""Finite-field arithmetic: creation, trace, characters, roots."""

import cmath
import random

import pytest

from fqsalem.errors import ConfigError
from fqsalem.field import FieldSpec, field_create, is_prime, parse_header, prime_factors


def test_create_sizes():
    assert field_create(5, 1).q == 5
    assert field_create(3, 3).q == 27
    assert field_create(7, 2).q == 49


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
            assert F.mul(x, F.inv(x)) == 1
    assert F.add(0, 5 % F.q) == 5 % F.q
    assert F.mul(1, 5 % F.q) == 5 % F.q


def test_inverse_of_zero_raises(f5):
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


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


def test_additive_character_basics(f5):
    assert f5.additive_character(0) == pytest.approx(1)
    assert f5.additive_character(1) == pytest.approx(cmath.exp(2j * cmath.pi / 5))
    assert abs(sum(f5.additive_character(x) for x in range(5))) < 1e-10


@pytest.mark.parametrize("p,r", [(5, 1), (3, 2), (7, 1)])
def test_character_homomorphism(p, r):
    F = field_create(p, r)
    rng = random.Random(7)
    for _ in range(100):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        lhs = F.additive_character(F.add(x, y))
        assert lhs == pytest.approx(F.additive_character(x) * F.additive_character(y))
        assert abs(F.additive_character(x) * F.additive_character(F.neg(x)) - 1) < 1e-12


def test_primitive_elements():
    assert field_create(5, 1).primitive_element() == 2
    assert field_create(3, 1).primitive_element() == 2
    assert field_create(7, 1).primitive_element() == 3


@pytest.mark.parametrize("p,r", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_primitive_element_order(p, r):
    F = field_create(p, r)
    g = F.primitive_element()
    assert F.element_order(g) == F.q - 1
    for ell in prime_factors(F.q - 1):
        assert F.pow(g, (F.q - 1) // ell) != 1


def test_sqrt_examples(f5):
    assert f5.sqrt(4) == (2, 3)
    assert f5.sqrt(0) == (0,)
    assert f5.sqrt(2) == ()
    assert not f5.is_square(2) and f5.is_square(4)


@pytest.mark.parametrize("p,r", [(5, 1), (7, 1), (3, 2), (3, 3), (5, 2)])
def test_sqrt_exhaustive(p, r):
    F = field_create(p, r)
    for c in range(F.q):
        roots = F.sqrt(c)
        assert all(F.mul(y, y) == c for y in roots)
        assert len(roots) == (1 if c == 0 else len(roots))
        assert len(roots) in ((1,) if c == 0 else (0, 2))
    squares = {F.mul(x, x) for x in range(F.q)}
    assert sum(len(F.sqrt(c)) for c in range(F.q)) == F.q
    assert {c for c in range(F.q) if F.sqrt(c)} == squares


def test_two_square_decomposition(f3, f5):
    a, b = f3.two_square_decomposition(2)  # 2 = -1 mod 3
    assert (a, b) == (1, 1)
    assert f5.two_square_decomposition(0) == (0, 0)
    a, b = f5.two_square_decomposition(1)
    assert a == 0 and f5.mul(b, b) == 1


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_two_square_everywhere(p, r):
    F = field_create(p, r)
    for c in range(F.q):
        a, b = F.two_square_decomposition(c)
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
