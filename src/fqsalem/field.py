"""Exact arithmetic in F_{p^r} for odd p.

Elements are canonical integers in [0, q): the base-p digits of the value,
little-endian, are the coefficients of the residue polynomial. For r = 1
this degenerates to plain integers mod p.

Two layers: scalar methods on FieldSpec (one element at a time; used by the
oracles, the invariant checks and the table bootstrap) and numpy lookup
tables (`FieldSpec.tables`) that the kernels and constructions gather from,
in the lookup-table GF(p^m) style of the galois package
(https://github.com/mhostetter/galois).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ConfigError, check_budget, check_invariant

MAX_Q = 1 << 63


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    # deterministic Miller-Rabin for 64-bit inputs
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_mod(res, mod, p)


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """coeffs = (c_0, ..., c_r) monic of degree r over F_p."""
    r = len(coeffs) - 1
    mod = list(coeffs)
    if mod[0] == 0:  # divisible by x
        return r == 1
    x = [0, 1]
    # x^(p^r) == x mod f
    xp = _poly_powmod(x, p ** r, mod, p)
    if _poly_trim(list(xp)) != x:
        return False
    # gcd(x^(p^(r/l)) - x, f) == 1 for each prime l | r
    for ell in prime_factors(r):
        xq = _poly_powmod(x, p ** (r // ell), mod, p)
        diff = [0] * max(len(xq), 2)
        for i, c in enumerate(xq):
            diff[i] = c
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, mod, p)
        if len(g) != 1:
            return False
    return True


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b (b need not be monic)."""
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        coef = (a[-1] * inv) % p
        shift = len(a) - 1 - db
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bi) % p
        _poly_trim(a)
    return a


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


@dataclass(frozen=True)
class FieldTables:
    """Read-only lookup tables over canonical values: add/sub/mul are (q, q)
    indexed [a, b]; neg and square are length q. The dtype is the smallest
    unsigned type holding q - 1, so gathers stay small; widen before
    doing integer arithmetic on the results.
    """

    add: np.ndarray
    sub: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    square: np.ndarray

    @staticmethod
    def build(F: "FieldSpec") -> "FieldTables":
        """Digit-wise add and neg; mul through log/exp of a primitive element.

        Only the q - 1 powers of the primitive element use scalar calls. The
        arithmetic runs in the smallest type holding 2(q - 1), which every digit
        sum and log sum fits, so no (q, q) temporary is wider than that.
        """
        p, q = F.p, F.q
        dtype, work = np.min_scalar_type(q - 1), np.min_scalar_type(2 * (q - 1))
        v = np.arange(q, dtype=work)
        add = np.zeros((q, q), dtype=dtype)
        neg = np.zeros(q, dtype=dtype)
        for i in range(F.r):
            digit = v // p ** i % p
            add += (digit[:, None] + digit) % p * p ** i
            neg += (p - digit) % p * p ** i
        exp = np.empty(q - 1, dtype=dtype)
        g, x = F.primitive_element(), 1
        for k in range(q - 1):
            exp[k] = x
            x = F.mul(x, g)
        log = np.zeros(q, dtype=work)
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=dtype)
        mul[1:, 1:] = exp[(log[1:, None] + log[1:]) % (q - 1)]
        tables = (add, add[:, neg], mul, neg, mul[v, v])
        for t in tables:
            t.flags.writeable = False
        return FieldTables(*tables)


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of F_{p^r} with a fixed irreducible modulus."""

    p: int
    r: int
    modulus: tuple[int, ...]  # c_0..c_r, monic
    q: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "q", self.p ** self.r)

    def tables(self) -> FieldTables:
        """The lookup tables, built on first use (field_create never pays). Every
        call charges their q^2 entries to its budget scope, whoever built them."""
        check_budget(self.q * self.q, f"F_{self.q} lookup tables")
        cached = self.__dict__.get("_tables")
        if cached is None:
            cached = FieldTables.build(self)
            self.__dict__["_tables"] = cached
        return cached

    # --- encoding helpers -------------------------------------------------

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.r):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def from_digits(self, ds) -> int:
        v = 0
        for d in reversed(list(ds)):
            v = v * self.p + (d % self.p)
        return v

    # --- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        return self.from_digits(x + y for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        return self.from_digits(-x for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        prod = _poly_mulmod(list(self.digits(a)), list(self.digits(b)),
                            list(self.modulus), self.p)
        return self.from_digits(prod + [0] * (self.r - len(prod)))

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        if self.r == 1:
            return pow(a, e, self.p)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # --- trace --------------------------------------------------------------

    def trace(self, x: int) -> int:
        """F_p-linear trace onto the prime field, as an integer in [0, p)."""
        if self.r == 1:
            return x
        acc, t = 0, x
        for _ in range(self.r):
            acc = self.add(acc, t)
            t = self.pow(t, self.p)
        ds = self.digits(acc)
        check_invariant(all(d == 0 for d in ds[1:]), "trace left the prime field")
        return ds[0]

    # --- multiplicative structure -------------------------------------------

    def primitive_element(self) -> int:
        ells = prime_factors(self.q - 1)
        for g in range(2, self.q):
            if all(self.pow(g, (self.q - 1) // ell) != 1 for ell in ells):
                return g
        raise AssertionError("no primitive element found")  # unreachable

    # --- serialization --------------------------------------------------------

    def header(self) -> str:
        if self.r == 1:
            return f"q={self.p}^1"
        return f"q={self.p}^{self.r} modulus={','.join(map(str, self.modulus))}"

    def __repr__(self):
        return f"FieldSpec(p={self.p}, r={self.r}, q={self.q})"


@lru_cache(maxsize=None)
def field_create(p: int, r: int) -> FieldSpec:
    """F_{p^r} with the lexicographically smallest monic irreducible modulus."""
    if p < 3 or p % 2 == 0:
        raise ConfigError(f"p must be an odd prime, got {p}")
    if not is_prime(p):
        raise ConfigError(f"p must be prime, got {p}")
    if r < 1:
        raise ConfigError(f"r must be >= 1, got {r}")
    if p ** r > MAX_Q:
        raise ConfigError(f"p^r = {p**r} exceeds supported magnitude")
    if r == 1:
        return FieldSpec(p, 1, (0, 1))
    # c_0 = 0 makes x a factor, so the scan starts at c_0 = 1
    for lower in product(range(1, p), *[range(p)] * (r - 1)):
        coeffs = lower + (1,)
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, r, coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def parse_header(line: str) -> FieldSpec:
    """Inverse of FieldSpec.header(); validates the modulus against field_create."""
    parts = line.split()
    if not parts or not parts[0].startswith("q="):
        raise ConfigError(f"malformed field header: {line!r}")
    try:
        p_str, r_str = parts[0][2:].split("^")
        p, r = int(p_str), int(r_str)
        mods = [tuple(int(c) for c in part[len("modulus="):].split(","))
                for part in parts[1:] if part.startswith("modulus=")]
    except ValueError as exc:
        raise ConfigError(f"malformed field header: {line!r}") from exc
    spec = field_create(p, r)
    for mod in mods:
        if mod != spec.modulus:
            raise ConfigError(f"modulus {mod} does not match canonical {spec.modulus}")
    return spec
