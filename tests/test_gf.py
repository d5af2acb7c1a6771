"""Field layer: primality, generators, element arithmetic."""

import random
import time

import pytest

from dmuss.errors import NotPrimeError, ZeroElementError
from dmuss.gf import Field, _prime_factors, is_prime


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return [n for n, f in enumerate(flags) if f]


def trial_division_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def brute_force_order(p, e):
    order, acc = 1, e
    while acc != 1:
        acc = acc * e % p
        order += 1
    return order


def test_is_prime_agrees_with_sieve():
    primes = set(sieve(2000))
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


@pytest.mark.parametrize("p,expected_gamma", [(2, 1), (3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
def test_smallest_generator_frozen(p, expected_gamma):
    assert Field(p).gamma == expected_gamma


def test_smallest_generator_matches_brute_force_order_search():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 97]:
        field = Field(p)
        smallest = next(g for g in range(1, p) if brute_force_order(p, g) == p - 1)
        assert field.gamma == smallest


@pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 21, 91, 100])
def test_composite_modulus_rejected(n):
    with pytest.raises(NotPrimeError):
        Field(n)


def test_explicit_generator_validated():
    assert Field(11, gamma=8).gamma == 8
    with pytest.raises(ValueError):
        Field(11, gamma=10)  # order 2
    with pytest.raises(ValueError):
        Field(11, gamma=3)  # order 5
    with pytest.raises(ZeroElementError):
        Field(11, gamma=0)


def test_is_primitive():
    f = Field(11, gamma=8)
    assert f.is_primitive(8)
    assert f.is_primitive(2)
    assert not f.is_primitive(1)
    assert not f.is_primitive(10)
    with pytest.raises(ZeroElementError):
        f.is_primitive(0)


def test_is_primitive_matches_brute_force_orders():
    for p in [5, 7, 11, 13, 31]:
        f = Field(p)
        for e in range(1, p):
            assert f.is_primitive(e) == (brute_force_order(p, e) == p - 1), (p, e)


def test_generator_powers_cover_every_nonzero_element():
    for p in sieve(257):
        f = Field(p)
        powers = {f.pow(f.gamma, i) for i in range(1, p)}
        assert powers == set(range(1, p)), p


def test_pow_conventions():
    f = Field(11, gamma=8)
    assert f.pow(8, 4) == 4
    assert f.pow(8, 0) == 1
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    assert f.pow(8, -1) == f.inv(8)
    assert f.pow(8, 10) == 1  # Fermat


def test_inverse_total_on_nonzero():
    for p in [2, 3, 11, 13]:
        f = Field(p)
        for a in range(1, p):
            assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroElementError):
        Field(11).inv(0)


@pytest.mark.parametrize("p", [2, 3, 11, 13, 257])
def test_field_axioms_random(p):
    f = Field(p)
    rng = random.Random(p)
    for _ in range(200):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == 0
        assert f.sub(a, b) == f.add(a, f.neg(b))
        assert 0 <= f.mul(a, b) < p and 0 <= f.add(a, b) < p


def test_element_validation():
    f = Field(11)
    assert f.validate(10) == 10
    with pytest.raises(ValueError):
        f.validate(11)
    with pytest.raises(ValueError):
        f.validate(-1)


def test_prime_factors_match_trial_division():
    for n in range(2, 20001):
        assert _prime_factors(n) == trial_division_factors(n), n


def test_prime_factors_split_large_composites():
    # products of large primes, a large prime square and a Mersenne prime
    cases = {
        2147483629 * 2147483647: [2147483629, 2147483647],
        999983 * 1000003 * 1000033: [999983, 1000003, 1000033],
        4294967291**2 * 12: [2, 3, 4294967291],
        2**61 - 1: [2**61 - 1],
    }
    for n, want in cases.items():
        assert _prime_factors(n) == want


def test_large_safe_prime_field_is_fast():
    assert Field(562949953422839).gamma == 11  # 50-bit safe prime
    start = time.perf_counter()
    field = Field(4611686018427377339)  # 62-bit safe prime
    assert time.perf_counter() - start < 0.5
    assert field.is_primitive(field.gamma)
