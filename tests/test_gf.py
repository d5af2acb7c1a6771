"""Field layer: primality, generators, factoring p-1, batched inverses."""

import random
import time

import pytest

from conftest import slow_is_prime
from dmuss.errors import BadSymbolError, NotPrimeError, TooLargeError, ZeroElementError
from dmuss.gf import Field, _inverses, _prime_factors, is_prime

# the least strong pseudoprime to every prime base <= 41
PSEUDOPRIME = 3317044064679887385961981
# the least strong pseudoprime to every prime base <= 37; base 41 exposes it
PSEUDOPRIME_37 = 318665857834031151167461


# psi_t, t = 1..13 (OEIS A014233): the least strong pseudoprime to the first t
# primes as bases, so every one is composite
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


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


@pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 21, 91, 100, "7", 7.0, None, True, False])
def test_composite_modulus_rejected(n):
    # a modulus that is not an int (bools included) is refused like a composite
    with pytest.raises(NotPrimeError):
        Field(n)


def test_moduli_beyond_the_witness_bound_are_refused():
    # Miller-Rabin with the bases <= 41 calls this composite "prime"
    assert PSEUDOPRIME == 1287836182261 * 2575672364521
    # below the bound the answer is proven, so this one is caught
    assert PSEUDOPRIME_37 == 399165290221 * 798330580441
    assert not is_prime(PSEUDOPRIME_37)
    with pytest.raises(NotPrimeError):
        Field(PSEUDOPRIME_37)
    assert is_prime(41) and not is_prime(41 * 43)
    for n in (PSEUDOPRIME, PSEUDOPRIME + 1, 10**30):
        with pytest.raises(TooLargeError):
            is_prime(n)
        with pytest.raises(TooLargeError):
            Field(n)
    field = Field(2**61 - 1)
    assert field.is_primitive(field.gamma)


def test_explicit_generator_validated():
    assert Field(11, gamma=8).gamma == 8
    with pytest.raises(ValueError):
        Field(11, gamma=10)  # order 2
    with pytest.raises(ValueError):
        Field(11, gamma=3)  # order 5
    with pytest.raises(ZeroElementError):
        Field(11, gamma=0)


@pytest.mark.parametrize("bad", [19, 11, -3, 8.0, True])
def test_explicit_generator_outside_the_field_rejected(bad):
    # 19, -3 and 8.0 all reduce to the generator 8; none is an element of GF(11)
    with pytest.raises(BadSymbolError):
        Field(11, gamma=bad)


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
        powers = {pow(f.gamma, i, p) for i in range(1, p)}
        assert powers == set(range(1, p)), p


def test_witness_prefix_matches_all_thirteen_witnesses_fuzz():
    # is_prime takes the first t witnesses below psi_t; the reference takes
    # all 13 everywhere.  Each psi_t passes its own prefix, so it must be
    # refused by the next witness, and the last one is past the bound.
    assert PSI[-1] == PSEUDOPRIME and PSI[-2] == PSEUDOPRIME_37
    for psi in PSI[:-1]:
        assert not slow_is_prime(psi) and not is_prime(psi), psi
        with pytest.raises(NotPrimeError):
            Field(psi)
    with pytest.raises(TooLargeError):
        is_prime(PSI[-1])
    rng = random.Random(24)
    lo = 2
    for hi in sorted(set(PSI)):
        for _ in range(300):
            n = rng.randrange(lo, hi)
            assert is_prime(n) == slow_is_prime(n), n
        for _ in range(10):  # the next prime up from a random start, and its odd neighbours
            n = rng.randrange(lo, hi) | 1
            while not slow_is_prime(n):
                n += 2
            for m in (n - 2, n, n + 2):
                if m < hi:
                    assert is_prime(m) == slow_is_prime(m), m
        lo = hi


def test_prime_factors_are_prime_and_complete_fuzz():
    # trial division below 2**10, then Pollard-Brent: every factor is
    # prime, and dividing them all out leaves 1
    rng = random.Random(25)
    for bits in (10, 20, 31, 40, 62):
        for _ in range(40):
            n = rng.randrange(2, 1 << bits)
            factors = _prime_factors(n)
            assert factors == sorted(set(factors)) and all(slow_is_prime(q) for q in factors), n
            for q in factors:
                while n % q == 0:
                    n //= q
            assert n == 1


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


def test_inverses_agree_with_fermat_inversion():
    rng = random.Random(31)
    for p in (2, 3, 5, 11, 65537, 2**31 - 1, 2**61 - 1):
        for count in (0, 1, 2, 7, 40):
            values = [rng.randrange(1, p) for _ in range(count)]
            assert _inverses(values, p) == [pow(v, p - 2, p) for v in values], (p, values)
