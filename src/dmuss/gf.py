"""Prime fields GF(p).

Field elements are plain Python ints in ``[0, p-1]``; a :class:`Field`
instance carries the modulus and a designated primitive element (generator
of the multiplicative group).  The scheme's arithmetic is inline ``%``
and ``pow`` on those ints; this module only proves the modulus prime and
finds the generator.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import gcd, prod

from .errors import BadSymbolError, NotPrimeError, TooLargeError, ZeroElementError

# The first 13 primes, the Miller-Rabin witnesses.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_PRODUCT = prod(_MR_WITNESSES)
# psi_t (OEIS A014233; Jaeschke, Math. Comp. 1993): the least strong
# pseudoprime to each of the first t witnesses, for t = 1..13, so the first
# t witnesses prove every n < psi_t.  psi_12 = 399165290221 * 798330580441.
_MR_PSI = (
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
# psi_13 = 1287836182261 * 2575672364521, past which no witness set here proves n.
_MR_BOUND = _MR_PSI[-1]
# Odd trial divisors of p - 1 run below this before Pollard-Brent.
_TRIAL_BOUND = 1 << 10
# Moduli whose factors of p - 1 and smallest generator a process keeps.
_MODULUS_CACHE_SIZE = 16


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10^24.

    n runs against the first t witnesses, t the least with n < psi_t
    (:data:`_MR_PSI`): 2 and 3 below 1373653, 2..7 below 3215031751, all 13
    below the bound.

    Raises:
        NotPrimeError: n is not an int (bools included).
        TooLargeError: n is at least the bound, where the witnesses no
            longer prove the answer.
    """
    if type(n) is not int:
        raise NotPrimeError(f"primality is defined for ints, got {n!r}")
    if n >= _MR_BOUND:
        raise TooLargeError(f"{n} is too large: primality is proven only below {_MR_BOUND}")
    if n < 2:
        return False
    if gcd(n, _WITNESS_PRODUCT) != 1:
        return n in _MR_WITNESSES
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n by Pollard-Brent rho.

    Iterates x -> x^2 + c from x = 2 with c = 1, 2, ... until one walk
    splits n; gcds are taken over batches of 128 steps.  No randomness,
    so the same n always gives the same divisor.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=_MODULUS_CACHE_SIZE, typed=True)
def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending.

    2 and then the odd numbers d below 2**10 are divided out while
    d * d <= n; a rest above 1 is then prime when d * d > n, and otherwise
    splits by :func:`_rho_divisor` until every part passes
    :func:`is_prime`.  Kept per n for the last
    :data:`_MODULUS_CACHE_SIZE` values, so the list is shared: callers
    must not mutate it.
    """
    out = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d = 3 if d == 2 else d + 2
    if n > 1 and d * d > n:
        out.add(n)
        n = 1
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return sorted(out)


@lru_cache(maxsize=_MODULUS_CACHE_SIZE, typed=True)
def _smallest_generator(p: int) -> int:
    """The smallest generator of GF(p)* for prime p, kept per p like
    :func:`_prime_factors` (p = 2's trivial group is generated by 1)."""
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no generator found; modulus not prime?")


def _powers(x: int, count: int, p: int) -> list[int]:
    """[1, x, x^2, ..., x^(count-1)] mod p: one multiplication per power,
    where a ``pow`` per power would redo the square-and-multiply each time."""
    out = []
    y = 1
    for _ in range(count):
        out.append(y)
        y = y * x % p
    return out


def _inverses(values: list[int], p: int) -> list[int]:
    """The inverses of nonzero ``values`` mod p with one ``pow``: prefix
    products, one inversion of their total, then a backward walk.  The
    inversion is ``pow(x, -1, p)``, the extended Euclidean algorithm,
    which takes O(log p) divisions where Fermat's x^(p-2) squares
    log p times."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inv = pow(prefix[-1], -1, p)
    out = [0] * len(values)
    for j in range(len(values) - 1, -1, -1):
        out[j] = inv * prefix[j] % p
        inv = inv * values[j] % p
    return out


class Field:
    """GF(p) for prime p, with a designated primitive element ``gamma``.

    Args:
        p: field modulus; must be prime.
        gamma: optional primitive element.  When omitted the smallest
            generator of the multiplicative group is chosen, so equal
            moduli always give the same field description.

    Raises:
        NotPrimeError: p is composite, < 2 or not an int (bools included).
        TooLargeError: p >= 3.3 * 10^24 (see :func:`is_prime`).
        BadSymbolError: an explicit gamma is not an element of GF(p):
            an int (not a bool) in [0, p).
        ZeroElementError: an explicit gamma of zero was supplied.
        ValueError: an explicit gamma is not primitive.
    """

    def __init__(self, p: int, gamma: int | None = None):
        if not is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        self.p = p
        # p - 1's factors and the smallest generator are derived once per
        # process for each modulus; primitivity checks reuse the factors.
        self._unit_factors = _prime_factors(p - 1) if p > 2 else []
        if gamma is None:
            gamma = _smallest_generator(p)
        else:
            if type(gamma) is not int or not 0 <= gamma < p:
                raise BadSymbolError(f"gamma {gamma!r} is not an element of GF({p})")
            if not self.is_primitive(gamma):
                raise ValueError(f"{gamma} does not generate GF({p})*")
        self.gamma = gamma

    def is_primitive(self, e: int) -> bool:
        """True iff e generates the multiplicative group (order p-1)."""
        if e % self.p == 0:
            raise ZeroElementError("zero has no multiplicative order")
        e %= self.p
        if self.p == 2:
            return True
        return all(pow(e, (self.p - 1) // q, self.p) != 1 for q in self._unit_factors)

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.gamma) == (other.p, other.gamma)

    def __hash__(self):
        return hash((self.p, self.gamma))

    def __repr__(self):
        return f"Field(p={self.p}, gamma={self.gamma})"
