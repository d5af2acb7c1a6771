"""Prime-field arithmetic GF(p).

Field elements are plain Python ints in ``[0, p-1]``; a :class:`Field`
instance carries the modulus and a designated primitive element (generator
of the multiplicative group).  All scheme arithmetic sits on top of this
module, so the operations here are deliberately boring: wrap, reduce,
invert via Fermat.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import NotPrimeError, ZeroElementError

# Deterministic Miller-Rabin witnesses, sufficient for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for moduli of interest."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
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


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending.

    Primes below 41 are divided out; what is left splits by
    :func:`_rho_divisor` until every part passes :func:`is_prime`.
    """
    out = set()
    for q in _MR_WITNESSES:
        if n % q == 0:
            out.add(q)
            while n % q == 0:
                n //= q
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho_divisor(m)
            parts += [d, m // d]
    return sorted(out)


class Field:
    """GF(p) for prime p, with a designated primitive element ``gamma``.

    Args:
        p: field modulus; must be prime.
        gamma: optional primitive element.  When omitted the smallest
            generator of the multiplicative group is chosen, so equal
            moduli always give the same field description.

    Raises:
        NotPrimeError: p is composite or < 2.
        ZeroElementError: an explicit gamma of zero was supplied.
        ValueError: an explicit gamma is not primitive.
    """

    def __init__(self, p: int, gamma: int | None = None):
        if not is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        self.p = p
        # Factor p-1 once; primitivity checks reuse it.
        self._unit_factors = _prime_factors(p - 1) if p > 2 else []
        if gamma is None:
            gamma = self._smallest_generator()
        else:
            gamma %= p
            if not self.is_primitive(gamma):
                raise ValueError(f"{gamma} does not generate GF({p})*")
        self.gamma = gamma

    def _smallest_generator(self) -> int:
        if self.p == 2:
            return 1  # multiplicative group is trivial
        for g in range(2, self.p):
            if self.is_primitive(g):
                return g
        raise AssertionError("no generator found; modulus not prime?")

    def is_primitive(self, e: int) -> bool:
        """True iff e generates the multiplicative group (order p-1)."""
        if e % self.p == 0:
            raise ZeroElementError("zero has no multiplicative order")
        e %= self.p
        if self.p == 2:
            return True
        return all(pow(e, (self.p - 1) // q, self.p) != 1 for q in self._unit_factors)

    # --- element arithmetic -------------------------------------------------

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.p:
            raise ValueError(f"{a!r} is not an element of GF({self.p})")
        return a

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem."""
        if a % self.p == 0:
            raise ZeroElementError("zero is not invertible")
        return pow(a, self.p - 2, self.p)

    def pow(self, base: int, exp: int) -> int:
        """base**exp with the convention pow(x, 0) == 1 (including x == 0)."""
        if exp < 0:
            return pow(self.inv(base), -exp, self.p)
        return pow(base, exp, self.p)

    def elements(self) -> range:
        return range(self.p)

    def nonzero_elements(self) -> range:
        return range(1, self.p)

    def rand(self, rng: random.Random) -> int:
        return rng.randrange(self.p)

    def rand_nonzero(self, rng: random.Random) -> int:
        return rng.randrange(1, self.p)

    # ------------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.gamma) == (other.p, other.gamma)

    def __hash__(self):
        return hash((self.p, self.gamma))

    def __repr__(self):
        return f"Field(p={self.p}, gamma={self.gamma})"
