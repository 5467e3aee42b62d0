"""Exact integer arithmetic: valuations, Legendre/Jacobi symbols, factoring.

Everything here is deterministic and exact.  Inputs are desk-scale
(factoring targets are at most conductor-sized), so trial division plus
Pollard rho is plenty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
# Trial division by the same primes proves every n < 43^2: a composite
# below it has a prime factor <= 41.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 43 * 43:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=32)
def primes_upto(n: int) -> tuple[int, ...]:
    """The primes q <= n in increasing order (sieve of Eratosthenes)."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n + 1, q)))
    return tuple(compress(range(n + 1), sieve))


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for odd positive m."""
    if m <= 0 or m % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    a %= m
    acc = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                acc = -acc
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            acc = -acc
        a %= m
    return acc if m == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p); p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return jacobi(a, p)


def valuation(n: int, ell: int) -> int:
    """Largest k with ell^k | n.  Rejects n = 0 (infinite valuation)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    k = 0
    while n % ell == 0:
        n //= ell
        k += 1
    return k


@dataclass(frozen=True)
class Factorization:
    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes increasing

    def value(self) -> int:
        n = self.sign
        for q, e in self.factors:
            n *= q**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)


def _pollard_rho(n: int) -> int:
    """Brent-cycle Pollard rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # pragma: no cover


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


def factorize(n: int) -> Factorization:
    """Complete prime factorization of a nonzero integer."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    fac: dict[int, int] = {}
    for q in range(2, _TRIAL_LIMIT):
        if q * q > n:
            break
        while n % q == 0:
            fac[q] = fac.get(q, 0) + 1
            n //= q
    if n > 1:
        _factor_into(n, fac)
    return Factorization(sign, tuple(sorted(fac.items())))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def squarefree_part(n: int) -> int:
    """The unique squarefree d with n = d * s^2, for n >= 1."""
    if n < 1:
        raise ValueError("requires n >= 1")
    d = 1
    for q, e in factorize(n).factors:
        if e % 2:
            d *= q
    return d


def discriminant(coeffs: list[int]) -> int:
    """Discriminant (-1)^(n(n-1)/2) Res(f, f') / a_n of the integer
    polynomial f = sum coeffs[i] x^i of degree n >= 1."""
    f = list(coeffs)
    while f and f[-1] == 0:
        f.pop()
    n = len(f) - 1
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    hi = f[::-1]
    df = [i * c for i, c in enumerate(f)][:0:-1]
    size = 2 * n - 1
    rows = ([[0] * i + hi + [0] * (n - 2 - i) for i in range(n - 1)]
            + [[0] * i + df + [0] * (n - 1 - i) for i in range(n)])
    # Bareiss fraction-free elimination of the Sylvester matrix
    sign, prev = (-1) ** (n * (n - 1) // 2), 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * rows[-1][-1] // f[-1]
