"""Arithmetic in small finite fields F_{ell^k} and polynomials over F_ell.

Fields are represented in a polynomial basis over F_ell with a fixed,
deterministically chosen irreducible modulus h, so results are reproducible
across runs.  Elements are tuples of ints of length k (little-endian
coefficients).

Polynomials over the prime field F_ell are little-endian int lists, the
``flx_*`` functions: division polynomials and Frobenius modules
(``fqcurves``), residue roots (``padic``), the irreducibility test behind
``conway_like_modulus`` and the field inverse all use them.
"""

from __future__ import annotations

import random
from functools import lru_cache


# ---------------------------------------------------------------------------
# Polynomials over F_ell: dense little-endian int lists.
# ---------------------------------------------------------------------------

def flx_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def flx_deg(f) -> int:
    f = flx_trim(f)
    return -1 if f == [0] else len(f) - 1


def flx_add(ell: int, f, g):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return flx_trim([(a + b) % ell for a, b in zip(f, g)])


def flx_sub(ell: int, f, g):
    n = max(len(f), len(g))
    f = f + [0] * (n - len(f))
    g = g + [0] * (n - len(g))
    return flx_trim([(a - b) % ell for a, b in zip(f, g)])


def flx_smul(ell: int, c: int, f):
    return flx_trim([(c * a) % ell for a in f])


def flx_mul(ell: int, f, g):
    if flx_deg(f) < 0 or flx_deg(g) < 0:
        return [0]
    if len(f) < 16 or len(g) < 16:
        res = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    res[i + j] = (res[i + j] + a * b) % ell
        return flx_trim(res)
    # Kronecker substitution: one big-integer multiply, then unpack.
    w = ((min(len(f), len(g)) * (ell - 1) ** 2).bit_length() + 7) // 8
    pf = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in f), "little")
    pg = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in g), "little")
    n = len(f) + len(g) - 1
    raw = (pf * pg).to_bytes(n * w, "little")
    return flx_trim([int.from_bytes(raw[i * w:(i + 1) * w], "little") % ell
                     for i in range(n)])


def flx_divmod(ell: int, f, g):
    """(quotient, remainder) in one pass: each coefficient of f is reduced
    mod ell once, when the pass reads it, and both results are trimmed at
    the end."""
    g = flx_trim(g)
    dg = len(g) - 1
    if dg == 0 and g[0] % ell == 0:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, ell)
    rem = list(f)
    quot = [0] * max(1, len(rem) - dg)
    for i in range(len(rem) - 1 - dg, -1, -1):
        c = rem[i + dg] * inv % ell
        if c:
            quot[i] = c
            for j in range(dg):
                rem[i + j] -= c * g[j]
    return flx_trim(quot), flx_trim([c % ell for c in rem[:dg]] or [0])


def flx_mod(ell: int, f, g):
    return flx_divmod(ell, f, g)[1]


def flx_monic(ell: int, f):
    f = flx_trim(list(f))
    if flx_deg(f) < 0:
        return f
    return flx_smul(ell, pow(f[-1], -1, ell), f)


def flx_gcd(ell: int, f, g):
    f, g = flx_trim(list(f)), flx_trim(list(g))
    while flx_deg(g) >= 0:
        f, g = g, flx_mod(ell, f, g)
    return flx_monic(ell, f)


def flx_powmod(ell: int, f, n: int, m):
    res = [1]
    f = flx_mod(ell, f, m)
    while n:
        if n & 1:
            res = flx_mod(ell, flx_mul(ell, res, f), m)
        f = flx_mod(ell, flx_mul(ell, f, f), m)
        n >>= 1
    return res


def flx_split(ell: int, g, D: int, r):
    """One equal-degree split step of Cantor-Zassenhaus for g, a product
    of distinct monic irreducibles of degree D over F_ell: the gcd of g
    with r^((ell^D - 1)/2) - 1, or with the trace r + r^2 + ... +
    r^(2^(D-1)) when ell = 2.  A random r gives a proper factor with
    probability about 1/2."""
    if ell == 2:
        acc = [0]
        cur = flx_mod(ell, r, g)
        for _ in range(D):
            acc = flx_add(ell, acc, cur)
            cur = flx_mod(ell, flx_mul(ell, cur, cur), g)
        return flx_gcd(ell, acc, g)
    t = flx_powmod(ell, r, (ell**D - 1) // 2, g)
    return flx_gcd(ell, flx_sub(ell, t, [1]), g)


def flx_roots(ell: int, f) -> list[int]:
    """Sorted distinct roots in F_ell of an int polynomial that is
    nonzero mod ell: the linear factors gcd(x^ell - x, f), split by
    ``flx_split``."""
    f = flx_trim([c % ell for c in f])
    if len(f) == 1:
        return []
    todo = [flx_gcd(ell, flx_sub(ell, flx_powmod(ell, [0, 1], ell, f), [0, 1]), f)]
    rng = random.Random(ell)
    roots = []
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % ell)
        elif len(g) > 2:
            h = flx_split(ell, g, 1, [rng.randrange(ell), 1])
            if 1 < len(h) < len(g):
                todo += [h, flx_divmod(ell, g, h)[0]]
            else:
                todo.append(g)
    return sorted(roots)


def _poly_is_irreducible(coeffs: tuple[int, ...], ell: int) -> bool:
    """Ben-Or's test for a monic f of degree k over F_ell: f is
    irreducible iff gcd(x^(ell^i) - x, f) = 1 for every i <= k/2, each
    x^(ell^i) mod f the ell-th power of the one before."""
    f = list(coeffs)
    x = [0, 1]
    h = x
    for _ in range((len(f) - 1) // 2):
        h = flx_powmod(ell, h, ell, f)
        if flx_deg(flx_gcd(ell, flx_sub(ell, h, x), f)) > 0:
            return False
    return True


@lru_cache(maxsize=None)
def conway_like_modulus(ell: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_ell in lexicographic order
    of the coefficient tuple (c0, c1, ..., c_{k-1}, 1)."""
    if k == 1:
        return (0, 1)
    for num in range(ell**k):
        coeffs = []
        n = num
        for _ in range(k):
            coeffs.append(n % ell)
            n //= ell
        cand = tuple(coeffs) + (1,)
        if cand[0] == 0:
            continue  # reducible: x divides
        if _poly_is_irreducible(cand, ell):
            return cand
    raise RuntimeError("no irreducible found")  # pragma: no cover


class Fq:
    """The field F_{ell^k} with a fixed modulus; elements are int tuples.

    The modulus defaults to the deterministic lexicographic choice; an
    explicit monic irreducible over F_ell may be supplied instead (used to
    represent extension fields generated by a root of a specific
    polynomial, e.g. a division-polynomial factor).
    """

    def __init__(self, ell: int, k: int, modulus: tuple[int, ...] | None = None):
        self.ell = ell
        self.k = k
        self.q = ell**k
        if modulus is None:
            self.modulus = conway_like_modulus(ell, k)
        else:
            modulus = tuple(c % ell for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            self.modulus = modulus
        # bytes per packed coefficient: before reduction the coefficients
        # of a product are bounded by k*(ell-1)^2
        self._width = ((k * (ell - 1) ** 2).bit_length() + 7) // 8
        self._mod_tail = [(i, c) for i, c in enumerate(self.modulus[:-1]) if c]

    def _pack(self, a) -> int:
        w = self._width
        if w == 1:
            return int.from_bytes(bytes(a), "little")
        return int.from_bytes(
            b"".join(c.to_bytes(w, "little") for c in a), "little")

    # -- element constructors -------------------------------------------------
    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        return (n % self.ell,) + (0,) * (self.k - 1)

    def gen(self):
        if self.k == 1:
            raise ValueError("prime field has no generator element t")
        return (0, 1) + (0,) * (self.k - 2)

    def from_index(self, idx: int):
        """Element number idx in the lexicographic enumeration of tuples."""
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.ell)
            idx //= self.ell
        return tuple(coeffs)

    def elements(self):
        for idx in range(self.q):
            yield self.from_index(idx)

    # -- arithmetic -----------------------------------------------------------
    def add(self, a, b):
        return tuple((x + y) % self.ell for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.ell for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.ell for x in a)

    def mul(self, a, b):
        ell, k = self.ell, self.k
        if k == 1:
            return ((a[0] * b[0]) % ell,)
        # Kronecker substitution: one big-integer multiply, then unpack.
        w = self._width
        prod = self._pack(a) * self._pack(b)
        raw = prod.to_bytes((2 * k - 1) * w, "little")
        if w == 1:
            res = [c % ell for c in raw]
        else:
            res = [int.from_bytes(raw[i * w:(i + 1) * w], "little") % ell
                   for i in range(2 * k - 1)]
        tail = self._mod_tail
        for i in range(2 * k - 2, k - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                base = i - k
                for j, fj in tail:
                    res[base + j] = (res[base + j] - c * fj) % ell
        return tuple(res[:k])

    def smul(self, c: int, a):
        c %= self.ell
        return tuple((c * x) % self.ell for x in a)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        res = self.one()
        base = a
        while n:
            if n & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            n >>= 1
        return res

    def inv(self, a):
        """Extended Euclid against the modulus in F_ell[t]: s*a = r mod h
        at every step, and r ends as a nonzero constant.  O(k^2) small-int
        steps instead of the ~2*log2(q) products of a^(q-2)."""
        if self.is_zero(a):
            raise ZeroDivisionError
        ell = self.ell
        r0, r1 = list(self.modulus), flx_trim(list(a))
        s0, s1 = [0], [1]
        while len(r1) > 1:
            quot, rem = flx_divmod(ell, r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, flx_sub(ell, s0, flx_mul(ell, quot, s1))
        s = flx_smul(ell, pow(r1[0], -1, ell), s1)
        return tuple(s) + (0,) * (self.k - len(s))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def element_order(self, a) -> int:
        if self.is_zero(a):
            raise ValueError("zero has no multiplicative order")
        from .arith import factorize

        n = self.q - 1
        for prime, _ in factorize(n).factors if n > 1 else []:
            while n % prime == 0 and self.is_zero(self.sub(self.pow(a, n // prime), self.one())):
                n //= prime
        return n

    def is_square(self, a) -> bool:
        if self.is_zero(a):
            return True
        if self.ell == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == self.one()


class QuadExt:
    """The quadratic ring L = B[Y]/(Y^2 + bY - c) over a field B.

    Elements are pairs (u, v) of B-elements meaning u + vY, multiplied
    with Y^2 = c - bY.  The conjugate of u + vY is u - vb - vY (the other
    root of the quadratic is -b - Y), and their product is the norm
    u^2 - uvb - v^2c, so an element is invertible iff its norm is nonzero.
    L is a field when the quadratic is irreducible over B; when it splits
    with distinct roots, L is isomorphic to B x B and its zero divisors
    are the nonzero elements of norm 0.  Implements the same protocol as
    Fq, so curves work over it.
    """

    def __init__(self, base: Fq, b, c):
        self.base = base
        self.b = b
        self.c = c
        self.ell = base.ell
        self.k = 2 * base.k
        self.q = base.q**2

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def gen(self):
        """Y."""
        return (self.base.zero(), self.base.one())

    def from_int(self, n: int):
        return (self.base.from_int(n), self.base.zero())

    def from_base(self, a):
        return (a, self.base.zero())

    def add(self, x, y):
        return (self.base.add(x[0], y[0]), self.base.add(x[1], y[1]))

    def sub(self, x, y):
        return (self.base.sub(x[0], y[0]), self.base.sub(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def smul(self, c: int, x):
        return (self.base.smul(c, x[0]), self.base.smul(c, x[1]))

    def mul(self, x, y):
        B = self.base
        u1, v1 = x
        u2, v2 = y
        vv = B.mul(v1, v2)  # the coefficient of Y^2 = c - bY
        cross = B.add(B.mul(u1, v2), B.mul(v1, u2))
        return (B.add(B.mul(u1, u2), B.mul(vv, self.c)),
                B.sub(cross, B.mul(vv, self.b)))

    def is_zero(self, x) -> bool:
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])

    def pow(self, x, n: int):
        if n < 0:
            return self.pow(self.inv(x), -n)
        res = self.one()
        while n:
            if n & 1:
                res = self.mul(res, x)
            x = self.mul(x, x)
            n >>= 1
        return res

    def inv(self, x):
        """The conjugate over the norm; ZeroDivisionError when the norm
        is 0 (x = 0, or a zero divisor of a split L)."""
        B = self.base
        u, v = x
        ub = B.sub(u, B.mul(v, self.b))
        norm = B.sub(B.mul(u, ub), B.mul(B.mul(v, v), self.c))
        ninv = B.inv(norm)
        return (B.mul(ub, ninv), B.neg(B.mul(v, ninv)))

    def div(self, x, y):
        return self.mul(x, self.inv(y))
