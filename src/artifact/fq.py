"""Arithmetic in small finite fields F_{ell^k} and polynomials over them.

Fields are represented in a polynomial basis over F_ell with a fixed,
deterministically chosen irreducible modulus h, so results are reproducible
across runs.  Elements are tuples of ints of length k (little-endian
coefficients).

Polynomials come in two representations, each with one owner:

* ``flx_*``: polynomials over the prime field F_ell as little-endian int
  lists.  Division polynomials and Frobenius modules (``fqcurves``) and
  the irreducibility test behind ``conway_like_modulus`` use these.
* ``poly_*``: polynomials over any field with the ``Fq`` protocol (``Fq``
  or ``QuadExt``) as lists of field elements.  Root finding in extension
  fields uses these: the residue roots of ``padic``, field embeddings
  and the pairing fields of ``fqcurves``.
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
    f = flx_trim(list(f))
    g = flx_trim(list(g))
    dg = flx_deg(g)
    if dg < 0:
        raise ZeroDivisionError
    inv = pow(g[-1], -1, ell)
    quot = [0] * max(1, len(f) - dg)
    rem = list(f)
    while flx_deg(rem) >= dg:
        dr = flx_deg(rem)
        c = (rem[dr] * inv) % ell
        quot[dr - dg] = c
        for j in range(dg + 1):
            rem[dr - dg + j] = (rem[dr - dg + j] - c * g[j]) % ell
        rem = flx_trim(rem)
    return flx_trim(quot), rem


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


# ---------------------------------------------------------------------------
# Polynomials over Fq: dense little-endian coefficient lists.
# ---------------------------------------------------------------------------

def poly_trim(F: Fq, f):
    while len(f) > 1 and F.is_zero(f[-1]):
        f = f[:-1]
    return f


def poly_deg(F: Fq, f) -> int:
    f = poly_trim(F, f)
    if len(f) == 1 and F.is_zero(f[0]):
        return -1
    return len(f) - 1


def poly_add(F: Fq, f, g):
    n = max(len(f), len(g))
    f = list(f) + [F.zero()] * (n - len(f))
    g = list(g) + [F.zero()] * (n - len(g))
    return poly_trim(F, [F.add(a, b) for a, b in zip(f, g)])


def poly_sub(F: Fq, f, g):
    n = max(len(f), len(g))
    f = list(f) + [F.zero()] * (n - len(f))
    g = list(g) + [F.zero()] * (n - len(g))
    return poly_trim(F, [F.sub(a, b) for a, b in zip(f, g)])


def poly_mul(F: Fq, f, g):
    if poly_deg(F, f) < 0 or poly_deg(F, g) < 0:
        return [F.zero()]
    res = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not F.is_zero(a):
            for j, b in enumerate(g):
                res[i + j] = F.add(res[i + j], F.mul(a, b))
    return poly_trim(F, res)


def poly_divmod(F: Fq, f, g):
    f = list(poly_trim(F, f))
    g = poly_trim(F, g)
    dg = poly_deg(F, g)
    if dg < 0:
        raise ZeroDivisionError
    inv_lead = F.inv(g[-1])
    q = [F.zero()] * max(len(f) - dg, 1)
    while poly_deg(F, f) >= dg:
        df = len(f) - 1
        c = F.mul(f[-1], inv_lead)
        q[df - dg] = c
        for j in range(dg + 1):
            f[df - dg + j] = F.sub(f[df - dg + j], F.mul(c, g[j]))
        f = list(poly_trim(F, f))
    return poly_trim(F, q), poly_trim(F, f)


def poly_mod(F: Fq, f, g):
    return poly_divmod(F, f, g)[1]


def poly_gcd(F: Fq, f, g):
    f, g = poly_trim(F, f), poly_trim(F, g)
    while poly_deg(F, g) >= 0:
        f, g = g, poly_mod(F, f, g)
    d = poly_deg(F, f)
    if d >= 0:
        lead_inv = F.inv(f[-1])
        f = [F.mul(c, lead_inv) for c in f]
    return f


def poly_powmod(F: Fq, f, n: int, mod):
    res = [F.one()]
    base = poly_mod(F, f, mod)
    while n:
        if n & 1:
            res = poly_mod(F, poly_mul(F, res, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        n >>= 1
    return res


def poly_eval(F: Fq, f, x):
    res = F.zero()
    for c in reversed(poly_trim(F, f)):
        res = F.add(F.mul(res, x), c)
    return res


def _split_all_linear(F: Fq, f, rng: random.Random):
    """Roots of f, assuming f is squarefree and splits into linears over F."""
    d = poly_deg(F, f)
    if d <= 0:
        return []
    if d == 1:
        return [F.neg(F.div(f[0], f[1]))]
    while True:
        if F.ell == 2:
            # trace splitting of y -> c*y: T(z) = z + z^2 + ... + z^(2^(k-1))
            c = F.from_index(1 + rng.randrange(F.q - 1))
            acc = [F.zero()]
            cur = poly_mod(F, [F.zero(), c], f)
            for _ in range(F.k):
                acc = poly_add(F, acc, cur)
                cur = poly_mod(F, poly_mul(F, cur, cur), f)
            g = poly_gcd(F, acc, f)
        else:
            delta = F.from_index(rng.randrange(F.q))
            h = poly_powmod(F, [delta, F.one()], (F.q - 1) // 2, f)
            g = poly_gcd(F, poly_sub(F, h, [F.one()]), f)
        dg = poly_deg(F, g)
        if 0 < dg < d:
            other, _ = poly_divmod(F, f, g)
            return _split_all_linear(F, g, rng) + _split_all_linear(F, other, rng)


def poly_roots(F: Fq, f) -> list:
    """Distinct roots of f in F (no multiplicities)."""
    f = poly_trim(F, f)
    if poly_deg(F, f) < 1:
        return []
    xq = poly_powmod(F, [F.zero(), F.one()], F.q, f)
    g = poly_gcd(F, poly_sub(F, xq, [F.zero(), F.one()]), f)
    rng = random.Random(0xC0FFEE ^ F.q ^ poly_deg(F, f))
    return sorted(_split_all_linear(F, g, rng))


def poly_root_multiplicity(F: Fq, f, r) -> int:
    m = 0
    f = poly_trim(F, f)
    while poly_deg(F, f) >= 1 and F.is_zero(poly_eval(F, f, r)):
        f, _ = poly_divmod(F, f, [F.neg(r), F.one()])
        m += 1
    return m


class QuadExt:
    """Quadratic extension B(sqrt(D)) of a field B with D a non-square.

    Elements are pairs (a, b) of B-elements meaning a + b*sqrt(D).
    Implements the same protocol as Fq so the polynomial helpers above
    work over it.
    """

    def __init__(self, base: Fq, D):
        self.base = base
        self.D = D
        self.ell = base.ell
        self.k = 2 * base.k
        self.q = base.q**2

    def zero(self):
        return (self.base.zero(), self.base.zero())

    def one(self):
        return (self.base.one(), self.base.zero())

    def gen(self):
        """sqrt(D)."""
        return (self.base.zero(), self.base.one())

    def from_int(self, n: int):
        return (self.base.from_int(n), self.base.zero())

    def from_base(self, a):
        return (a, self.base.zero())

    def from_index(self, idx: int):
        return (self.base.from_index(idx % self.base.q),
                self.base.from_index(idx // self.base.q))

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
        a, b = x
        c, d = y
        return (B.add(B.mul(a, c), B.mul(B.mul(b, d), self.D)),
                B.add(B.mul(a, d), B.mul(b, c)))

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
        B = self.base
        a, b = x
        norm = B.sub(B.mul(a, a), B.mul(B.mul(b, b), self.D))
        ninv = B.inv(norm)
        return (B.mul(a, ninv), B.neg(B.mul(b, ninv)))

    def div(self, x, y):
        return self.mul(x, self.inv(y))


_EMBED_ROOT_CACHE: dict = {}


def field_embed(small: Fq, a, big) -> tuple:
    """Image of a in a bigger field (Fq with any modulus, or QuadExt)
    under the fixed embedding sending the generator of `small` to the
    least root of small.modulus in `big`."""
    if small.k == 1:
        return big.from_int(a[0])
    key = (small.ell, small.k, small.modulus, id(big))
    if key not in _EMBED_ROOT_CACHE:
        coeffs = [big.from_int(c) for c in small.modulus]
        roots = poly_roots(big, coeffs)
        if not roots:
            raise ValueError("no embedding: modulus has no root in target")
        _EMBED_ROOT_CACHE[key] = roots[0]
    img = _EMBED_ROOT_CACHE[key]
    res = big.zero()
    power = big.one()
    for c in a:
        res = big.add(res, big.smul(c, power))
        power = big.mul(power, img)
    return res
