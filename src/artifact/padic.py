"""Root counting for integer polynomials over the maximal unramified
extension of Q_ell (ell = 2 or 3 in practice).

Every root of a monic integer polynomial of degree <= 4 that lies in the
maximal unramified extension generates an unramified extension of degree
<= 4, so it already lives in the ring of Witt vectors of F_{ell^12}.  We
model that ring as Z[t]/(h(t), ell^N) for the fixed degree-12 modulus h
and count roots by residue analysis plus digit lifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy

from .arith import valuation
from .fq import Fq, poly_roots, poly_root_multiplicity, poly_trim


class PrecisionError(ArithmeticError):
    pass


class Wring:
    """Unramified extension ring W(F_{ell^k}) truncated at ell^N."""

    def __init__(self, ell: int, k: int, N: int):
        self.ell = ell
        self.k = k
        self.N = N
        self.mod = ell**N
        self.F = Fq(ell, k)
        self.h = self.F.modulus  # monic, lifts to Z coefficients as-is

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, n: int):
        return (n % self.mod,) + (0,) * (self.k - 1)

    def lift(self, a):
        """Lift of an F_{ell^k} element (same coefficient tuple)."""
        return tuple(int(c) % self.mod for c in a)

    def add(self, a, b):
        return tuple((x + y) % self.mod for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.mod for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.mod for x in a)

    def smul(self, c: int, a):
        return tuple((c * x) % self.mod for x in a)

    def mul(self, a, b):
        k, h, mod = self.k, self.h, self.mod
        res = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    res[i + j] = (res[i + j] + ai * bj) % mod
        for i in range(len(res) - 1, k - 1, -1):
            c = res[i]
            if c:
                res[i] = 0
                for j in range(k + 1):
                    res[i - k + j] = (res[i - k + j] - c * h[j]) % mod
        return tuple(res[:k])

    def pow(self, a, n: int):
        res = self.one()
        while n:
            if n & 1:
                res = self.mul(res, a)
            a = self.mul(a, a)
            n >>= 1
        return res

    def residue(self, a):
        """Image in F_{ell^k}."""
        return tuple(x % self.ell for x in a)

    def val(self, a) -> int:
        """ell-adic valuation; N if zero at this precision."""
        v = self.N
        for x in a:
            if x:
                v = min(v, valuation(x, self.ell))
        return v

    def divide_exact(self, a, power: int):
        if any(x % self.ell**power for x in a):
            raise ValueError("not divisible")
        return tuple(x // self.ell**power for x in a)

    def inv_unit(self, a):
        if self.val(a) != 0:
            raise ZeroDivisionError("not a unit")
        y = self.lift(self.F.inv(self.residue(a)))
        # Newton iteration y <- y(2 - ay)
        for _ in range(self.N.bit_length() + 1):
            y = self.mul(y, self.sub(self.from_int(2), self.mul(a, y)))
        return y

    def teichmuller(self, a):
        """The Teichmuller representative congruent to a mod ell (a a unit)."""
        t = a
        for _ in range(self.N + 2):
            nt = self.pow(t, self.ell**self.k)
            if nt == t:
                break
            t = nt
        return t

    def is_square_unramified(self, a) -> bool:
        """Is a a square in the full maximal unramified extension?

        Valid for ell = 2 and odd ell alike: units of the maximal
        unramified extension are squares exactly when congruent to their
        Teichmuller representative modulo 4 (ell = 2) or always (odd ell).
        """
        v = self.val(a)
        if v >= self.N - 4:
            raise PrecisionError("valuation too close to working precision")
        if v % 2:
            return False
        u = self.divide_exact(a, v)
        if self.ell != 2:
            return True
        z = self.teichmuller(u)
        return all((x - y) % 4 == 0 for x, y in zip(u, z))


def _poly_eval(R: Wring, coeffs, x):
    res = R.zero()
    for c in reversed(coeffs):
        res = R.add(R.mul(res, x), c)
    return res


def _poly_shift(R: Wring, coeffs, alpha):
    """Coefficients of P(alpha + w) via iterated synthetic division."""
    work = list(coeffs)
    out = []
    for _ in range(len(coeffs)):
        # divide work by (w - alpha) keeping remainder
        rem = R.zero()
        newwork = []
        for c in reversed(work):
            rem = R.add(R.mul(rem, alpha), c)
            newwork.append(rem)
        # newwork currently holds Horner partials; quotient coeffs are all
        # but the last partial, remainder is the last
        newwork.reverse()
        out.append(newwork[0])
        work = newwork[1:]
        if not work:
            break
    return out


@dataclass
class UnramifiedRoot:
    value: tuple  # element of the Wring
    precision: int  # valid modulo ell^precision


def _count_roots(R: Wring, coeffs, depth: int, max_depth: int) -> list[UnramifiedRoot]:
    if depth > max_depth:
        raise PrecisionError("digit lifting exceeded precision budget")
    # strip content
    mu = min(R.val(c) for c in coeffs)
    if mu >= R.N - 2:
        raise PrecisionError("polynomial vanishes at working precision")
    if mu:
        coeffs = [R.divide_exact(c, mu) for c in coeffs]
    Fbar = [R.residue(c) for c in coeffs]
    Fpoly = poly_trim(R.F, Fbar)
    roots = []
    for alpha in poly_roots(R.F, Fpoly):
        m = poly_root_multiplicity(R.F, Fpoly, alpha)
        ahat = R.lift(alpha)
        if m == 1:
            # Hensel: refine by Newton iteration
            deriv = [R.smul(i, c) for i, c in enumerate(coeffs)][1:]
            x = ahat
            for _ in range(R.N.bit_length() + 2):
                fx = _poly_eval(R, coeffs, x)
                dfx = _poly_eval(R, deriv, x)
                x = R.sub(x, R.mul(fx, R.inv_unit(dfx)))
            roots.append(UnramifiedRoot(x, R.N - depth))
        else:
            shifted = _poly_shift(R, coeffs, ahat)
            scaled = [R.smul(R.ell**j % R.mod, c) for j, c in enumerate(shifted)]
            for sub in _count_roots(R, scaled, depth + 1, max_depth):
                val = R.add(ahat, R.smul(R.ell, sub.value))
                roots.append(UnramifiedRoot(val, sub.precision))
    return roots


def unramified_roots(int_coeffs: list[int], ell: int, k: int = 12):
    """Distinct roots in the maximal unramified extension of Q_ell of a
    squarefree integer polynomial with unit leading coefficient.

    Returns (ring, list of UnramifiedRoot).
    """
    return with_unramified_roots(int_coeffs, ell, lambda R, roots: (R, roots), k)


def count_unramified_roots(int_coeffs: list[int], ell: int) -> int:
    return len(unramified_roots(int_coeffs, ell)[1])


def with_unramified_roots(int_coeffs: list[int], ell: int, fn, k: int = 12):
    """Run fn(ring, roots) at increasing precision until it stops raising
    PrecisionError.  Lets callers do further exact tests on root values.
    """
    x = sympy.Symbol("x")
    disc = int(sympy.Poly(list(reversed(int_coeffs)), x).discriminant())
    if disc == 0:
        raise ValueError("polynomial must be squarefree")
    if int_coeffs[-1] % ell == 0:
        raise ValueError("leading coefficient must be an ell-unit")
    N = 2 * valuation(disc, ell) + 20
    for _ in range(4):
        R = Wring(ell, k, N)
        try:
            coeffs = [R.from_int(c) for c in int_coeffs]
            found = _count_roots(R, coeffs, 0, max_depth=N - 6)
            return fn(R, found)
        except PrecisionError:
            N *= 2
    raise PrecisionError("could not certify computation at any tried precision")
