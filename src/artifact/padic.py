"""Root counting for integer polynomials over the maximal unramified
extension of Q_ell (ell = 2 or 3 for the semistability defect), and over
Q_ell itself.

Every root of a monic integer polynomial of degree <= 4 that lies in the
maximal unramified extension generates an unramified extension of degree
<= 4, so it already lives in the ring of Witt vectors of F_{ell^12}.  We
model that ring as (Z/ell^N)[t]/(h(t)) for the fixed degree-12 modulus h
of ``fq``: ``Wring`` is an ``Fq`` whose coefficients live mod ell^N, and
adds only the ell-adic operations.  Roots are counted by residue analysis
plus digit lifting.

With k = 1 the ring is Z/ell^N, so the roots found are exactly the
Q_ell-roots (integral, as the leading coefficient is a unit); the
3-torsion test of ``localsolver`` uses this for any ell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import discriminant, valuation
from .fq import Fq, poly_eval, poly_roots, poly_root_multiplicity, poly_trim


class PrecisionError(ArithmeticError):
    pass


class Wring(Fq):
    """Unramified extension ring W(F_{ell^k}) truncated at ell^N: the
    ``Fq`` ring operations with coefficients mod ell^N instead of ell."""

    def __init__(self, ell: int, k: int, N: int):
        super().__init__(ell, k)
        self.N = N
        self.mod = ell**N
        self._set_width()
        self.F = Fq(ell, k)  # the residue field

    def mul(self, a, b):
        # Schoolbook: Fq's Kronecker packing measured slower at these widths.
        k, h, mod = self.k, self.modulus, self.mod
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

    def inv(self, a):
        """Inverse of a unit, Newton-lifted from the residue field."""
        if self.val(a) != 0:
            raise ZeroDivisionError("not a unit")
        y = self.F.inv(self.residue(a))
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


def _count_roots(R: Wring, coeffs, depth: int) -> list[UnramifiedRoot]:
    if depth > R.N - 6:
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
        if poly_root_multiplicity(R.F, Fpoly, alpha) == 1:
            # Hensel: refine by Newton iteration
            deriv = [R.smul(i, c) for i, c in enumerate(coeffs)][1:]
            x = alpha
            for _ in range(R.N.bit_length() + 2):
                fx = poly_eval(R, coeffs, x)
                dfx = poly_eval(R, deriv, x)
                x = R.sub(x, R.mul(fx, R.inv(dfx)))
            roots.append(UnramifiedRoot(x, R.N - depth))
        else:
            shifted = _poly_shift(R, coeffs, alpha)
            scaled = [R.smul(R.ell**j, c) for j, c in enumerate(shifted)]
            for sub in _count_roots(R, scaled, depth + 1):
                val = R.add(alpha, R.smul(R.ell, sub.value))
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
    disc = discriminant(int_coeffs)
    if disc == 0:
        raise ValueError("polynomial must be squarefree")
    if int_coeffs[-1] % ell == 0:
        raise ValueError("leading coefficient must be an ell-unit")
    N = 2 * valuation(disc, ell) + 20
    for _ in range(4):
        R = Wring(ell, k, N)
        try:
            coeffs = [R.from_int(c) for c in int_coeffs]
            found = _count_roots(R, coeffs, 0)
            return fn(R, found)
        except PrecisionError:
            N *= 2
    raise PrecisionError("could not certify computation at any tried precision")
