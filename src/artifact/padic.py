"""Roots in Q_ell of an integer polynomial with unit leading coefficient.

Such a polynomial has all its Q_ell-roots in Z_ell, and they are found
modulo ell^N on plain ints: the roots modulo ell of the polynomial
(stripped of its ell-power content), Newton's iteration from each simple
one, and digit lifting (x = alpha + ell*w) below each multiple one.  The
3-torsion test of ``localsolver`` uses this for any ell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import discriminant, valuation
from .fq import Fq, flx_gcd, flx_powmod, flx_sub, flx_trim, poly_roots


class PrecisionError(ArithmeticError):
    pass


@dataclass
class Root:
    value: int  # in [0, ell^N)
    precision: int  # valid modulo ell^precision


def _eval(coeffs, x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _shift(coeffs, alpha: int, mod: int):
    """Coefficients of P(alpha + w) by repeated synthetic division."""
    work = list(coeffs)
    out = []
    while work:
        rem = 0
        quot = []
        for c in reversed(work):
            rem = (rem * alpha + c) % mod
            quot.append(rem)
        out.append(quot.pop())
        work = quot[::-1]
    return out


def _residue_roots(coeffs, ell: int) -> list[int]:
    """Sorted distinct roots in F_ell: the linear factors are
    gcd(x^ell - x, f), split by ``poly_roots`` only when there are two or
    more."""
    f = flx_trim([c % ell for c in coeffs])
    if len(f) == 1:
        return []
    g = flx_gcd(ell, flx_sub(ell, flx_powmod(ell, [0, 1], ell, f), [0, 1]), f)
    if len(g) <= 2:
        return [-g[0] % ell] if len(g) == 2 else []
    F = Fq(ell, 1)
    return [r for (r,) in poly_roots(F, [F.from_int(c) for c in g])]


def _roots(coeffs, ell: int, N: int, depth: int) -> list[Root]:
    if depth > N - 6:
        raise PrecisionError("digit lifting exceeded precision budget")
    mod = ell**N
    mu = min(valuation(c, ell) if c else N for c in coeffs)
    if mu >= N - 2:
        raise PrecisionError("polynomial vanishes at working precision")
    coeffs = [c // ell**mu for c in coeffs]
    deriv = [i * c % mod for i, c in enumerate(coeffs)][1:]
    roots = []
    for alpha in _residue_roots(coeffs, ell):
        if _eval(deriv, alpha, ell):
            # a simple root: Newton's iteration
            x = alpha
            for _ in range(N.bit_length() + 2):
                x = (x - _eval(coeffs, x, mod)
                     * pow(_eval(deriv, x, mod), -1, mod)) % mod
            roots.append(Root(x, N - depth))
        else:
            shifted = _shift(coeffs, alpha, mod)
            scaled = [ell**j * c % mod for j, c in enumerate(shifted)]
            roots += [Root((alpha + ell * sub.value) % mod, sub.precision)
                      for sub in _roots(scaled, ell, N, depth + 1)]
    return roots


def with_unramified_roots(int_coeffs: list[int], ell: int, fn):
    """Run fn(roots) on the Q_ell-roots of a squarefree integer polynomial
    with unit leading coefficient (the roots in the unramified extension
    of degree 1), at increasing precision until fn stops raising
    PrecisionError.  Lets callers do further exact tests on root values.
    """
    disc = discriminant(int_coeffs)
    if disc == 0:
        raise ValueError("polynomial must be squarefree")
    if int_coeffs[-1] % ell == 0:
        raise ValueError("leading coefficient must be an ell-unit")
    N = 2 * valuation(disc, ell) + 20
    for _ in range(4):
        try:
            mod = ell**N
            return fn(_roots([c % mod for c in int_coeffs], ell, N, 0))
        except PrecisionError:
            N *= 2
    raise PrecisionError("could not certify computation at any tried precision")
