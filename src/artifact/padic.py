"""Roots in Q_ell of an integer polynomial with unit leading coefficient.

Such a polynomial has all its Q_ell-roots in Z_ell, and they are found
modulo ell^N on plain ints: the roots modulo ell of the polynomial
(stripped of its ell-power content), Newton's iteration from each simple
one, and digit lifting (x = alpha + ell*w) below each multiple one.  Each
root carries the digits it is known to: stripping a content ell^mu from
coefficients known modulo ell^M leaves them known modulo ell^(M - mu), and
every lifted digit adds one.  The 3-torsion test of ``localsolver`` uses
this for any ell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import discriminant, valuation
from .fq import flx_roots


class PrecisionError(ArithmeticError):
    pass


@dataclass
class Root:
    value: int  # in [0, ell^precision)
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


def _roots(coeffs, ell: int, prec: int) -> list[Root]:
    """Z_ell-roots of a polynomial whose coefficients are known modulo
    ell^prec, each to the digits it is known to."""
    mod = ell**prec
    coeffs = [c % mod for c in coeffs]
    mu = min(valuation(c, ell) if c else prec for c in coeffs)
    if mu >= prec - 2:
        raise PrecisionError("polynomial vanishes at working precision")
    prec -= mu
    mod = ell**prec
    coeffs = [c // ell**mu for c in coeffs]
    deriv = [i * c % mod for i, c in enumerate(coeffs)][1:]
    roots = []
    for alpha in flx_roots(ell, coeffs):
        if _eval(deriv, alpha, ell):
            # a simple root: Newton's iteration
            x = alpha
            for _ in range(prec.bit_length() + 2):
                x = (x - _eval(coeffs, x, mod)
                     * pow(_eval(deriv, x, mod), -1, mod)) % mod
            roots.append(Root(x, prec))
        else:
            shifted = _shift(coeffs, alpha, mod)
            scaled = [ell**j * c % mod for j, c in enumerate(shifted)]
            roots += [Root(alpha + ell * sub.value, sub.precision + 1)
                      for sub in _roots(scaled, ell, prec)]
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
            return fn(_roots(int_coeffs, ell, N))
        except PrecisionError:
            N *= 2
    raise PrecisionError("could not certify computation at any tried precision")
