"""Semistability defect at a prime of additive, potentially good reduction.

The defect e is the degree over the maximal unramified extension of Q_ell
of the smallest field where the curve acquires good reduction.  For
ell >= 5 it is the denominator of v_ell(Delta_min)/12.  For ell = 2 and 3
the extension is wildly ramified in general; we compute e from the
inertial-field descriptions

    ell = 2:  L = Q_2^un(E[3]),
    ell = 3:  L = Q_3^un(E[2], Delta^(1/4)),

which reduce everything to root counts of small integer polynomials in
the maximal unramified extension plus unit square tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import legendre, valuation
from .fq import poly_eval
from .padic import PrecisionError, with_unramified_roots
from .weierstrass import (
    ReductionKind,
    TildeInvariants,
    WeierstrassModel,
    minimal_model_at,
    quadratic_twist,
    reduction_kind,
    tilde_invariants,
)

UNDETERMINED = "Undetermined"

YES = "Yes"
NO = "No"
NOT_APPLICABLE = "NotApplicable"


class WrongReductionKindError(ValueError):
    pass


class WrongDefectError(ValueError):
    pass


class InternalInconsistencyError(RuntimeError):
    pass


@dataclass(frozen=True)
class DefectProfile:
    ell: int
    e: int | str  # member of {2,3,4,6,8,12,24} or UNDETERMINED
    tilde: TildeInvariants
    nonabelian_torsion: str  # YES / NO / NOT_APPLICABLE


# ell >= 5: denominator of v(Delta_min)/12; other valuations cannot occur
# for minimal additive potentially good models when ell >= 5.
_TAME_E = {2: 6, 3: 4, 4: 3, 6: 2, 8: 3, 9: 4, 10: 6}


def _defect_tame(v_delta: int) -> int | str:
    return _TAME_E.get(v_delta, UNDETERMINED)


def _defect_3(m: WeierstrassModel) -> int | str:
    """Defect at 3 from L = Q_3^un(E[2], Delta^(1/4)).

    [Q_3^un(E[2]) : Q_3^un] = d2 is read off from the number of roots of
    the 2-division cubic x^3 - 27 c4 x - 54 c6 in Q_3^un (0, 1 or 3 roots;
    with one root the other two generate the ramified quadratic, with none
    the cubic field contains the quadratic subfield iff v(Delta) is odd
    since units of Z_3^un are all squares).  [Q_3^un(Delta^(1/4)) :
    Q_3^un] = d4 = 4/gcd(v(Delta), 4).  The compositum degree divides
    d2*d4 and loses a factor 2 exactly when both share the quadratic
    subfield Q_3^un(sqrt(Delta)).
    """
    c4, c6 = m.c4(), m.c6()
    v = valuation(m.discriminant(), 3)
    nroots = None
    try:
        nroots = with_unramified_roots([-54 * c6, -27 * c4, 0, 1], 3,
                                       lambda R, roots: len(roots))
    except PrecisionError:
        return UNDETERMINED
    d4 = 4 // math.gcd(v, 4)
    if nroots == 3:
        d2 = 1
    elif nroots == 1:
        d2 = 2
    elif nroots == 0:
        d2 = 3 if v % 2 == 0 else 6
    else:
        return UNDETERMINED
    shared = 2 if (d2 % 2 == 0 and d4 % 2 == 0) else 1
    e = d2 * d4 // shared
    return e if e in (2, 3, 4, 6, 12) else UNDETERMINED


def _poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """Monic gcd over Q of two nonzero integer polynomials (little-endian),
    scaled by the lcm of its denominators."""
    def trim(h):
        while h and h[-1] == 0:
            h.pop()
        return h

    a, b = trim([Fraction(c) for c in f]), trim([Fraction(c) for c in g])
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, c in enumerate(b, len(a) - len(b)):
                a[i] -= q * c
            trim(a)
        a, b = b, a
    a = [c / a[-1] for c in a]
    denom = math.lcm(*(c.denominator for c in a))
    return [int(c * denom) for c in a]


def _defect_2(m: WeierstrassModel) -> int | str:
    """Defect at 2 from L = Q_2^un(E[3]).

    The inertial group is a subgroup of SL2(F_3) and is recognized by the
    action on the four 3-torsion x-coordinates: roots of the 3-division
    polynomial, monicized to y^4 + b2 y^3 + 9 b4 y^2 + 27 b6 y + 27 b8
    via y = 3x.

    * 4 roots in Q_2^un: only -1 can act, e = 2.
    * 1 root: a C3 or C6 quotient; e = 3 iff the y-coordinate above the
      rational x-coordinate is unramified, i.e. the discriminant of the
      y-quadratic is a square in Q_2^un; else e = 6.
    * 0 roots: the resolvent cubic separates SL2(F_3) (irreducible
      resolvent, e = 24) from C4/Q8 (split resolvent).  C4 vs Q8 is
      decided by whether the quartic factors into two quadratics over
      Q_2^un, equivalent to some split pair-partition having both
      z^2 - 4 e0 and e3^2 - 4(e2 - z) square in Q_2^un.
    """
    b2, b4, b6, b8 = m.b_invariants()
    quartic = [27 * b8, 27 * b6, 9 * b4, b2, 1]

    def analyze(R, roots):
        if len(roots) == 4:
            return 2
        if len(roots) == 1:
            x0 = R.mul(roots[0].value, R.inv(R.from_int(3)))
            d0 = poly_eval(R, [R.from_int(c) for c in (b6, 2 * b4, b2, 4)], x0)
            return 3 if R.is_square_unramified(d0) else 6
        if len(roots) != 0:
            return UNDETERMINED
        # resolvent cubic of y^4 + a y^3 + b y^2 + c y + d
        a, b, c, d = b2, 9 * b4, 27 * b6, 27 * b8
        resolvent = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, 1]

        # The partition discriminants z^2 - 4d and (a^2 - 4b) + 4z can be
        # exactly zero (then the tested quantity is the square 0); record
        # which resolvent roots make them vanish, as factors of a gcd.
        gcd_coeffs = []
        for other in ([-4 * d, 0, 1], [a * a - 4 * b, 4]):
            g = _poly_gcd(resolvent, other)
            gcd_coeffs.append(g if len(g) > 1 else None)

        def classify(Rr, zroots):
            def vanishes_exactly(z, which):
                cs = gcd_coeffs[which]
                if cs is None:
                    return False
                val = poly_eval(Rr, [Rr.from_int(co) for co in cs], z)
                return Rr.val(val) >= Rr.N - 8

            def square_or_zero(value, z, which):
                try:
                    return Rr.is_square_unramified(value)
                except PrecisionError:
                    if vanishes_exactly(z, which):
                        return True
                    raise

            if len(zroots) == 0:
                return 24
            if len(zroots) != 3:
                return UNDETERMINED
            for z in zroots:
                disc1 = Rr.sub(Rr.mul(z.value, z.value), Rr.from_int(4 * d))
                disc2 = Rr.add(Rr.from_int(a * a - 4 * b), Rr.smul(4, z.value))
                if (square_or_zero(disc1, z.value, 0)
                        and square_or_zero(disc2, z.value, 1)):
                    return 4
            return 8

        return with_unramified_roots(resolvent, 2, classify)

    try:
        return with_unramified_roots(quartic, 2, analyze)
    except PrecisionError:
        return UNDETERMINED


def _nonabelian(ell: int, e: int, tilde: TildeInvariants) -> str:
    """The three-way criterion for the ell-adic torsion field of a curve
    with defect e in {3, 4} to be non-abelian over Q_ell."""
    if e not in (3, 4):
        raise WrongDefectError(f"criterion requires e in {{3,4}}, got {e}")
    if math.gcd(ell, e) == 1:
        return YES if ell % e == e - 1 else NO
    if (ell, e) == (3, 3):
        return YES if tilde.delta_tilde % 3 == 2 else NO
    if (ell, e) == (2, 4):
        return YES if (tilde.c4_tilde - 5 * tilde.delta_tilde) % 8 == 0 else NO
    raise WrongDefectError(f"unsupported combination ell={ell}, e={e}")


@lru_cache(maxsize=8192)
def defect(m: WeierstrassModel, ell: int) -> DefectProfile:
    """Semistability defect profile at a prime of additive, potentially
    good reduction.  Memoized: a Twist-e2/e6 query reads it in
    ``solve_local`` and again in ``good_twist``/``e3_twist``."""
    kind = reduction_kind(m, ell)
    if kind != ReductionKind.ADDITIVE_POT_GOOD:
        raise WrongReductionKindError(
            f"defect requires additive potentially good reduction at {ell}, got {kind}")
    mm = minimal_model_at(m, ell)
    tilde = tilde_invariants(mm, ell)
    if ell >= 5:
        e = _defect_tame(tilde.v_delta)
    elif ell == 3:
        e = _defect_3(mm)
    else:
        e = _defect_2(mm)
    if e in (3, 4):
        nat = _nonabelian(ell, e, tilde)
    else:
        nat = NOT_APPLICABLE
    return DefectProfile(ell, e, tilde, nat)


def _twist_classes(ell: int) -> list[int]:
    """Squarefree representatives of Q_ell^* modulo squares."""
    if ell == 2:
        return [1, -1, 2, -2, 5, -5, 10, -10]
    u = next(r for r in range(2, ell) if legendre(r, ell) == -1)
    return [1, u, ell, u * ell]


def good_twist(m: WeierstrassModel, ell: int) -> tuple[int, WeierstrassModel]:
    """A quadratic twist with good reduction at ell; requires defect 2."""
    prof = defect(m, ell)
    if prof.e != 2:
        raise WrongDefectError(f"good_twist requires e = 2, got {prof.e}")
    for d in _twist_classes(ell):
        if d == 1:
            continue
        tw = quadratic_twist(m, d)
        if reduction_kind(tw, ell) == ReductionKind.GOOD:
            return d, tw
    raise InternalInconsistencyError(
        f"no twist class of {m.ainvs()} has good reduction at {ell}")


def e3_twist(m: WeierstrassModel, ell: int) -> tuple[int, WeierstrassModel]:
    """A quadratic twist with defect 3 at ell; requires defect 6.  At
    ell = 3 the unit class of the minimal discriminant mod 3 is preserved."""
    prof = defect(m, ell)
    if prof.e != 6:
        raise WrongDefectError(f"e3_twist requires e = 6, got {prof.e}")
    for d in _twist_classes(ell):
        if d == 1:
            continue
        tw = quadratic_twist(m, d)
        if reduction_kind(tw, ell) != ReductionKind.ADDITIVE_POT_GOOD:
            continue
        if defect(tw, ell).e == 3:
            if ell == 3:
                before = prof.tilde.delta_tilde % 3
                after = tilde_invariants(tw, ell).delta_tilde % 3
                if before != after:
                    continue
            return d, tw
    raise InternalInconsistencyError(
        f"no twist class of {m.ainvs()} has defect 3 at {ell}")
