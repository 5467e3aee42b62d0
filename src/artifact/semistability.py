"""Semistability defect at a prime of additive, potentially good reduction.

The defect e is the degree over the maximal unramified extension of Q_ell
of the smallest field where the curve acquires good reduction.  For
ell >= 5 it is the denominator of v_ell(Delta_min)/12.  For ell = 2 and 3
it is Kraus's table (A. Kraus, "Sur le defaut de semi-stabilite des
courbes elliptiques a reduction additive", Manuscripta Math. 69 (1990)):
e is read off the valuations (v(c4), v(c6), v(Delta)) of a minimal model
and, on a few valuation triples, a congruence of the unit parts
c4~, c6~, Delta~ (``TildeInvariants``): c6~ mod 9 at ell = 3, and c4~,
Delta~ or c6~ mod 4 at ell = 2.  Each branch names the Galois-theoretic
case it decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import legendre
from .weierstrass import (
    ReductionKind,
    TildeInvariants,
    WeierstrassModel,
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


def _defect_3(t: TildeInvariants) -> int:
    """Kraus's table at ell = 3.

    e = 3^w * 4/gcd(v(Delta), 4): the tame part is the ramification of
    Delta^(1/4), and w = 1 (wild inertia of order 3) exactly when the
    2-division cubic x^3 - 27 c4 x - 54 c6 has no root in Q_3^un.  Its
    Newton polygon decides that from the valuations, except when it is
    one segment from x^3 to 54 c6, where c6~ mod 9 decides.
    """
    a, b, g = t.v_c4, t.v_c6, t.v_delta  # a, b are None for c4, c6 = 0
    if g % 3:
        # 12 | e v(Delta) forces w = 1
        return 12 // math.gcd(g, 12)
    if g == 12:
        # e = 1 is good reduction, so w = 1
        return 3
    if g == 6:
        # Delta is a square in Q_3^un, so the cubic has 0 or 3 roots: all
        # three on (2, 3, 6) and (3, >= 6, 6), none on (3, 5, 6)
        split = (a, b) == (2, 3) or (a == 3 and (b is None or b >= 6))
        return 2 if split else 6
    # v(Delta) in {3, 9}: e = 4 if the cubic has a root, else 12.  At
    # a0 = v(1728 Delta)/3, b0 = v(1728 Delta)/2 the terms c4^3 and c6^2
    # reach v(1728 Delta); one of them must.
    a0, b0 = (g + 3) // 3, (g + 3) // 2
    if b == b0:
        # one segment, from x^3 to 54 c6: every root is
        # x = 3^((b0+3)/3) (-c6~ + 3t), and some t lies in Q_3^un iff
        # c6~^2 = c4/3^(a0-1) - 2 mod 9, i.e. c6~ = +-2 (a = a0, where
        # c4~ = 2 mod 3) or +-4 (a > a0, or c4 = 0) mod 9
        return 4 if t.c6_tilde % 9 in ((2, 7) if a == a0 else (4, 5)) else 12
    # a = a0, b > b0 (or c6 = 0): the segment through 27 c4 x and 54 c6
    # has length 1 (a rational root) iff b >= b0 + 2
    return 12 if b == b0 + 1 else 4


def _defect_2(t: TildeInvariants) -> int:
    """Kraus's table at ell = 2.

    Inertia acts on E[3] through a subgroup of SL2(F_3).  The 3-division
    quartic x^4 - 6 c4 x^2 - 8 c6 x - 3 c4^2 has resolvent cubic
    (z + 2 c4)^3 + 48^3 Delta, with a root -2 c4 - 48 Delta^(1/3) for each
    cube root of Delta.  Over a field containing that cube root the
    quartic splits into the pair of quadratics belonging to it iff
    s = c4 - 12 Delta^(1/3) is a square there (c6 != 0).  An integral
    model has v(c4) = 0 or v(c4) >= 4, so additive potentially good
    models have v(c4) >= 4 (or c4 = 0) and v(c6) >= 3 (or c6 = 0).
    """
    a, b, g = t.v_c4, t.v_c6, t.v_delta  # a, b are None for c4, c6 = 0
    if g % 3 == 0:
        # Delta^(1/3) lies in Q_2^un and inertia is C2, C4 or Q8 (e = 2, 4,
        # 8): Q8 iff s is not a square in Q_2^un, C2 iff all three are
        k = g // 3
        if a == k + 1 or a == k + 3:
            # then c4~ = 1 mod 8, resp. Delta~ = 1 mod 4, and s is no square
            return 8
        if a == k + 2:
            # s = 2^(2b - 2k - 4) c6~^2 / (unit = 2 - c4~ Delta~ mod 4): a
            # square iff 2b = 3k + 7, and then its conjugates have odd
            # valuation k + 2
            return 4 if b is not None and 2 * b == 3 * k + 7 else 8
        # a = k: v(j) = 0, so inertia is {+-1}.  a >= k + 4 (or c4 = 0):
        # Delta~ = 5 mod 8, so s and its conjugates are
        # -3 * 2^(k+2) zeta Delta^(1/3) (1 + 4x), all squares
        return 2
    # 3 | e.  Over K = Q_2^un(2^(1/3)) inertia is Q8, {+-1} or trivial
    # (e = 24, 6, 3); it is not Q8 iff s is a square in K.  Odd v(Delta)
    # rules that out, since a twist with good reduction needs
    # 3 v(Delta) = 0 mod 6 in K.
    if g % 2:
        return 24
    # n = v(c4^3) - v(1728 Delta), and pi = 2^(1/3): s is pi^(even) times
    # (1 + pi^|n| * unit) up to a square, and that is a square in K (one
    # congruent to a square mod 4) only for n >= 7 (or c4 = 0), for n = 2
    # with c4~ = 3 mod 4 and for n = -2 with Delta~ = 3 mod 4
    n = None if a is None else 3 * a - g - 6
    if n == 2:
        split = t.c4_tilde % 4 == 3
    elif n == -2:
        split = t.delta_tilde % 4 == 3
    else:
        split = n is None or n >= 7
    if not split:
        return 24
    # e = 3 is good reduction over K: conductor exponent 2, so Kodaira
    # type IV or IV* and v(Delta) in {4, 8}.  An integral model over K
    # with these c4, c6 exists for one sign of c6 only: c6~ = 3 mod 4 on
    # (4, 6, 8), where v(a1) = 1, and c6~ = 1 mod 4 otherwise, where
    # c6/(-216) = a3^2 mod 4.  The twist by -1 flips that sign.
    if g not in (4, 8):
        return 6
    return 3 if t.c6_tilde % 4 == (3 if n == -2 else 1) else 6


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
    tilde = tilde_invariants(m, ell)
    if ell >= 5:
        e = _defect_tame(tilde.v_delta)
    elif ell == 3:
        e = _defect_3(tilde)
    else:
        e = _defect_2(tilde)
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
