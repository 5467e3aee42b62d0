"""Whole-curve analysis over Q.

Assembles per-place verdicts from the local solver into a single report,
detects rational points coming from prime-degree isogenies, classifies
complex-multiplication curves whose twisted covers violate the Hasse
principle, applies the conditional (Frey-Mazur) classification, and runs
the height-ordered semistability survey.

Overall report classifications:

* ``EverywhereLocal``      -- every recorded place verdict is NonEmpty.
* ``LocalObstructionAt``   -- some finite place received an Empty verdict.
* ``HasRationalPoint``     -- a rational point exists (small p, or a proven
  prime-degree isogeny whose degree is a non-square mod p).
* ``HasseCounterexample``  -- everywhere locally soluble but provably (or
  conditionally) without rational points; the attached assumption is one
  of ``None``, ``FreyMazur``, ``SerreUniformity``.
* ``Undetermined``         -- some place verdict was Undetermined or
  OutOfScope, or no classifier fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import sympy

from .arith import factorize, is_prime, legendre, valuation
from .localsolver import (
    EMPTY,
    NON_EMPTY,
    OUT_OF_SCOPE,
    UNDETERMINED,
    FinitePrime,
    LocalVerdict,
    Place,
    RealPlace,
    genus,
    solve_local,
)
from .semistability import defect
from .weierstrass import (
    ReductionKind,
    WeierstrassModel,
    minimal_model_at,
    reduction_kind,
)

__all__ = [
    "GlobalReport",
    "IsogenyEvidence",
    "analyze",
    "cm_classify",
    "frey_mazur_classify",
    "hasse_cm",
    "isogeny_survey",
    "isogeny_witness",
    "semistable_survey",
]

_ADDITIVE = (ReductionKind.ADDITIVE_POT_MULT, ReductionKind.ADDITIVE_POT_GOOD)

PROVEN = "Proven"
EXCLUDED = "Excluded"
UNKNOWN = "Unknown"

#: Prime degrees a rational point of prime order on a degree-q isogeny
#: quotient can have over Q (the admissible prime isogeny degrees).
MAZUR_DEGREES = (2, 3, 5, 7, 11, 13, 17, 19, 37, 43, 67, 163)

#: Largest degree for which a kernel-polynomial factorization is attempted.
KERNEL_FACTOR_CAP = 43

#: Good primes scanned when trying to rule a degree out.
EXCLUSION_SCAN_BOUND = 200


@dataclass(frozen=True)
class IsogenyEvidence:
    """Evidence about a rational isogeny of prime degree ``degree``.

    ``certainty`` is Proven (a rational kernel polynomial was found and
    certified), Excluded (some good prime ``excluding_prime`` rules the
    degree out), or Unknown.
    """

    degree: int
    certainty: str
    excluding_prime: Optional[int] = None
    kernel_polynomial: Optional[tuple] = None


@dataclass(frozen=True)
class Overall:
    kind: str
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GlobalReport:
    curve: tuple
    p: int
    places_checked: tuple  # of (Place, LocalVerdict)
    overall: Overall
    scan_note: Optional[str] = None


# ---------------------------------------------------------------------------
# division polynomials over Q and kernel-polynomial certification
# ---------------------------------------------------------------------------

def _division_data(m: WeierstrassModel, n: int):
    """(f_polys, B, x) with f_0..f_n univariate sympy Polys over QQ such
    that the k-division polynomial is f_k for odd k and f_k * psi2 for
    even k, where psi2^2 = B = 4x^3 + b2 x^2 + 2 b4 x + b6."""
    x = sympy.Symbol("x")
    b2, b4, b6, b8 = m.b_invariants()
    B = sympy.Poly(4 * x ** 3 + b2 * x ** 2 + 2 * b4 * x + b6, x)
    f = {
        0: sympy.Poly(0, x),
        1: sympy.Poly(1, x),
        2: sympy.Poly(1, x),
        3: sympy.Poly(
            3 * x ** 4 + b2 * x ** 3 + 3 * b4 * x ** 2 + 3 * b6 * x + b8, x
        ),
        4: sympy.Poly(
            2 * x ** 6 + b2 * x ** 5 + 5 * b4 * x ** 4 + 10 * b6 * x ** 3
            + 10 * b8 * x ** 2 + (b2 * b8 - b4 * b6) * x
            + (b4 * b8 - b6 ** 2),
            x,
        ),
    }

    for k in range(5, n + 1):
        if k % 2:
            j = (k - 1) // 2
            a, b = f[j + 2] * f[j] ** 3, f[j - 1] * f[j + 1] ** 3
            f[k] = B ** 2 * a - b if j % 2 == 0 else a - B ** 2 * b
        else:
            j = k // 2
            f[k] = f[j] * (f[j + 2] * f[j - 1] ** 2 - f[j - 2] * f[j + 1] ** 2)
    return f, B, x


def _x_multiple(m: WeierstrassModel, j: int, f, B, x):
    """(num, den): x(jP) = num(x)/den(x) as univariate sympy Polys."""
    fj, fp, fm = f[j], f[j + 1], f[j - 1]
    X = sympy.Poly(x, x)
    if j % 2:
        num = X * fj ** 2 - fp * fm * B
        den = fj ** 2
    else:
        num = X * fj ** 2 * B - fp * fm
        den = fj ** 2 * B
    return num, den


def _certify_kernel(m: WeierstrassModel, q: int, h) -> bool:
    """True if the monic degree-(q-1)/2 factor h of the q-division
    polynomial is stable under the multiplication-by-j maps, i.e. is the
    kernel polynomial of a rational q-isogeny."""
    f, B, x = _division_data(m, (q + 1) // 2 + 1)
    dh = h.degree()
    for j in range(2, (q - 1) // 2 + 1):
        num, den = _x_multiple(m, j, f, B, x)
        num, den = num.rem(h), den.rem(h)
        if sympy.gcd(den, h).degree() > 0:
            return False
        # den^dh * h(num/den) mod h must vanish
        coeffs = h.all_coeffs()  # descending, leading 1
        acc = sympy.Poly(0, x)
        num_pow = sympy.Poly(1, x)
        den_pows = [sympy.Poly(1, x)]
        for _ in range(dh):
            den_pows.append((den_pows[-1] * den).rem(h))
        for i, c in enumerate(reversed(coeffs)):  # ascending
            acc = (acc + c * num_pow * den_pows[dh - i]).rem(h)
            if i < dh:
                num_pow = (num_pow * num).rem(h)
        if not acc.is_zero:
            return False
    return True


def _proven_isogeny(m: WeierstrassModel, q: int) -> Optional[IsogenyEvidence]:
    """Search for a certified rational kernel polynomial of degree (q-1)/2."""
    x = sympy.Symbol("x")
    if q == 2:
        b2, b4, b6, _ = m.b_invariants()
        B = sympy.Poly(4 * x ** 3 + b2 * x ** 2 + 2 * b4 * x + b6, x)
        for r in sympy.roots(B, x):
            if r.is_rational:
                h = sympy.Poly(x - r, x)
                return IsogenyEvidence(2, PROVEN,
                                       kernel_polynomial=tuple(
                                           Fraction(str(c)) for c in
                                           h.all_coeffs()))
        return None
    f, B, _ = _division_data(m, q)
    psi_q = f[q]  # q odd: the full q-division polynomial, degree (q^2-1)/2
    target = (q - 1) // 2
    _, factors = sympy.factor_list(psi_q.as_expr(), x)
    for fac, mult in factors:
        fp = sympy.Poly(fac, x)
        if fp.degree() != target:
            continue
        h = fp.monic()
        if _certify_kernel(m, q, h):
            return IsogenyEvidence(
                q, PROVEN,
                kernel_polynomial=tuple(Fraction(str(c))
                                        for c in h.all_coeffs()))
    return None


def _excluded_isogeny(m: WeierstrassModel, q: int,
                      scan_bound: int = EXCLUSION_SCAN_BOUND
                      ) -> Optional[IsogenyEvidence]:
    """A good prime ell with (Delta_ell / q) = -1 rules out a rational
    (indeed Q_ell-rational) degree-q isogeny."""
    from .fq import Fq
    from .fqcurves import CurveOverFq, trace_of_frobenius

    for ell in range(2, scan_bound + 1):
        if not is_prime(ell) or ell == q:
            continue
        mm = minimal_model_at(m, ell)
        if reduction_kind(mm, ell) != ReductionKind.GOOD:
            continue
        F = Fq(ell, 1)
        C = CurveOverFq(F, *(a % ell for a in mm.ainvs()))
        a = trace_of_frobenius(C)
        disc = a * a - 4 * ell
        if q == 2:
            # Kronecker symbol (disc/2): -1 exactly when disc = 3, 5 mod 8
            sym = 0 if disc % 2 == 0 else (1 if disc % 8 in (1, 7) else -1)
        else:
            sym = legendre(disc % q, q)
        if sym == -1:
            return IsogenyEvidence(q, EXCLUDED, excluding_prime=ell)
    return None


def isogeny_survey(m: WeierstrassModel,
                   degrees=MAZUR_DEGREES) -> dict:
    """Resolve, per admissible prime degree, whether a rational isogeny of
    that degree exists (Proven / Excluded / Unknown)."""
    out = {}
    for q in degrees:
        ev = _excluded_isogeny(m, q)
        if ev is None and q <= KERNEL_FACTOR_CAP:
            ev = _proven_isogeny(m, q)
        if ev is None:
            ev = IsogenyEvidence(q, UNKNOWN)
        out[q] = ev
    return out


def isogeny_witness(m: WeierstrassModel, p: int) -> Optional[IsogenyEvidence]:
    """A Proven isogeny of prime degree q with (q/p) = -1, if one exists
    among the admissible degrees; such a witness forces a rational point
    on the twisted cover."""
    for q in MAZUR_DEGREES:
        if legendre(q % p, p) != -1:
            continue
        if _excluded_isogeny(m, q) is not None:
            continue
        if q <= KERNEL_FACTOR_CAP:
            ev = _proven_isogeny(m, q)
            if ev is not None:
                return ev
    return None


# ---------------------------------------------------------------------------
# complex multiplication
# ---------------------------------------------------------------------------

#: rational CM j-invariants -> discriminant of the CM field.
CM_J_TABLE = {
    0: -3, 54000: -3, -12288000: -3,
    1728: -4, 287496: -4,
    8000: -8,
    -3375: -7, 16581375: -7,
    -32768: -11,
    -884736: -19,
    -884736000: -43,
    -147197952000: -67,
    -262537412640768000: -163,
}

#: CM field discriminants whose curves never give counterexamples
#: (class number one fields with extra units / ramified small primes,
#: covering the excluded twist families such as 27a1, 32a2, 36a4, 49a1).
CM_EXCLUDED_DISCS = {-3, -4, -7, -8}

UNCONDITIONAL = "Unconditional"
CONDITIONAL_SERRE = "Conditional(SerreUniformity)"
CONDITIONAL_FM = "Conditional(FreyMazur)"
NOT_A_COUNTEREXAMPLE = "NotACounterexample"
NOT_CLASSIFIED = "NotClassified"


def cm_classify(m: WeierstrassModel) -> Optional[int]:
    """The CM field discriminant when j(E) is one of the 13 rational CM
    j-invariants, else None."""
    j = m.j_invariant()
    if j.denominator != 1:
        return None
    return CM_J_TABLE.get(j.numerator)


def hasse_cm(m: WeierstrassModel, p: int,
             assume_serre_uniformity: bool = False) -> str:
    """Classify a CM curve as a Hasse-principle counterexample source.

    Assumes the caller has already established that the twisted cover is
    everywhere locally soluble.
    """
    D = cm_classify(m)
    if D is None:
        raise ValueError("curve does not have complex multiplication")
    if D in CM_EXCLUDED_DISCS:
        return NOT_A_COUNTEREXAMPLE
    if p > 7 and p % 8 == 5 and legendre(D % p, p) == 1:
        return UNCONDITIONAL
    if (assume_serre_uniformity and p >= 11 and p % 8 == 3
            and legendre(D % p, p) == -1):
        return CONDITIONAL_SERRE
    return UNDETERMINED


# ---------------------------------------------------------------------------
# conditional classification for non-CM curves
# ---------------------------------------------------------------------------

def _has_rational_two_torsion(m: WeierstrassModel) -> bool:
    x = sympy.Symbol("x")
    b2, b4, b6, _ = m.b_invariants()
    B = sympy.Poly(4 * x ** 3 + b2 * x ** 2 + 2 * b4 * x + b6, x)
    return any(r.is_rational for r in sympy.roots(B, x))


def frey_mazur_classify(m: WeierstrassModel, p: int) -> str:
    """Conditional counterexample classification for p > 17, assuming the
    twisted cover is already known to be everywhere locally soluble.

    The four recognized configurations (tried weakest congruence first):
    (1) p = 1 mod 4 and every rational isogeny degree is a square mod p;
    (2) p = 5 mod 8, no rational 2-torsion, additive potentially good
        reduction at 2 with defect 8 or 24, or defect 4 with
        c4~ = 5*Delta~ mod 8;
    (3) p = 5 mod 12, no rational 2- or 3-isogeny, additive potentially
        good reduction at 3 with defect 12, or defect 3 with
        Delta~ = 2 mod 3;
    (4) p = 5 mod 24 and no rational isogenies at all.
    Unresolved isogeny statuses yield Undetermined rather than a claim.
    """
    if p <= 17:
        raise ValueError("conditional classification requires p > 17")
    mp = minimal_model_at(m, p)
    if reduction_kind(mp, p) in _ADDITIVE:
        return NOT_CLASSIFIED

    survey = isogeny_survey(m)
    unknown = [q for q, ev in survey.items() if ev.certainty == UNKNOWN]
    proven = [q for q, ev in survey.items() if ev.certainty == PROVEN]

    # (1)
    if p % 4 == 1:
        if any(legendre(q % p, p) != 1 for q in proven):
            pass
        elif unknown:
            return UNDETERMINED
        else:
            return CONDITIONAL_FM

    def _pot_good_defect(ell):
        mm = minimal_model_at(m, ell)
        if reduction_kind(mm, ell) != ReductionKind.ADDITIVE_POT_GOOD:
            return None
        prof = defect(mm, ell)
        if prof.e == UNDETERMINED:
            return None
        return prof

    # (2)
    if p % 8 == 5:
        prof = _pot_good_defect(2)
        if prof is not None and not _has_rational_two_torsion(m):
            t = prof.tilde
            if prof.e in (8, 24) or (
                    prof.e == 4 and t.c4_tilde % 8 == (5 * t.delta_tilde) % 8):
                return CONDITIONAL_FM

    # (3)
    if p % 12 == 5:
        prof = _pot_good_defect(3)
        if prof is not None:
            s2, s3 = survey[2].certainty, survey[3].certainty
            if s2 == UNKNOWN or s3 == UNKNOWN:
                return UNDETERMINED
            if s2 == EXCLUDED and s3 == EXCLUDED:
                t = prof.tilde
                if prof.e == 12 or (prof.e == 3 and t.delta_tilde % 3 == 2):
                    return CONDITIONAL_FM

    # (4)
    if p % 24 == 5:
        if unknown:
            return UNDETERMINED
        if not proven:
            return CONDITIONAL_FM

    return UNDETERMINED if unknown else NOT_CLASSIFIED


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _bad_primes(m: WeierstrassModel) -> list[int]:
    out = []
    for ell, _ in factorize(abs(m.discriminant())).factors:
        mm = minimal_model_at(m, ell)
        if reduction_kind(mm, ell) != ReductionKind.GOOD:
            out.append(ell)
    return out


DEFAULT_SCAN_CAP = 1000


def analyze(m: WeierstrassModel, p: int,
            scan_cap: Optional[int] = DEFAULT_SCAN_CAP,
            assume_frey_mazur: bool = False,
            assume_serre_uniformity: bool = False) -> GlobalReport:
    """Full per-place analysis and overall classification.

    Good primes are scanned up to min(scan_cap, 4g^2); pass scan_cap=None
    for the full (often astronomically large) theoretical bound.  When the
    scan is capped, the report carries an annotation: verdicts for good
    primes above the cap that do not divide p or the conductor are NonEmpty
    by the large-prime rule.  Primes of bad reduction and p itself are
    always checked regardless of the cap."""
    if not is_prime(p) or p < 3:
        raise ValueError("p must be a prime >= 3")
    curve = m.ainvs()

    if p <= 5:
        return GlobalReport(curve, p, (), Overall(
            "HasRationalPoint", {"reason": "genus-zero cover", "p": p}))

    witness = isogeny_witness(m, p)
    if witness is not None:
        return GlobalReport(curve, p, (), Overall(
            "HasRationalPoint",
            {"reason": "isogeny", "q": witness.degree,
             "legendre_q_p": -1}))

    bad = _bad_primes(m)
    bound = genus(p).hensel_bound
    cap = bound if scan_cap is None else min(scan_cap, bound)
    scan_note = None
    if cap < bound:
        scan_note = (
            "bounded scan: good primes in (%d, %d] not dividing %d*N_E "
            "assumed NonEmpty by the large-prime rule" % (cap, bound, p))

    ells = sorted(set(bad) | {p} | {
        ell for ell in range(2, cap + 1)
        if is_prime(ell) and ell not in bad and ell != p})

    places: list[tuple[Place, LocalVerdict]] = [
        (RealPlace(), solve_local(m, p, RealPlace()))]
    for ell in ells:
        pl = FinitePrime(ell)
        places.append((pl, solve_local(m, p, pl)))

    empties = [pl.ell for pl, v in places[1:] if v.status == EMPTY]
    gaps = [(str(pl), v.status, v.rule) for pl, v in places
            if v.status in (UNDETERMINED, OUT_OF_SCOPE)]

    if empties:
        overall = Overall("LocalObstructionAt", {"ell": empties[0]})
    elif gaps:
        overall = Overall("Undetermined", {"reasons": gaps})
    else:
        overall = Overall("EverywhereLocal", {})
        if p > 7:
            if cm_classify(m) is not None:
                verdict = hasse_cm(m, p, assume_serre_uniformity)
                if verdict == UNCONDITIONAL:
                    overall = Overall("HasseCounterexample",
                                      {"assumption": "None"})
                elif verdict == CONDITIONAL_SERRE:
                    overall = Overall("HasseCounterexample",
                                      {"assumption": "SerreUniformity"})
            elif assume_frey_mazur and p > 17:
                if frey_mazur_classify(m, p) == CONDITIONAL_FM:
                    overall = Overall("HasseCounterexample",
                                      {"assumption": "FreyMazur"})

    return GlobalReport(curve, p, tuple(places), overall, scan_note)


# ---------------------------------------------------------------------------
# semistability survey
# ---------------------------------------------------------------------------

def semistable_survey(H: int):
    """Exhaustively enumerate integral models of naive height at most H in
    reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}, |a4| <= H^4,
    |a6| <= H^6), drop singular models, and count those semistable at
    every bad prime.  Counts models, not isomorphism classes.

    Returns (total, semistable, fraction).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    total = 0
    good = 0
    r4, r6 = H ** 4, H ** 6
    for a1 in (0, 1):
        for a2 in (-1, 0, 1):
            for a3 in (0, 1):
                b2 = a1 * a1 + 4 * a2
                for a4 in range(-r4, r4 + 1):
                    b4 = 2 * a4 + a1 * a3
                    for a6 in range(-r6, r6 + 1):
                        b6 = a3 * a3 + 4 * a6
                        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4
                              + a2 * a3 * a3 - a4 * a4)
                        disc = (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6
                                + 9 * b2 * b4 * b6)
                        if disc == 0:
                            continue
                        total += 1
                        c4 = b2 * b2 - 24 * b4
                        g = math.gcd(c4, disc)
                        if g == 1:
                            good += 1
                            continue
                        if _is_semistable(
                                WeierstrassModel(a1, a2, a3, a4, a6),
                                abs(g) if c4 else abs(disc)):
                            good += 1
    return total, good, Fraction(good, total)


def _is_semistable(m: WeierstrassModel, shared: int) -> bool:
    for ell, _ in factorize(shared).factors:
        mm = minimal_model_at(m, ell)
        if reduction_kind(mm, ell) in _ADDITIVE:
            return False
    return True
