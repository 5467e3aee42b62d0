"""Integral Weierstrass models over Q.

Standard invariants, minimalization at a single prime, quadratic twists,
unit parts of the invariants at a prime ("tilde" invariants), and the
coarse reduction-type classification the decision tree needs.

Minimalization is one closed form for every prime: Kraus's integrality
conditions on (c4, c6) (Kraus 1989, Acta Arith. 54), decided by building
the model with Laska's formulas (Cremona, Algorithms for Modular Elliptic
Curves, 2nd ed., section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import factorize, squarefree_part, valuation
from .fq import Fq, poly_root_multiplicity


class SingularModelError(ValueError):
    pass


@dataclass(frozen=True)
class WeierstrassModel:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.discriminant() == 0:
            raise SingularModelError(f"singular model {self.ainvs()}")

    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    # b2 = a1^2 + 4a2 etc.: the standard auxiliary quantities.
    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.ainvs()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def c4(self) -> int:
        b2, b4, _, _ = self.b_invariants()
        return b2 * b2 - 24 * b4

    def c6(self) -> int:
        b2, b4, b6, _ = self.b_invariants()
        return -b2**3 + 36 * b2 * b4 - 216 * b6

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def j_invariant(self) -> Fraction:
        return Fraction(self.c4() ** 3, self.discriminant())

    def transform(self, u: Fraction | int, r: Fraction | int, s: Fraction | int,
                  t: Fraction | int) -> "WeierstrassModel":
        """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

        The result must again be integral; otherwise ValueError.
        """
        u, r, s, t = (Fraction(z) for z in (u, r, s, t))
        a1, a2, a3, a4, a6 = self.ainvs()
        na1 = (a1 + 2 * s) / u
        na2 = (a2 - s * a1 + 3 * r - s * s) / u**2
        na3 = (a3 + r * a1 + 2 * t) / u**3
        na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4
        na6 = (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6
        new = (na1, na2, na3, na4, na6)
        if any(z.denominator != 1 for z in new):
            raise ValueError("transformation does not preserve integrality")
        return WeierstrassModel(*(int(z) for z in new))


def _vp(n: int, ell: int) -> int:
    """v_ell(n), or a sentinel above every real valuation when n = 0."""
    return 10**9 if n == 0 else valuation(n, ell)


def _laska_model(c4: int, c6: int) -> WeierstrassModel | None:
    """Laska's integral model with invariants (c4, c6), or None if none exists.

    b2 is fixed by b2 = -c6 mod 12, then b4, b6 and the a-invariants follow;
    an integral model with these c4, c6 exists iff every division is exact.
    """
    b2 = (-c6 + 5) % 12 - 5
    b4, r4 = divmod(b2 * b2 - c4, 24)
    b6, r6 = divmod(-b2**3 + 36 * b2 * b4 - c6, 216)
    a1, a3 = b2 % 2, b6 % 2
    if r4 or r6 or (b2 - a1) % 4 or (b4 - a1 * a3) % 2 or (b6 - a3) % 4:
        return None
    return WeierstrassModel(a1, (b2 - a1) // 4, a3, (b4 - a1 * a3) // 2, (b6 - a3) // 4)


@lru_cache(maxsize=8192)
def minimal_model_at(m: WeierstrassModel, ell: int) -> WeierstrassModel:
    """An ell-minimal model in the same Q-isomorphism class.

    Kraus's test (Kraus 1989; Cremona, Algorithms for Modular Elliptic
    Curves, 2nd ed., 3.2): a model with invariants c4/u^4, c6/u^6 is
    integral iff Laska's formulas divide exactly, and u = ell^j is a unit
    at every other prime, so the largest such j gives the ell-minimal
    model.  When no j >= 1 works the input is already ell-minimal and comes
    back unchanged, not renormalised, so its a-invariants (which verdict
    witnesses print) stay those of the caller's model.
    """
    c4, c6 = m.c4(), m.c6()
    k = min(_vp(c4, ell) // 4, _vp(c6, ell) // 6, valuation(m.discriminant(), ell) // 12)
    for j in range(k, 0, -1):
        reduced = _laska_model(c4 // ell**(4 * j), c6 // ell**(6 * j))
        if reduced is not None:
            return reduced
    return m


@dataclass(frozen=True)
class TildeInvariants:
    ell: int
    v_c4: int | None
    c4_tilde: int | None
    v_c6: int | None
    c6_tilde: int | None
    v_delta: int
    delta_tilde: int


def tilde_invariants(m: WeierstrassModel, ell: int) -> TildeInvariants:
    """Unit parts of c4, c6, Delta of an ell-minimal model.

    The model is minimalized internally; c4/c6 fields are None when the
    corresponding invariant vanishes.
    """
    m = minimal_model_at(m, ell)
    c4, c6, disc = m.c4(), m.c6(), m.discriminant()
    v_delta = valuation(disc, ell)
    delta_tilde = disc // ell**v_delta
    if c4 != 0:
        v_c4 = valuation(c4, ell)
        c4_tilde = c4 // ell**v_c4
    else:
        v_c4 = c4_tilde = None
    if c6 != 0:
        v_c6 = valuation(c6, ell)
        c6_tilde = c6 // ell**v_c6
    else:
        v_c6 = c6_tilde = None
    return TildeInvariants(ell, v_c4, c4_tilde, v_c6, c6_tilde, v_delta, delta_tilde)


class ReductionKind:
    GOOD = "Good"
    MULTIPLICATIVE = "Multiplicative"
    ADDITIVE_POT_MULT = "AdditivePotentiallyMultiplicative"
    ADDITIVE_POT_GOOD = "AdditivePotentiallyGood"


def reduction_kind(m: WeierstrassModel, ell: int) -> str:
    m = minimal_model_at(m, ell)
    if m.discriminant() % ell:
        return ReductionKind.GOOD
    if m.c4() % ell:
        return ReductionKind.MULTIPLICATIVE
    j = m.j_invariant()
    if valuation(j.denominator, ell) > 0:
        return ReductionKind.ADDITIVE_POT_MULT
    return ReductionKind.ADDITIVE_POT_GOOD


def quadratic_twist(m: WeierstrassModel, d: int) -> WeierstrassModel:
    """Twist by a squarefree nonzero integer d."""
    if d == 0 or squarefree_part(abs(d)) != abs(d):
        raise ValueError("twist parameter must be squarefree and nonzero")
    if m.a1 == 0 and m.a3 == 0:
        return WeierstrassModel(0, d * m.a2, 0, d * d * m.a4, d**3 * m.a6)
    b2, b4, b6, _ = m.b_invariants()
    # y^2 = x^3 + b2 x^2 + 8 b4 x + 16 b6 is Q-isomorphic to m.
    return WeierstrassModel(0, d * b2, 0, 8 * d * d * b4, 16 * d**3 * b6)


# ---------------------------------------------------------------------------
# conductor exponents
# ---------------------------------------------------------------------------

def _conductor_exponent_wild(m: WeierstrassModel, p: int) -> int:
    """Conductor exponent at p in {2, 3} for an additive p-minimal model,
    by running the reduction-type classification far enough to count the
    special-fiber components (f = v(disc) + 1 - components)."""
    n = valuation(m.discriminant(), p)

    # move the singular point of the reduction to the origin
    a1, a2, a3, a4, a6 = m.ainvs()
    sing = None
    for x0 in range(p):
        for y0 in range(p):
            if ((y0 * y0 + a1 * x0 * y0 + a3 * y0
                 - x0 ** 3 - a2 * x0 * x0 - a4 * x0 - a6) % p == 0
                    and (a1 * y0 - 3 * x0 * x0 - 2 * a2 * x0 - a4) % p == 0
                    and (2 * y0 + a1 * x0 + a3) % p == 0):
                sing = (x0, y0)
    assert sing is not None
    m = m.transform(1, sing[0], 0, sing[1])
    a1, a2, a3, a4, a6 = m.ainvs()
    _, _, b6, b8 = m.b_invariants()

    if _vp(a6, p) < 2:
        return n          # type II
    if _vp(b8, p) < 3:
        return n - 1      # type III
    if _vp(b6, p) < 3:
        return n - 2      # type IV

    # normalize: p | a1, a2; p^2 | a3; p^3 | a6 (then p^2 | a4 follows)
    norm = None
    for s in range(p):
        for t in range(p ** 3):
            mt = m.transform(1, 0, s, t)
            na = mt.ainvs()
            if (_vp(na[0], p) >= 1 and _vp(na[1], p) >= 1
                    and _vp(na[2], p) >= 2 and _vp(na[4], p) >= 3):
                norm = mt
                break
        if norm:
            break
    assert norm is not None
    m = norm
    a1, a2, a3, a4, a6 = m.ainvs()

    # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p
    F = Fq(p, 1)
    P = [F.from_int(c) for c in (a6 // p ** 3, a4 // p ** 2, a2 // p, 1)]
    mults = {r: poly_root_multiplicity(F, P, (r,)) for r in range(p)}
    triple = [r for r, mu in mults.items() if mu >= 3]
    double = [r for r, mu in mults.items() if mu == 2]

    if not triple and not double:
        return n - 4      # type I0*

    if double:
        # type Im*: peel one digit at a time until a separable quadratic
        m = m.transform(1, p * double[0], 0, 0)
        k = 1
        while True:
            a1, a2, a3, a4, a6 = m.ainvs()
            a3k = a3 // p ** (k + 1)
            a6k = a6 // p ** (2 * k + 2)
            if (a3k % 2 == 1) if p == 2 else ((a3k * a3k + 4 * a6k) % p != 0):
                return n - 4 - (2 * k - 1)
            y0 = (a6k % 2) if p == 2 else ((-a3k) * pow(2, -1, p)) % p
            m = m.transform(1, 0, 0, p ** (k + 1) * y0)
            a1, a2, a3, a4, a6 = m.ainvs()
            a2k = a2 // p
            a4k = a4 // p ** (k + 2)
            a6k = a6 // p ** (2 * k + 3)
            if (a4k % 2 == 1) if p == 2 else ((a4k * a4k - 4 * a2k * a6k) % p != 0):
                return n - 4 - 2 * k
            if p == 2:
                x0 = (a6k * pow(a2k, -1, 2)) % 2
            else:
                x0 = ((-a4k) * pow(2 * a2k, -1, p)) % p
            m = m.transform(1, p ** (k + 1) * x0, 0, 0)
            k += 1

    # triple root
    m = m.transform(1, p * triple[0], 0, 0)
    a1, a2, a3, a4, a6 = m.ainvs()
    a3k = a3 // p ** 2
    a6k = a6 // p ** 4
    if (a3k % 2 == 1) if p == 2 else ((a3k * a3k + 4 * a6k) % p != 0):
        return n - 6      # type IV*
    y0 = (a6k % 2) if p == 2 else ((-a3k) * pow(2, -1, p)) % p
    m = m.transform(1, 0, 0, p ** 2 * y0)
    a1, a2, a3, a4, a6 = m.ainvs()
    if _vp(a4, p) < 4:
        return n - 7      # type III*
    if _vp(a6, p) < 6:
        return n - 8      # type II*
    raise ValueError("model not minimal at the wild prime")


def conductor_exponent(m: WeierstrassModel, ell: int) -> int:
    """Exponent of ell in the conductor."""
    mm = minimal_model_at(m, ell)
    kind = reduction_kind(mm, ell)
    if kind == ReductionKind.GOOD:
        return 0
    if kind == ReductionKind.MULTIPLICATIVE:
        return 1
    if ell >= 5:
        return 2
    return _conductor_exponent_wild(mm, ell)


def conductor(m: WeierstrassModel) -> int:
    """Conductor of the curve."""
    N = 1
    for ell, _ in factorize(abs(m.discriminant())).factors:
        N *= ell ** conductor_exponent(m, ell)
    return N
