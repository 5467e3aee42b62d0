"""Local solvability of the twisted modular curve attached to (E, p).

For an elliptic curve E over Q and a prime p >= 3, decide for a place v
of Q whether the anti-symplectic twist of the p-torsion modular curve
has a Q_v-point.  Each verdict carries a stable rule identifier, a
structured witness, and a trace of every condition that was evaluated.

The rule identifiers (the public enumeration, in the order they are
tried) are:

    Thm-small-p            p in {3, 5}: the curve has genus 0 and rational points
    Thm-real               the real place always has points
    Thm-multiplicative     potentially multiplicative reduction at ell
    Hensel                 good reduction, ell != p, ell > 4g^2
    Thm-good(1..4)         good reduction, ell != p: the four sufficient
                           conditions (p = 1 mod 4; -p*Delta_ell not a
                           square; p does not divide the order of the
                           Frobenius module; a prime q != ell dividing
                           Delta_ell with (q/p) = -1)
    Search-antisymplectic  residual search: some a' != a with a' = a (mod p)
                           has a'^2 < 4 ell, so an anti-symplectic partner
                           exists; the witness is the first such class
    Search-multiplicative-lift  residual search: no such a', and the trace
                           matches a multiplicative lift
    Search-empty           residual search: no such a' (so ell < p^2/4) and
                           no multiplicative lift; proven Empty
    Thm-good-p(1|2|4)      good reduction at ell = p: the applicable
                           sufficient conditions
    Cor-good-p-exception   ell = p, p = 7 mod 8, a_p = 0: open case
    OutOfScope-additive-p  additive reduction at ell = p
    Twist-e2/<rule>        defect 2: solved on the good quadratic twist
    Twist-e6/<rule>        defect 6: solved on the defect-3 quadratic twist
    Thm-e3-abelian         e = 3, ell = 1 mod 3: torsion field abelian
    Thm-e3-tame            e = 3, ell = 2 mod 3: biconditional in (3/p), (ell/p)
    Thm-e3-wild-abelian    e = 3, ell = 3, delta_tilde != 2 mod 3
    Thm-e3-wild            e = 3, ell = 3: biconditional in (3/p)
    Thm-e4-abelian         e = 4, ell = 1 mod 4
    Thm-e4-tame            e = 4, ell = 3 mod 4: biconditional in (2/p), (ell/p)
    Thm-e4-wild-abelian    e = 4, ell = 2, c4_tilde != 5*delta_tilde mod 8
    Thm-e4-wild            e = 4, ell = 2: biconditional in (2/p)
    Thm-e8-24              e in {8, 24} (ell = 2): biconditional in (2/p)
    Thm-e12                e = 12 (ell = 3): biconditional in (3/p)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .arith import factorize, is_prime, legendre, squarefree_part, valuation
from .fqcurves import (
    CurveOverFq,
    frob_disc,
    multiplicative_lift_possible,
    torsion_field_degree,
    trace_of_frobenius,
    unipotent_search,
)
from .fq import Fq
from .padic import PrecisionError, with_unramified_roots
from .semistability import defect, e3_twist, good_twist
from .weierstrass import (
    ReductionKind,
    WeierstrassModel,
    minimal_model_at,
    reduction_kind,
)

NON_EMPTY = "NonEmpty"
EMPTY = "Empty"
UNDETERMINED = "Undetermined"
OUT_OF_SCOPE = "OutOfScope"

SYMPLECTIC = "Symplectic"
ANTI_SYMPLECTIC = "AntiSymplectic"


@dataclass(frozen=True)
class RealPlace:
    def __str__(self) -> str:
        return "R"


@dataclass(frozen=True)
class FinitePrime:
    ell: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError(f"{self.ell} is not prime")

    def __str__(self) -> str:
        return str(self.ell)


Place = RealPlace | FinitePrime


@dataclass
class LocalVerdict:
    status: str
    rule: str
    witness: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


@dataclass(frozen=True)
class GenusData:
    p: int
    g: int
    hensel_bound: int


class HypothesisError(ValueError):
    """A pairwise comparison was requested outside the hypotheses of the
    applicable criterion; the message names the failed clause."""


@lru_cache(maxsize=256)
def genus(p: int) -> GenusData:
    """Genus of the p-torsion modular curve and the bound 4g^2 above
    which good primes are handled by Hensel lifting."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be a prime >= 3, got {p}")
    if p in (3, 5):
        g = 0
    else:
        num = (p * p - 1) * (p - 6)
        assert num % 24 == 0
        g = 1 + num // 24
    return GenusData(p, g, 4 * g * g)


def reduce_curve(m: WeierstrassModel, ell: int) -> CurveOverFq:
    """The reduction over F_ell of an ell-minimal model of m."""
    mm = minimal_model_at(m, ell)
    F = Fq(ell, 1)
    return CurveOverFq(F, *(a % ell for a in mm.ainvs()))


def _iff_verdict(cond: bool, rule: str, witness: dict, trace: list) -> LocalVerdict:
    return LocalVerdict(NON_EMPTY if cond else EMPTY, rule, witness, trace)


def solve_local(m: WeierstrassModel, p: int, place: Place) -> LocalVerdict:
    """Local verdict at one place; the first applicable rule wins."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"p must be a prime >= 3, got {p}")
    if m.discriminant() == 0:
        raise ValueError("singular model")
    trace: list[str] = []

    # (a) genus-zero levels
    if p in (3, 5):
        trace.append(f"p={p} in {{3,5}}: genus 0, rational points exist")
        return LocalVerdict(NON_EMPTY, "Thm-small-p", {"p": p}, trace)
    trace.append(f"p={p} not in {{3,5}}")

    # (b) the real place
    if isinstance(place, RealPlace):
        trace.append("real place: always solvable")
        return LocalVerdict(NON_EMPTY, "Thm-real", {}, trace)

    ell = place.ell
    kind = reduction_kind(m, ell)
    trace.append(f"reduction kind at {ell}: {kind}")

    # (c) potentially multiplicative reduction
    if kind in (ReductionKind.MULTIPLICATIVE, ReductionKind.ADDITIVE_POT_MULT):
        return LocalVerdict(NON_EMPTY, "Thm-multiplicative",
                            {"reduction": kind}, trace)

    if kind == ReductionKind.GOOD:
        if ell != p:
            return _solve_good(m, p, ell, trace)
        return _solve_good_equal(m, p, trace)

    # additive, potentially good
    if ell == p:
        trace.append(f"additive reduction at ell = p = {p}: out of scope")
        return LocalVerdict(OUT_OF_SCOPE, "OutOfScope-additive-p", {}, trace)

    prof = defect(m, ell)
    e = prof.e
    trace.append(f"semistability defect at {ell}: e = {e}")

    # (h) quadratic-twist reductions
    if e == 2:
        d, tw = good_twist(m, ell)
        trace.append(f"e=2: twisting by {d} gives good reduction at {ell}")
        inner = solve_local(tw, p, place)
        return LocalVerdict(inner.status, f"Twist-e2/{inner.rule}",
                            {"twist": d, **inner.witness}, trace + inner.trace)
    if e == 6:
        d, tw = e3_twist(m, ell)
        trace.append(f"e=6: twisting by {d} gives defect 3 at {ell}")
        inner = solve_local(tw, p, place)
        return LocalVerdict(inner.status, f"Twist-e6/{inner.rule}",
                            {"twist": d, **inner.witness}, trace + inner.trace)

    l2p = legendre(2, p)
    l3p = legendre(3, p)

    # (i) defect 3
    if e == 3:
        if ell % 3 == 1:
            trace.append(f"ell={ell} = 1 mod 3: torsion field abelian over the "
                         "unramified tower; partner always exists")
            return LocalVerdict(NON_EMPTY, "Thm-e3-abelian", {"ell_mod_3": 1}, trace)
        if ell != 3:
            llp = legendre(ell, p)
            trace.append(f"ell={ell} = 2 mod 3: (3/{p})={l3p}, ({ell}/{p})={llp}")
            return _iff_verdict(l3p == -1 or llp == -1, "Thm-e3-tame",
                                {"legendre_3_p": l3p, "legendre_ell_p": llp}, trace)
        dt = prof.tilde.delta_tilde % 3
        if dt != 2:
            trace.append(f"ell=3, delta_tilde = {dt} mod 3 != 2: abelian case")
            return LocalVerdict(NON_EMPTY, "Thm-e3-wild-abelian",
                                {"delta_tilde_mod_3": dt}, trace)
        trace.append(f"ell=3, delta_tilde = 2 mod 3: (3/{p})={l3p}")
        return _iff_verdict(l3p == -1, "Thm-e3-wild", {"legendre_3_p": l3p}, trace)

    # (j) defect 4
    if e == 4:
        if ell % 4 == 1:
            trace.append(f"ell={ell} = 1 mod 4: torsion field abelian over the "
                         "unramified tower; partner always exists")
            return LocalVerdict(NON_EMPTY, "Thm-e4-abelian", {"ell_mod_4": 1}, trace)
        if ell != 2:
            llp = legendre(ell, p)
            trace.append(f"ell={ell} = 3 mod 4: (2/{p})={l2p}, ({ell}/{p})={llp}")
            return _iff_verdict(l2p == -1 or llp == -1, "Thm-e4-tame",
                                {"legendre_2_p": l2p, "legendre_ell_p": llp}, trace)
        c4t = prof.tilde.c4_tilde % 8
        target = (5 * prof.tilde.delta_tilde) % 8
        if c4t != target:
            trace.append(f"ell=2, c4_tilde = {c4t} mod 8 != 5*delta_tilde = {target}")
            return LocalVerdict(NON_EMPTY, "Thm-e4-wild-abelian",
                                {"c4_tilde_mod_8": c4t,
                                 "five_delta_tilde_mod_8": target}, trace)
        trace.append(f"ell=2, c4_tilde = 5*delta_tilde mod 8: (2/{p})={l2p}")
        return _iff_verdict(l2p == -1, "Thm-e4-wild", {"legendre_2_p": l2p}, trace)

    # (k) defect 8 or 24 (ell = 2)
    if e in (8, 24):
        trace.append(f"e={e} at ell=2: (2/{p})={l2p}")
        return _iff_verdict(l2p == -1, "Thm-e8-24",
                            {"e": e, "legendre_2_p": l2p}, trace)

    # (l) defect 12 (ell = 3)
    if e == 12:
        trace.append(f"e=12 at ell=3: (3/{p})={l3p}")
        return _iff_verdict(l3p == -1, "Thm-e12", {"legendre_3_p": l3p}, trace)

    raise AssertionError(f"unhandled defect {e}")  # pragma: no cover


def _solve_good(m: WeierstrassModel, p: int, ell: int, trace: list) -> LocalVerdict:
    """Good reduction at ell != p: Hensel bound, then condition (1)
    (p = 1 mod 4, which reads no point count), then the reduction's trace
    a = a_ell and conditions (2)-(4), then the residual search, decided
    from traces by ``unipotent_search``.

    The search looks for a curve E over F_ell with E[p] isomorphic to
    C[p] as a Frobenius module, C the reduction, by an isomorphism that
    scales the Weil pairing by a non-square.  It finds one iff some
    integer a' != a has a' = a (mod p) and a'^2 < 4 ell.

    Proof.  Here p >= 7, as p in {3, 5} returned earlier.  (1) failed:
    p = 3 mod 4.  (2) failed: a^2 - 4 ell = -p m^2, so Z[pi] has
    fundamental discriminant -p and conductor m.  (3) failed: Frobenius
    acts on C[p] as a non-scalar matrix of double eigenvalue lam = a/2
    (mod p).  (4) failed: no prime q | m has (q/p) = -1.  A trace
    a' != a (mod p) gives another characteristic polynomial.  A trace
    a' = a (mod p) has p | a'^2 - 4 ell, which rules out the
    supersingular traces (0; +-2 at ell = 2; +-3 at ell = 3) for p >= 7.

    The curves.  Every integer a' with a'^2 < 4 ell is a trace over
    F_ell.  Write a'^2 - 4 ell = f^2 d_K', d_K' fundamental.  The
    ordinary classes of trace a' correspond to the pairs (O, [A]) of an
    order Z[pi'] <= O <= O_K' and a class of Pic(O) (Deuring; Waterhouse
    1969, "Abelian varieties over finite fields", Thm 4.5): each reduces
    the complex torus with lattice A, and Frobenius is multiplication by
    one pi' in K' for all of them.  Frobenius is scalar on E[p] iff p
    divides h = [O : Z[pi']], a divisor of f (Duke-Toth 2002; see
    ``fqcurves._is_scalar_action``).  If p does not divide h, then
    p | h^2 d_O gives p | d_O.

    The invariant.  A non-scalar E of trace a' = a (mod p) has, like C,
    the matrix [[lam, *], [0, lam]], * != 0, so E[p] is isomorphic to
    C[p], and an isomorphism phi scales the Weil pairing by det(phi),
    whose square class is fixed (the centralizer x + yN has determinant
    x^2).  w = 2 pi' - a' acts on E[p] as 2(pi' - lam), a nonzero
    nilpotent; for x outside its kernel the square class u(E) of
    log e_p(x, wx) does not depend on x, and phi carries w_C to w_E.  So
    phi is symplectic iff u(E) = u(C).

    The lift.  On the torus with lattice A <= O the Weil pairing of
    (1/p)A/A is zeta^B(x, y) for the unimodular form B(x, y) =
    Im(conj(x) y)/covol(A), covol(A) = N(A) sqrt|d_O|/2, with one
    orientation for every curve; reducing at a prime above ell keeps it.
    w = s h sqrt(d_O) with one sign s for all of O, so B(x, wx) =
    2 s h N(x)/N(A).  As O/pO = F_p[e]/(e^2), x outside ker w has
    N(x)/N(A) prime to p, and its Legendre symbol is chi_p([A]), the
    genus character of Pic(O) at p (Cox, "Primes of the form x^2 + ny^2",
    Sections 3 and 7).  So u(E) = eps(a') (h/p) chi_p([A]), with eps(a')
    the same for every curve of trace a'.

    The genus character.  chi_p(n) = (n/p) = (-p/n) by reciprocity.  If
    d_K' = -p, then (-p/n) = (d_O/n) = 1 for each n prime to d_O that a
    class represents: chi_p is trivial.  Otherwise it takes both values:
    if p | d_K', it is a nontrivial genus character of O_K', and Pic(O)
    maps onto Pic(O_K'); if not, p | [O_K' : O], and the classes over
    the trivial class of Pic(O_K') represent the norms of
    (O_K'/p O_K')^*, which include non-squares mod p.  So the non-scalar
    curves of trace a' carry both classes u iff d_K' != -p or some
    h | f prime to p has (h/p) = -1.

    Trace a: d_K = -p, and every h | m prime to p is a product of primes
    q with (q/p) = 1, so every non-scalar curve of trace a has u = u(C):
    its classes are symplectic-only, and any one stands in for C.  Trace
    a' != a, a' = a (mod p): if d_K' were -p, (a' + f sqrt(-p))/2 and
    (a + m sqrt(-p))/2 would both have norm ell in O_K, so be equal up to
    sign and conjugation (the units are +-1 for p > 3); then a' = -a, and
    -a = a (mod p) gives p | a, so p | 4 ell, which is false.  So
    d_K' != -p, and Z[pi'] (h = 1) carries both classes: some curve of
    trace a' is an anti-symplectic partner.

    Without such an a', the search finds only the non-scalar classes of
    trace a, all symplectic-only.  Then a + p and p - a are both at
    least 2 sqrt(ell), so Search-empty needs ell < p^2/4."""
    gd = genus(p)
    # (d)
    if ell > gd.hensel_bound:
        trace.append(f"good, ell={ell} > 4g^2 = {gd.hensel_bound}: smooth point lifts")
        return LocalVerdict(NON_EMPTY, "Hensel",
                            {"genus": gd.g, "hensel_bound": gd.hensel_bound}, trace)
    trace.append(f"good, ell={ell} <= 4g^2 = {gd.hensel_bound}")

    # (e)
    if p % 4 == 1:
        trace.append(f"(1) p = {p} = 1 mod 4: holds")
        return LocalVerdict(NON_EMPTY, "Thm-good(1)", {"p_mod_4": 1}, trace)
    trace.append(f"(1) p = {p} = 3 mod 4: fails")

    C = reduce_curve(m, ell)
    a = trace_of_frobenius(C)
    disc = frob_disc(a, ell, 1)
    trace.append(f"a_{ell} = {a}, Delta_{ell} = {disc}")

    sf = squarefree_part(-p * disc)
    if sf != 1:
        trace.append(f"(2) -p*Delta_ell = {-p * disc} has squarefree part {sf} != 1")
        return LocalVerdict(NON_EMPTY, "Thm-good(2)",
                            {"squarefree_part": sf}, trace)
    trace.append(f"(2) -p*Delta_ell = {-p * disc} is a perfect square: fails")

    order = torsion_field_degree(C, p)
    if order % p != 0:
        trace.append(f"(3) Frobenius module has order {order}, not divisible by {p}")
        return LocalVerdict(NON_EMPTY, "Thm-good(3)", {"order": order}, trace)
    trace.append(f"(3) Frobenius module has order {order}, divisible by {p}: fails")

    for q, _ in factorize(abs(disc)).factors:
        if q != ell and legendre(q, p) == -1:
            trace.append(f"(4) q = {q} divides Delta_ell with ({q}/{p}) = -1")
            return LocalVerdict(NON_EMPTY, "Thm-good(4)", {"q": q}, trace)
    trace.append("(4) no prime q != ell dividing Delta_ell has (q/p) = -1: fails")

    partner, checked = unipotent_search(ell, p, a)
    if partner is not None:
        trace.append(f"residual search: anti-symplectic partner {partner}")
        return LocalVerdict(NON_EMPTY, "Search-antisymplectic",
                            {"partner": list(partner)}, trace)
    trace.append(f"residual search: {checked} isomorphic module(s), "
                 "all symplectic-only")
    if multiplicative_lift_possible(a, ell, p):
        trace.append(f"a_ell = {a} = +-({ell}+1) mod {p}: multiplicative lift")
        return LocalVerdict(NON_EMPTY, "Search-multiplicative-lift",
                            {"a": a}, trace)
    trace.append(f"a_ell = {a} != +-({ell}+1) mod {p}: no multiplicative lift")
    return LocalVerdict(EMPTY, "Search-empty",
                        {"partners_checked": checked}, trace)


def _solve_good_equal(m: WeierstrassModel, p: int, trace: list) -> LocalVerdict:
    """Good reduction at ell = p: condition (1) (p = 1 mod 4, which reads
    no point count), then the trace a_p and the sufficient conditions that
    survive, with the single open exceptional case."""
    if p % 4 == 1:
        trace.append(f"(1) p = {p} = 1 mod 4: holds")
        return LocalVerdict(NON_EMPTY, "Thm-good-p(1)", {"p_mod_4": 1}, trace)
    trace.append(f"(1) p = {p} = 3 mod 4: fails")

    C = reduce_curve(m, p)
    a = trace_of_frobenius(C)
    disc = frob_disc(a, p, 1)
    trace.append(f"good at ell = p = {p}: a_p = {a}, Delta_p = {disc}")

    sf = squarefree_part(-p * disc)
    if sf != 1:
        trace.append(f"(2) -p*Delta_p = {-p * disc} has squarefree part {sf} != 1")
        return LocalVerdict(NON_EMPTY, "Thm-good-p(2)", {"squarefree_part": sf}, trace)
    trace.append(f"(2) -p*Delta_p = {-p * disc} is a perfect square: fails")

    for q, _ in factorize(abs(disc)).factors:
        if q != p and legendre(q, p) == -1:
            trace.append(f"(4) q = {q} divides Delta_p with ({q}/{p}) = -1")
            return LocalVerdict(NON_EMPTY, "Thm-good-p(4)", {"q": q}, trace)
    trace.append("(4) no prime q != p dividing Delta_p has (q/p) = -1: fails")

    # The survivors are exactly p = 7 mod 8 with a_p = 0.
    trace.append(f"p = {p % 8} mod 8, a_p = {a}: the one open case")
    return LocalVerdict(UNDETERMINED, "Cor-good-p-exception",
                        {"a_p": a, "p_mod_8": p % 8}, trace)


def exceptional_prime(m: WeierstrassModel, ell: int) -> int | None:
    """The at-most-one prime p0 = 3 mod 4 at which a good prime ell could
    fail to contribute a local point; None when no such prime exists."""
    if reduction_kind(m, ell) != ReductionKind.GOOD:
        raise ValueError(f"requires good reduction at {ell}")
    C = reduce_curve(m, ell)
    disc = frob_disc(trace_of_frobenius(C), ell, 1)
    sf = squarefree_part(-disc)
    if sf > 1 and sf % 4 == 3 and is_prime(sf):
        return sf
    return None


# ---------------------------------------------------------------------------
# pairwise symplectic comparison (defects 3 and 4)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    symplectic_type: str  # SYMPLECTIC / ANTI_SYMPLECTIC
    iso_guarantee: bool   # the p-torsion modules are isomorphic
    criterion: str        # which of the four criteria applied
    r: int
    t: int | None


def compare_symplectic(m1: WeierstrassModel, m2: WeierstrassModel,
                       ell: int, p: int,
                       same_field_assumed: bool = False) -> ComparisonResult:
    """Symplectic or anti-symplectic: the square class of any isomorphism
    between the p-torsion modules of two curves with equal defect 3 or 4.

    For (ell, e) = (2, 4) the criterion additionally needs both curves to
    acquire good reduction over the same quartic field, which is not
    decided here; the caller must assert it via same_field_assumed.
    """
    if not is_prime(p) or p < 5:
        raise HypothesisError(f"requires a prime p >= 5, got {p}")
    if not is_prime(ell):
        raise HypothesisError(f"ell = {ell} is not prime")
    profs = []
    for tag, m in (("first", m1), ("second", m2)):
        if reduction_kind(m, ell) != ReductionKind.ADDITIVE_POT_GOOD:
            raise HypothesisError(
                f"{tag} curve: not additive potentially good at {ell}")
        profs.append(defect(m, ell))
    e1, e2 = profs[0].e, profs[1].e
    if e1 != e2:
        raise HypothesisError(f"defects differ: {e1} vs {e2}")
    if e1 not in (3, 4):
        raise HypothesisError(f"requires defect 3 or 4, got {e1}")
    e = e1

    if e == 3:
        if ell == 3:
            for tag, prof in zip(("first", "second"), profs):
                if prof.tilde.delta_tilde % 3 != 2:
                    raise HypothesisError(
                        f"{tag} curve: delta_tilde != 2 mod 3 (abelian case)")
            r = 0 if (profs[0].tilde.c6_tilde - profs[1].tilde.c6_tilde) % 3 == 0 else 1
            product = legendre(3, p) ** r
            return ComparisonResult(
                SYMPLECTIC if product == 1 else ANTI_SYMPLECTIC, True,
                "e3-wild", r, None)
        if ell % 3 != 2:
            raise HypothesisError(
                f"e=3 criterion needs ell = 2 mod 3 or ell = 3, got ell = {ell}")
        if ell == p:
            raise HypothesisError("e=3 tame criterion needs ell != p")
        stats = [_three_torsion_status(m, ell) for m in (m1, m2)]
        if UNDETERMINED in stats:
            raise HypothesisError(
                "3-torsion point existence undetermined; refusing to guess t")
        t = 1 if (stats[0] == "Yes") != (stats[1] == "Yes") else 0
        r = 0 if (profs[0].tilde.v_delta - profs[1].tilde.v_delta) % 3 == 0 else 1
        product = legendre(ell, p) ** r * legendre(3, p) ** t
        return ComparisonResult(
            SYMPLECTIC if product == 1 else ANTI_SYMPLECTIC, True,
            "e3-tame", r, t)

    # e == 4
    if ell == 2:
        for tag, prof in zip(("first", "second"), profs):
            if (prof.tilde.c4_tilde - 5 * prof.tilde.delta_tilde) % 8 != 0:
                raise HypothesisError(
                    f"{tag} curve: c4_tilde != 5*delta_tilde mod 8 (abelian case)")
        if not same_field_assumed:
            raise HypothesisError(
                "(ell, e) = (2, 4) needs the same-good-reduction-field "
                "assumption; pass same_field_assumed=True to assert it")
        r = 0 if (profs[0].tilde.c6_tilde - profs[1].tilde.c6_tilde) % 4 == 0 else 1
        product = legendre(2, p) ** r
        return ComparisonResult(
            SYMPLECTIC if product == 1 else ANTI_SYMPLECTIC, True,
            "e4-wild", r, None)
    if ell % 4 != 3:
        raise HypothesisError(
            f"e=4 criterion needs ell = 3 mod 4 or ell = 2, got ell = {ell}")
    if ell == p:
        raise HypothesisError("e=4 tame criterion needs ell != p")
    sq = [1 if legendre(prof.tilde.delta_tilde, ell) == 1 else 0 for prof in profs]
    t = 1 if sq[0] != sq[1] else 0
    r = 0 if (profs[0].tilde.v_delta - profs[1].tilde.v_delta) % 4 == 0 else 1
    product = legendre(ell, p) ** r * legendre(2, p) ** t
    return ComparisonResult(
        SYMPLECTIC if product == 1 else ANTI_SYMPLECTIC, True,
        "e4-tame", r, t)


# ---------------------------------------------------------------------------
# rational 3-torsion over Q_ell: the Z_ell-roots of the 3-division quartic
# come from padic's root finder; its precision loop retries whenever the
# square-class test below runs out of digits.
# ---------------------------------------------------------------------------

def _square_class_zl(value: int, ell: int, known_prec: int):
    """True/False: is a nonzero ell-adic integer known to this precision a
    square in Q_ell?  Raises PrecisionError when the precision is
    insufficient.

    The slack is still needed, and is exact rather than a margin: padic's
    root precisions are honest, so value is right to known_prec digits,
    and its square class ell^v * u is read from digits v .. v + slack - 1
    (u mod ell for odd ell, u mod 8 at ell = 2)."""
    slack = 3 if ell == 2 else 1
    if value % (ell ** known_prec) == 0 or value == 0:
        raise PrecisionError("root known to too few digits")
    v = valuation(value, ell)
    if v + slack > known_prec:
        raise PrecisionError("root known to too few digits")
    if v % 2 == 1:
        return False
    u = value // (ell ** v)
    if ell == 2:
        return u % 8 == 1
    return legendre(u % ell, ell) == 1


def _three_torsion_status(m: WeierstrassModel, ell: int) -> str:
    """"Yes"/"No"/"Undetermined": does the curve have a 3-torsion point
    with both coordinates in Q_ell?

    Works with the monic quartic g(y) = y^4 + b2 y^3 + 9 b4 y^2
    + 27 b6 y + 27 b8 (y = 3x), whose Q_ell-roots are exactly its
    Z_ell-roots, and tests the y-coordinate quadratic via the square class of
    3 * (4 y0^3 + 3 b2 y0^2 + 18 b4 y0 + 27 b6) = 81 * disc / 4.
    """
    b2, b4, b6, b8 = m.b_invariants()
    g = [27 * b8, 27 * b6, 9 * b4, b2, 1]

    def any_square(roots):
        for root in roots:
            y0, prec = root.value, root.precision
            val = (12 * y0 ** 3 + 9 * b2 * y0 ** 2
                   + 54 * b4 * y0 + 81 * b6) % (ell ** prec)
            if _square_class_zl(val, ell, prec):
                return "Yes"
        return "No"

    try:
        return with_unramified_roots(g, ell, any_square)
    except PrecisionError:
        return UNDETERMINED
