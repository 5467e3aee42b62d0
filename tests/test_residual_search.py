"""The residual search: the class list, the complete search (the oracle) and
its decision from traces in ``solve_local``."""

import pytest

from artifact import fqcurves
from artifact.arith import is_prime, legendre, squarefree_part
from artifact.fq import Fq
from artifact.fqcurves import (
    ANTI_SYMPLECTIC_ONLY,
    BOTH,
    CurveOverFq,
    _iso_class_key,
    _transform_tuple,
    curve_classes,
    frobenius_module,
    multiplicative_lift_possible,
    residual_module_search,
    torsion_field_degree,
    trace_of_frobenius,
)
from artifact.localsolver import FinitePrime, genus, reduce_curve, solve_local
from artifact.weierstrass import WeierstrassModel

W = WeierstrassModel

#: the change of variables (u, r, s, t) that moves a short class
#: representative to a model with every a-invariant in play
MOVE = (2, 1, 1, 1)


def _primes(lo, hi):
    return [q for q in range(lo, hi) if is_prime(q)]


# ---------------------------------------------------------------------------
# curve_classes
# ---------------------------------------------------------------------------

def _short_class_key(a, b, ell):
    """The least (0, 0, 0, u^4 a, u^6 b) over u in F_ell^*: the class of a
    short model over F_ell, ell >= 5, by brute force."""
    return min((0, 0, 0, pow(u, 4, ell) * a % ell, pow(u, 6, ell) * b % ell)
               for u in range(1, ell))


@pytest.mark.parametrize("ell", _primes(5, 60))
def test_curve_classes_match_brute_force(ell):
    keys = {_short_class_key(a, b, ell) for a in range(ell) for b in range(ell)
            if (4 * a**3 + 27 * b * b) % ell}
    assert curve_classes(ell) == tuple(sorted(keys))


def test_curve_classes_small_characteristic():
    # 5 classes over F_2 and 8 over F_3 (ordinary and supersingular)
    assert len(curve_classes(2)) == 5
    assert len(curve_classes(3)) == 8
    for ell in (2, 3):
        for ai in curve_classes(ell):
            assert _iso_class_key(ai, ell) == ai


# ---------------------------------------------------------------------------
# The oracle against solve_local
# ---------------------------------------------------------------------------

#: Models whose reduction is not short.  The complete search once put C in
#: place of the class named by C's (a4, a6) alone, so it skipped C's real
#: class and compared an unrelated one; the first two came out Empty.
NON_SHORT = [
    ((1, 0, 1, -43, 18), 7, 11, (0, 0, 0, 1, 7)),
    ((0, 0, 1, 14, -17), 7, 11, (0, 0, 0, 1, 4)),
    ((1, 0, 1, 29, 21), 7, 23, (0, 0, 0, 1, 7)),
]


def _oracle(m, p, ell):
    """(rule, witness) of the search row, from the complete search."""
    C = reduce_curve(m, ell)
    partners = residual_module_search(C, p)
    anti = [E for E, v in partners if v in (ANTI_SYMPLECTIC_ONLY, BOTH)]
    if anti:
        return "Search-antisymplectic", {"partner": list(anti[0].ai_ints)}
    a = trace_of_frobenius(C)
    if multiplicative_lift_possible(a, ell, p):
        return "Search-multiplicative-lift", {"a": a}
    return "Search-empty", {"partners_checked": len(partners)}


@pytest.mark.parametrize("ai,p,ell,partner", NON_SHORT)
def test_non_short_models(ai, p, ell, partner):
    m = W(*ai)
    v = solve_local(m, p, FinitePrime(ell))
    assert (v.status, v.rule) == ("NonEmpty", "Search-antisymplectic")
    assert v.witness == {"partner": list(partner)}
    assert v.trace[-1] == f"residual search: anti-symplectic partner {partner}"
    assert _oracle(m, p, ell) == (v.rule, v.witness)


def _reaches_search(C, p):
    """Do conditions (1)-(4) of the good-reduction rules all fail?"""
    ell = C.F.ell
    a = trace_of_frobenius(C)
    disc = a * a - 4 * ell
    if p % 4 == 1 or squarefree_part(-p * disc) != 1:
        return False
    if torsion_field_degree(C, p) % p:
        return False
    m2 = -disc // p
    return all(legendre(q, p) != -1 for q in _primes(2, m2 + 1)
               if m2 % q == 0 and q != ell)


def _search_queries(p, bound):
    """One non-short model per (ell, a) stratum that reaches the search,
    for good ell < bound below the Hensel bound."""
    out = []
    for ell in _primes(2, min(bound, genus(p).hensel_bound + 1)):
        if ell == p:
            continue
        seen = set()
        for ai in curve_classes(ell):
            C = CurveOverFq(Fq(ell, 1), *ai)
            a = trace_of_frobenius(C)
            if a in seen or not _reaches_search(C, p):
                continue
            seen.add(a)
            moved = _transform_tuple(ai, ell, *MOVE) if ell > 2 else ai
            out.append((W(*moved), ell))
    return out


def test_search_rows_match_complete_search():
    rules = set()
    for p, bound in ((7, 37), (11, 38)):
        for m, ell in _search_queries(p, bound):
            v = solve_local(m, p, FinitePrime(ell))
            assert (v.rule, v.witness) == _oracle(m, p, ell), (m.ainvs(), p, ell)
            if v.rule == "Search-empty":
                assert 4 * ell < p * p
            rules.add((p, ell, v.rule))
    # every good ell below the Hensel bound of 7 that reaches the search
    assert {ell for p, ell, _ in rules if p == 7} == {2, 11, 23, 29}
    assert {ell for p, ell, _ in rules if p == 11} == {3, 5, 23, 31, 37}
    assert {r for _, _, r in rules} == {"Search-antisymplectic", "Search-empty"}


def test_multiplicative_lift_after_the_search():
    # A lift needs a = +-2 and ell = 1 + k^2 p below p^2/4 with (2/p) = 1,
    # so never for p < 79: the first case is p = 79, ell = 317, a = 2.
    # No trace a' = 2 (mod 79), a' != 2, fits the Hasse bound, so the
    # search finds the classes of trace 2, none scalar (79^2 does not
    # divide 4 - 4*317).
    p, ell = 79, 317
    m = next(W(0, 0, 0, 1, b) for b in range(1, ell)
             if (4 + 27 * b * b) % ell
             and trace_of_frobenius(CurveOverFq(Fq(ell, 1), 0, 0, 0, 1, b)) == 2)
    v = solve_local(m, p, FinitePrime(ell))
    assert (v.status, v.rule, v.witness) == ("NonEmpty", "Search-multiplicative-lift", {"a": 2})
    n = sum(1 for ai in curve_classes(ell)
            if trace_of_frobenius(CurveOverFq(Fq(ell, 1), *ai)) == 2)
    assert v.trace[-2] == f"residual search: {n} isomorphic module(s), all symplectic-only"


# ---------------------------------------------------------------------------
# The genus theory behind the decision
# ---------------------------------------------------------------------------

def _fundamental(disc):
    """(d_K, f) with disc = f^2 d_K, d_K a fundamental discriminant."""
    d = squarefree_part(abs(disc)) * (1 if disc > 0 else -1)
    dk = d if d % 4 == 1 else 4 * d
    f2 = disc // dk
    f = next(f for f in range(1, f2 + 1) if f * f == f2)
    return dk, f


@pytest.mark.parametrize("p,bound", [(3, 60), (7, 50), (11, 32)])
def test_both_u_classes_per_trace_by_genus_theory(p, bound):
    # The non-scalar classes of trace a' carry both square classes of u
    # iff d_K != -p or some index h | f prime to p has (h/p) = -1, where
    # a'^2 - 4 ell = f^2 d_K.
    outcomes = set()
    for ell in _primes(2, bound):
        if ell == p:
            continue
        u_classes = {}
        for ai in curve_classes(ell):
            C = CurveOverFq(Fq(ell, 1), *ai)
            a = trace_of_frobenius(C)
            if (a * a - 4 * ell) % p or a % ell == 0:
                continue
            M = frobenius_module(C, p).matrix
            u_classes.setdefault(a, set())
            if M[0][1]:
                u_classes[a].add(legendre(M[0][1], p))
        for a, seen in u_classes.items():
            dk, f = _fundamental(a * a - 4 * ell)
            both = dk != -p or any(f % h == 0 and h % p and legendre(h, p) == -1
                                   for h in range(2, f + 1))
            assert seen, (ell, a)
            assert (len(seen) == 2) == both, (p, ell, a)
            outcomes.add(both)
    assert outcomes == {True, False}


def test_second_curve_of_a_stratum_computes_no_pairing(monkeypatch):
    calls = [0]
    weil = fqcurves._weil

    def counted(*args):
        calls[0] += 1
        return weil(*args)

    monkeypatch.setattr(fqcurves, "_weil", counted)
    fqcurves.unipotent_search.cache_clear()
    first, second = W(1, 0, 1, -43, 18), W(0, 0, 0, 1, 9)
    assert trace_of_frobenius(reduce_curve(second, 11)) == 4
    assert solve_local(first, 7, FinitePrime(11)).rule == "Search-antisymplectic"
    assert calls[0] > 0
    before = calls[0]
    v = solve_local(second, 7, FinitePrime(11))
    assert v.witness == {"partner": [0, 0, 0, 1, 7]}
    assert calls[0] == before
