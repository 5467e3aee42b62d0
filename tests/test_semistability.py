import pytest
import sympy

from artifact.corpus import corpus
from artifact.localsolver import FinitePrime, solve_local
from artifact.semistability import (
    WrongReductionKindError,
    _poly_gcd,
    defect,
    e3_twist,
    good_twist,
)
from artifact.weierstrass import (
    ReductionKind,
    WeierstrassModel,
    minimal_model_at,
    quadratic_twist,
    reduction_kind,
)

W = WeierstrassModel


def _prof(ai, ell):
    return defect(minimal_model_at(W(*ai), ell), ell)


def test_defect_requires_additive_potentially_good():
    with pytest.raises(WrongReductionKindError):
        defect(W(0, -1, 1, -10, -20), 7)   # good reduction
    with pytest.raises(WrongReductionKindError):
        defect(W(0, -1, 1, -10, -20), 11)  # multiplicative


def test_defect_tame():
    # 121b1 at 11: v(Delta) = 3 -> e = 4
    assert _prof((0, -1, 1, -7, 10), 11).e == 4
    # 361a2 at 19: v(Delta) = 3 -> e = 4
    assert _prof((0, 0, 1, -38, 90), 19).e == 4


def test_defect_wild_fixtures():
    assert _prof((0, 0, 1, 0, -7), 3).e == 12      # 27a1
    assert _prof((0, 1, 0, -2, 0), 2).e == 8       # 96a1
    assert _prof((0, 0, 0, 2, 0), 2).e == 8
    assert _prof((0, -1, 0, -24, -47), 2).e == 24
    assert _prof((0, -1, 0, -19, -33), 2).e == 4
    assert _prof((0, 0, 0, -21, -41), 3).e == 3


def test_defect_corpus_consistency():
    # the defect never changes under quadratic twist by units at ell for
    # e in {8, 24} at 2 and e = 12 at 3 (twist classes fix these e values)
    for label in ("96a1", "648b1", "27a1", "243a1"):
        ai = corpus()[label]
        m = minimal_model_at(W(*ai), 2)
        ell = 3 if label in ("27a1", "243a1") else 2
        e = _prof(ai, ell).e
        tw = quadratic_twist(W(*ai), -1)
        assert _prof(tw.ainvs(), ell).e == e


def test_good_twist_on_e2():
    # e = 2 curve: twist of a good-reduction curve by ell
    base = W(0, 0, 0, 1, 1)
    assert reduction_kind(base, 5) == ReductionKind.GOOD
    tw = minimal_model_at(quadratic_twist(base, 5), 5)
    assert defect(tw, 5).e == 2
    d, good = good_twist(tw, 5)
    mm = minimal_model_at(good, 5)
    assert reduction_kind(mm, 5) == ReductionKind.GOOD


def test_e3_twist_on_e6():
    # an e = 6 curve at 5: twist an e = 3 curve by 5
    e3 = W(5, 0, 25, 0, 0)  # y^2 + 5xy + 25y = x^3, v(Delta) = 8 -> e = 3
    assert defect(minimal_model_at(e3, 5), 5).e == 3
    e6 = minimal_model_at(quadratic_twist(e3, 5), 5)
    assert defect(e6, 5).e == 6
    d, back = e3_twist(e6, 5)
    assert defect(minimal_model_at(back, 5), 5).e == 3


def test_tilde_congruences_from_corpus_notes():
    t = _prof((0, -1, 0, -19, -33), 2).tilde     # 6912j1 substitute
    assert t.c6_tilde % 4 == 1
    assert t.c4_tilde % 8 == (5 * t.delta_tilde) % 8
    t = _prof((0, -1, 0, -19, -17), 2).tilde     # 6912l1 substitute
    assert t.c6_tilde % 4 == 3
    assert t.c4_tilde % 8 == (5 * t.delta_tilde) % 8
    t = _prof((0, 0, 0, -21, -41), 3).tilde      # 25920z1 substitute
    assert t.c6_tilde % 3 == 1 and t.delta_tilde % 3 == 2
    t = _prof((0, 0, 0, -21, -40), 3).tilde      # 25920v1 substitute
    assert t.c6_tilde % 3 == 2 and t.delta_tilde % 3 == 2


T = sympy.Symbol("T")


@pytest.mark.parametrize("shared", [
    T - 3, 2 * T + 1,                    # a shared linear factor
    T ** 2 + 2 * T - 7, 3 * T ** 2 + 1,  # a shared quadratic factor
    sympy.Integer(1),                    # no shared factor
])
@pytest.mark.parametrize("f_rest, g_rest", [
    (T - 1, 4 * T + 3),
    (T ** 2 + T + 1, 2 * T ** 2 - 5),
    (T + 4, T ** 3 - 2 * T + 9),
])
def test_poly_gcd_matches_sympy(shared, f_rest, g_rest):
    # the inputs are primitive, so sympy's gcd over ZZ is primitive too and
    # equals the monic gcd over QQ cleared of its denominators
    f = sympy.Poly(shared * f_rest, T)
    g = sympy.Poly(shared * g_rest, T)
    ref = sympy.gcd(f, g)
    denom = sympy.lcm([sympy.fraction(co)[1] for co in ref.all_coeffs()])
    expected = [int(co * denom) for co in reversed(ref.all_coeffs())]

    def ints(P):
        return [int(c) for c in reversed(P.all_coeffs())]

    assert _poly_gcd(ints(f), ints(g)) == expected
    assert _poly_gcd(ints(g), ints(f)) == expected
    assert len(expected) - 1 == sympy.degree(shared, T)


def test_defect_memo():
    defect.cache_clear()
    first = defect(W(0, 0, 0, -1, 0), 2)
    info = defect.cache_info()
    again = defect(W(0, 0, 0, -1, 0), 2)  # equal value, distinct object
    assert defect.cache_info().hits == info.hits + 1
    assert again == first
    good = W(0, -1, 1, -10, -20)  # 11a1: good at 7, not cached
    for _ in range(2):
        with pytest.raises(WrongReductionKindError):
            defect(good, 7)
    # a Twist-e2 query reads defect(m, 3) in solve_local and in good_twist
    tw = quadratic_twist(good, 3)
    defect.cache_clear()
    assert solve_local(tw, 7, FinitePrime(3)).rule.startswith("Twist-e2/")
    assert defect.cache_info().misses == 1
