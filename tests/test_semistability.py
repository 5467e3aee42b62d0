import csv
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from artifact.corpus import corpus
from artifact.fq import flx_gcd, flx_mod
from artifact.localsolver import FinitePrime, solve_local
from artifact.semistability import (
    WrongReductionKindError,
    _twist_classes,
    defect,
    e3_twist,
    good_twist,
)
from artifact.weierstrass import (
    ReductionKind,
    SingularModelError,
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
    # The defect takes no gcd: it is read from valuations and unit parts.
    # The gcd over F_ell that padic takes with x^ell - x for residue roots
    # must be sympy's monic gcd over GF(ell), also where the leading
    # coefficient of the shared factor vanishes mod ell (2T + 1 at 2,
    # 3T^2 + 1 at 3).
    for ell in (2, 3, 5, 7, 29):
        def ints(expr):
            P = sympy.Poly(expr, T, modulus=ell)
            return [int(c) % ell for c in reversed(P.all_coeffs())]

        f, g = ints(shared * f_rest), ints(shared * g_rest)
        ref = sympy.gcd(sympy.Poly(shared * f_rest, T, modulus=ell),
                        sympy.Poly(shared * g_rest, T, modulus=ell))
        expected = [int(c) % ell for c in reversed(ref.all_coeffs())]
        assert expected[-1] == 1
        assert flx_gcd(ell, f, g) == expected, ell
        assert flx_gcd(ell, g, f) == expected, ell
        # the shared factor, reduced mod ell, divides the gcd
        assert flx_mod(ell, expected, ints(shared)) in ([], [0]), ell


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


# ---------------------------------------------------------------------------
# Kraus's tables at 2 and 3
# ---------------------------------------------------------------------------

FIXTURE = Path(__file__).resolve().parent / "data" / "defect_e_fixture.csv"


def test_defect_matches_frozen_fixture():
    # e of the root-count implementation (3-division quartic, resolvent
    # cubic and 2-division cubic over Q_ell^un) on one model per class of
    # valuations and unit parts mod 16 (ell = 2) or mod 27 (ell = 3)
    rows = list(csv.reader(FIXTURE.open()))
    assert len(rows) > 8000
    seen = set()
    for ell, a1, a2, a3, a4, a6, e in rows:
        ell = int(ell)
        prof = defect(W(int(a1), int(a2), int(a3), int(a4), int(a6)), ell)
        assert prof.e == int(e), (ell, a1, a2, a3, a4, a6)
        seen.add((ell, prof.e))
    assert seen == {(2, e) for e in (2, 3, 4, 6, 8, 24)} | {
        (3, e) for e in (2, 3, 4, 6, 12)}


@st.composite
def additive_models(draw, ell):
    """An ell-minimal, additive, potentially good model: a_i scaled by
    random powers of ell, then twisted."""
    a = [ell ** draw(st.integers(0, k)) * draw(st.integers(-10 ** 4, 10 ** 4))
         for k in (2, 3, 3, 5, 7)]
    try:
        m = W(*a)
    except SingularModelError:
        assume(False)
    d = draw(st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6]))
    m = minimal_model_at(m if d == 1 else quadratic_twist(m, d), ell)
    assume(reduction_kind(m, ell) == ReductionKind.ADDITIVE_POT_GOOD)
    return m


@pytest.mark.parametrize("ell, values", [(2, {2, 3, 4, 6, 8, 24}),
                                         (3, {2, 3, 4, 6, 12})])
def test_defect_divides_discriminant_valuation(ell, values):
    # the minimal discriminant becomes a unit over a field of ramification
    # index e: 12 | e v(Delta_min)
    @settings(max_examples=400, deadline=None)
    @given(additive_models(ell))
    def check(m):
        prof = defect(m, ell)
        assert prof.e in values
        assert prof.e * prof.tilde.v_delta % 12 == 0

    check()


@pytest.mark.parametrize("ell, fixed", [(2, {8, 24}), (3, {12})])
def test_defect_invariant_under_twist(ell, fixed):
    # inertia images Q8, SL2(F3) (ell = 2) and C3 x| C4 (ell = 3) contain -1
    # as their unique involution, so no quadratic twist changes e
    @settings(max_examples=200, deadline=None)
    @given(additive_models(ell))
    def check(m):
        e = defect(m, ell).e
        assume(e in fixed)
        for d in _twist_classes(ell):
            assert defect(quadratic_twist(m, d), ell).e == e, d

    check()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=5, max_size=5))
def test_defect_3_at_2_twists_to_6(r):
    # C3 times the ramified character of Q_2(sqrt(-1)) is C6.  Models with
    # 2 | a1, 4 | a2, a4 and v(a3) = 1 have e = 3 about a quarter of the time.
    try:
        m = W(2 * r[0], 4 * r[1], 2 * (2 * r[2] + 1), 4 * r[3], r[4])
    except SingularModelError:
        assume(False)
    assume(reduction_kind(m, 2) == ReductionKind.ADDITIVE_POT_GOOD)
    assume(defect(m, 2).e == 3)
    assert defect(quadratic_twist(m, -1), 2).e == 6
