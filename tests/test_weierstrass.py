from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from artifact.arith import valuation
from artifact.weierstrass import (
    ReductionKind,
    SingularModelError,
    WeierstrassModel,
    conductor,
    conductor_exponent,
    minimal_model_at,
    quadratic_twist,
    reduction_kind,
    tilde_invariants,
)

W = WeierstrassModel

E11 = W(0, -1, 1, -10, -20)
E37 = W(0, 0, 1, -1, 0)
E27 = W(0, 0, 1, 0, -7)
E121 = W(0, -1, 1, -7, 10)


def test_rejects_singular_model():
    with pytest.raises(SingularModelError):
        W(0, 0, 0, 0, 0)
    with pytest.raises(SingularModelError):
        W(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


def test_invariants_11a1():
    assert E11.discriminant() == -(11 ** 5)
    assert E11.c4() == 496
    assert E11.j_invariant() == Fraction(-122023936, 161051)


def test_invariants_37a1():
    assert E37.discriminant() == 37
    assert E37.j_invariant() == Fraction(110592, 37)


def test_transform_roundtrip():
    m = E11.transform(1, 2, 3, 4)
    assert m.discriminant() == E11.discriminant()
    assert m.c4() == E11.c4()
    back = m.transform(1, -2, -3, 3 * 2 - 4)
    assert back.ainvs() == E11.ainvs()


def test_transform_scaling():
    m = W(0, 0, 0, -2 ** 4, 2 ** 6 * 3)  # u=2 blow-up of y^2 = x^3 - x + 3
    small = m.transform(2, 0, 0, 0)
    assert small.ainvs() == (0, 0, 0, -1, 3)
    assert m.discriminant() == 2 ** 12 * small.discriminant()


def test_reduction_kinds():
    assert reduction_kind(E11, 11) == ReductionKind.MULTIPLICATIVE
    assert reduction_kind(E11, 7) == ReductionKind.GOOD
    assert reduction_kind(E27, 3) == ReductionKind.ADDITIVE_POT_GOOD
    # y^2 = x^3 + 2x^2 + 2: additive at 2 with v(j) < 0
    m = W(0, 2, 0, 0, 2)
    assert reduction_kind(m, 2) in (
        ReductionKind.ADDITIVE_POT_GOOD, ReductionKind.ADDITIVE_POT_MULT)


def test_minimal_model_at_strips_u():
    blown = E37.transform(1, 0, 0, 0)
    big = W(*[a * 5 ** i for a, i in zip(blown.ainvs(), (1, 2, 3, 4, 6))])
    mm = minimal_model_at(big, 5)
    assert mm.discriminant() == E37.discriminant()


def test_minimalization_idempotent_fixtures():
    for m in (E11, E37, E27, E121):
        for ell in (2, 3, 5, 11):
            mm = minimal_model_at(m, ell)
            assert minimal_model_at(mm, ell).ainvs() == mm.ainvs()


# Models whose valuations (v(c4), v(c6), v(Delta)) >= (4, 6, 12) allow a
# u = ell reduction that Kraus's conditions forbid, and two that do reduce.
@pytest.mark.parametrize("ai,ell,v_delta", [
    ((0, -5, 0, 664, -9808), 2, 14),        # (4, 6, 14): minimal, pot. mult.
    ((0, -8, 0, 0, -37760), 2, 6),          # (10, 12, 18): one step, u = 2
    ((0, 0, 0, 2592, -136080), 3, 12),      # (5, 8, 12): minimal
    ((0, 0, 0, 324, -1458), 3, 0),          # (5, 9, 12): good after u = 3
])
def test_minimal_model_at_kraus_cases(ai, ell, v_delta):
    m = W(*ai)
    assert all(valuation(c, ell) >= e for c, e in
               ((m.c4(), 4), (m.c6(), 6), (m.discriminant(), 12)))
    mm = minimal_model_at(m, ell)
    u = ell ** ((valuation(m.discriminant(), ell) - v_delta) // 12)
    assert (mm.c4(), mm.c6()) == (m.c4() // u**4, m.c6() // u**6)
    assert valuation(mm.discriminant(), ell) == v_delta


def test_minimal_model_at_kraus_kinds():
    assert reduction_kind(W(0, -5, 0, 664, -9808), 2) == ReductionKind.ADDITIVE_POT_MULT
    assert reduction_kind(W(0, 0, 0, 324, -1458), 3) == ReductionKind.GOOD


def test_minimal_input_returned_unchanged():
    # Laska's models have a1, a3 in {0, 1} and -5 <= b2 <= 6; the shifted
    # 37a1 (a1 = 6) and the b2 = -20 model break that, so a renormalised
    # answer would show here.
    for m in (E11, E37.transform(1, 2, 3, 4), W(0, -5, 0, 664, -9808),
              W(0, 0, 0, 2592, -136080)):
        for ell in (2, 3, 5, 11):
            assert minimal_model_at(m, ell).ainvs() == m.ainvs()


def _reference_reduce_step(m, ell):
    """One u = ell reduction by searching (s, r, t) digit by digit."""
    def v(n):
        return float("inf") if n == 0 else valuation(n, ell)

    if v(m.c4()) < 4 or v(m.c6()) < 6 or v(m.discriminant()) < 12:
        return None
    if ell >= 5:
        mod = ell**6
        s = (-m.a1 * pow(2, -1, mod)) % mod
        r = ((s * s + s * m.a1 - m.a2) * pow(3, -1, mod)) % mod
        t = (-(m.a3 + r * m.a1) * pow(2, -1, mod)) % mod
        return m.transform(ell, r, s, t)
    a1, a2, a3, a4, a6 = m.ainvs()

    def ok(s, r, t, k):
        return not any(f % ell**min(k, e) for f, e in (
            (a1 + 2 * s, 1),
            (a2 - s * a1 + 3 * r - s * s, 2),
            (a3 + r * a1 + 2 * t, 3),
            (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t, 4),
            (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1, 6)))

    level = [(0, 0, 0)]
    for k in range(1, 7):
        step = ell ** (k - 1)
        s_digits = range(ell) if k <= 4 else (0,)
        level = [(s0 + ds * step, r0 + dr * step, t0 + dt * step)
                 for s0, r0, t0 in level for ds in s_digits
                 for dr in range(ell) for dt in range(ell)
                 if ok(s0 + ds * step, r0 + dr * step, t0 + dt * step, k)]
        if not level:
            return None
    s, r, t = level[0]
    return m.transform(ell, r, s, t)


def _reference_minimal_model(m, ell):
    while (reduced := _reference_reduce_step(m, ell)) is not None:
        m = reduced
    return m


def _kind_of_minimal(mm, ell):
    if mm.discriminant() % ell:
        return ReductionKind.GOOD
    if mm.c4() % ell:
        return ReductionKind.MULTIPLICATIVE
    if valuation(mm.j_invariant().denominator, ell) > 0:
        return ReductionKind.ADDITIVE_POT_MULT
    return ReductionKind.ADDITIVE_POT_GOOD


@settings(max_examples=400, deadline=None)
@given(st.tuples(st.integers(-2, 2), st.integers(-3, 3), st.integers(-2, 2),
                 st.integers(-9, 9), st.integers(-12, 12)),
       st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6]),
       st.sampled_from([1, 2, 3]),
       st.sampled_from([2, 3, 5, 7]))
def test_minimal_model_at_matches_digit_search(ai, d, u, ell):
    try:
        m = quadratic_twist(W(*ai), d) if d != 1 else W(*ai)
    except SingularModelError:
        return
    m = W(*[a * u**i for a, i in zip(m.ainvs(), (1, 2, 3, 4, 6))])
    mm, ref = minimal_model_at(m, ell), _reference_minimal_model(m, ell)
    assert (mm.c4(), mm.c6(), mm.discriminant()) == (ref.c4(), ref.c6(), ref.discriminant())
    assert reduction_kind(m, ell) == _kind_of_minimal(ref, ell)


def test_tilde_invariants_27a1():
    t = tilde_invariants(E27, 3)
    assert t.v_delta == 9
    assert t.delta_tilde == -1
    assert t.c6_tilde == 8


def test_quadratic_twist_discriminant():
    tw = quadratic_twist(E37, 5)
    assert tw.j_invariant() == E37.j_invariant()
    d = tw.discriminant() // E37.discriminant()
    # discriminant changes by d^6 up to a 12th power of the scaling
    assert d == 5 ** 6 * 2 ** 12


# conductors: classic curves with well-known conductors, including wild
# ramification at 2 and 3.
CONDUCTORS = [
    ((0, -1, 1, -10, -20), 11),
    ((0, 0, 1, -1, 0), 37),
    ((0, 0, 1, 0, -7), 27),
    ((0, -1, 1, -7, 10), 121),
    ((1, 0, 1, 4, -6), 14),
    ((1, 1, 1, -10, -10), 15),
    ((1, -1, 1, -1, -14), 17),
    ((0, 1, 1, -9, -15), 19),
    ((0, 1, 0, 4, 4), 20),
    ((1, 0, 0, -4, -1), 21),
    ((0, -1, 0, -4, 4), 24),
    ((0, 0, 0, 0, 1), 36),
    ((0, 0, 0, 0, -1), 144),
    ((1, -1, 0, -2, -1), 49),
    ((0, 0, 0, -1, 0), 32),
    ((0, 0, 0, 4, 0), 32),
    ((0, 1, 0, -2, 0), 96),
    ((0, 0, 1, 0, 0), 27),
    ((0, 0, 0, 0, -432), 27),
    ((0, 0, 0, -2, 0), 256),
    ((0, 0, 0, 2, 0), 256),
    ((0, 0, 0, -4, 0), 64),
]


@pytest.mark.parametrize("ai,n", CONDUCTORS)
def test_conductor_fixtures(ai, n):
    assert conductor(W(*ai)) == n


def test_conductor_exponent_by_kind():
    assert conductor_exponent(E11, 7) == 0
    assert conductor_exponent(E11, 11) == 1
    assert conductor_exponent(E121, 11) == 2   # additive, ell >= 5
    assert conductor_exponent(E27, 3) == 3     # wild at 3
    assert conductor_exponent(W(0, 1, 0, -2, 0), 2) == 5  # wild at 2


def test_conductor_invariant_under_blowup():
    big = W(*[a * 2 ** i for a, i in zip(E37.ainvs(), (1, 2, 3, 4, 6))])
    assert conductor(big) == 37
