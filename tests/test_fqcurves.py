import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from artifact.fq import Fq, poly_roots
from artifact.fqcurves import (
    ANTI_SYMPLECTIC_ONLY,
    BOTH,
    NOT_ISOMORPHIC,
    SYMPLECTIC_ONLY,
    CurveOverFq,
    count_points,
    det_class_conjugacy,
    division_polynomial,
    frob_disc,
    frobenius_module,
    mat_order,
    multiplicative_lift_possible,
    residual_module_search,
    torsion_field_degree,
    trace_of_frobenius,
    weil_pairing,
)
from artifact.fqcurves import SingularCurveError, _division_cache


def test_count_fixture_f4():
    # y^2 + y = x^3 over F_4 has 9 points -> a = q + 1 - N = -4
    F4 = Fq(2, 2)
    C = CurveOverFq(F4, 0, 0, 1, 0, 0)
    assert count_points(C) == 9
    assert trace_of_frobenius(C) == -4
    assert frob_disc(-4, 2, 2) == 0


def test_count_fixture_f9():
    # y^2 = x^3 - x over F_9 has 16 points -> a = -6
    F9 = Fq(3, 2)
    C = CurveOverFq(F9, 0, 0, 0, -1 % 3, 0)
    assert count_points(C) == 16
    assert trace_of_frobenius(C) == -6
    assert frob_disc(-6, 3, 2) == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]),
       st.tuples(*[st.integers(-40, 40)] * 5))
@example(2, (1, 0, 0, 0, 1))  # the a1*x term decides y^2 + b y = rhs
@example(2, (1, 1, 1, 1, 0))
def test_prime_field_count_matches_brute_force(ell, ai):
    try:
        C = CurveOverFq(Fq(ell, 1), *ai)
    except SingularCurveError:
        assume(False)
    a1, a2, a3, a4, a6 = ai
    affine = sum(1 for x, y in itertools.product(range(ell), repeat=2)
                 if (y * y + a1 * x * y + a3 * y
                     - x**3 - a2 * x * x - a4 * x - a6) % ell == 0)
    assert count_points(C) == affine + 1


def test_trace_example_5_6():
    # y^2 = x^3 + x^2 + 2 over F_3: a = 1, Delta_ell = -11
    F3 = Fq(3, 1)
    C = CurveOverFq(F3, 0, 1, 0, 0, 2)
    a = trace_of_frobenius(C)
    assert a == 1
    assert a * a - 4 * 3 == -11


def test_frobenius_module_orders():
    F3 = Fq(3, 1)
    C = CurveOverFq(F3, 0, 1, 0, 0, 2)
    M = frobenius_module(C, 11)
    assert mat_order(M.matrix, 11) == 110
    F11 = Fq(11, 1)
    C2 = CurveOverFq(F11, 0, 0, 0, 1, 9)
    M2 = frobenius_module(C2, 7)
    assert mat_order(M2.matrix, 7) == 21


def test_multiplicative_lift_possible():
    # lift exists iff a = +-(ell + 1) mod p
    assert multiplicative_lift_possible(4, 3, 7)       # 4 = 3+1
    assert multiplicative_lift_possible(-4 % 7, 3, 7)
    assert not multiplicative_lift_possible(1, 3, 11)


def test_residual_search_example_5_6():
    F3 = Fq(3, 1)
    C = CurveOverFq(F3, 0, 1, 0, 0, 2)
    results = residual_module_search(C, 11)
    assert all(v not in (ANTI_SYMPLECTIC_ONLY, BOTH) for _, v in results)


def test_residual_search_example_5_7():
    F11 = Fq(11, 1)
    C = CurveOverFq(F11, 0, 0, 0, 1, 9)
    hits = [(c, v) for c, v in residual_module_search(C, 7)
            if v in (ANTI_SYMPLECTIC_ONLY, BOTH)]
    assert hits
    assert any(tuple(c.ai_ints) == (0, 0, 0, 1, 7) for c, _ in hits)


def test_torsion_field_degree_is_matrix_order():
    F = Fq(5, 1)
    C = CurveOverFq(F, 0, 0, 0, 1, 1)
    for p in (3, 7, 11):
        M = frobenius_module(C, p)
        assert torsion_field_degree(C, p) == mat_order(M.matrix, p)


def _torsion_points(ell, k, ai, p):
    """All nonzero p-torsion points of the curve over F_{ell^k}."""
    F = Fq(ell, k)
    C = CurveOverFq(F, *ai)
    poly = division_polynomial(C, p)
    coeffs = poly if isinstance(poly, list) else list(poly)
    from artifact.fqcurves import _solve_y  # test-only use of the helper

    if isinstance(coeffs[0], int):
        coeffs = [F.from_int(c) for c in coeffs]
    pts = []
    for x in poly_roots(F, coeffs):
        for y in _solve_y(C, x):
            pts.append((x, y))
    return C, pts


def test_weil_pairing_basic_identities():
    # E: y^2 = x^3 + 2 over F_7, p = 3; full 3-torsion over F_7^2
    ell, p = 7, 3
    base = CurveOverFq(Fq(ell, 1), 0, 0, 0, 0, 2)
    k = torsion_field_degree(base, p)
    C, pts = _torsion_points(ell, k, (0, 0, 0, 0, 2), p)
    assert len(pts) == p * p - 1
    F = C.F
    # find a basis
    P = pts[0]
    Q = next(pt for pt in pts if F.is_zero(weil_pairing(C, P, pt, p))
             is False and weil_pairing(C, P, pt, p) != F.one())
    z = weil_pairing(C, P, Q, p)
    assert z != F.one()
    # z has order p
    zp = F.one()
    for _ in range(p):
        zp = F.mul(zp, z)
    assert zp == F.one()
    # alternating
    assert weil_pairing(C, P, P, p) == F.one()
    # antisymmetry: e(Q, P) = e(P, Q)^{-1}
    assert F.mul(weil_pairing(C, Q, P, p), z) == F.one()
    # bilinearity: e(2P, Q) = e(P, Q)^2
    twoP = C.smul(2, P)
    assert weil_pairing(C, twoP, Q, p) == F.mul(z, z)


def test_det_class_conjugacy_basics():
    p = 7
    M = ((1, 1), (0, 1))
    assert det_class_conjugacy(M, M, p) in (SYMPLECTIC_ONLY, BOTH)
    # different orders can never be conjugate
    A = ((1, 0), (0, 1))
    B = ((2, 0), (0, 2))
    assert det_class_conjugacy(A, B, p) == NOT_ISOMORPHIC


def test_mat_order():
    p = 13
    assert mat_order(((1, 0), (0, 1)), p) == 1
    assert mat_order(((1, 1), (0, 1)), p) == 13
    assert mat_order(((2, 0), (0, 2)), p) == 12


def test_division_polynomials_reduced_mod_ell():
    # the leading constants 4 (of B), 3 (of f_3) and 2 (of f_4) vanish
    # in characteristic 2 and 3 and must not be stored unreduced
    C = CurveOverFq(Fq(2, 1), 1, 0, 1, 0, 1)
    assert division_polynomial(C, 3) == [1, 1, 1, 1, 1]
    assert _division_cache(C)[0] == [1, 0, 1]
    for ell in (2, 3):
        checked = 0
        for ai in itertools.product(range(ell), repeat=5):
            try:
                C = CurveOverFq(Fq(ell, 1), *ai)
            except SingularCurveError:
                continue
            for n in range(1, 9):
                assert all(0 <= c < ell for c in division_polynomial(C, n))
            checked += 1
        assert checked > 0
