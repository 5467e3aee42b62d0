import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from artifact import fqcurves
from artifact.arith import legendre
from artifact.fq import Fq, QuadExt, flx_mod, flx_monic, flx_powmod
from artifact.fqcurves import (
    ANTI_SYMPLECTIC_ONLY,
    BOTH,
    NOT_ISOMORPHIC,
    SYMPLECTIC_ONLY,
    CurveOverFq,
    count_points,
    curve_classes,
    det_class_conjugacy,
    division_polynomial,
    frob_disc,
    frobenius_module,
    multiplicative_lift_possible,
    residual_module_search,
    torsion_field_degree,
    trace_of_frobenius,
    weil_pairing,
)
from artifact.fqcurves import (
    SingularCurveError,
    _count_bsgs,
    _count_naive,
    _count_prime,
    _division_cache,
    _nonkernel_factor,
    _point_frob,
    _solve_y,
    _weil,
    _zeta_class_polys,
)
from oracles import mat_order, poly_eval, poly_roots


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


def test_torsion_field_degree_is_matrix_order(monkeypatch):
    # the class of u does not change the order p*ord(lam) of a unipotent
    # matrix, so the pairing that decides it is skipped
    monkeypatch.setattr(fqcurves, "_unipotent_u_class", lambda C, p, lam: 1)
    kinds = set()
    for ell in (5, 7, 11, 13, 17):
        for ai in curve_classes(ell)[:6]:
            C = CurveOverFq(Fq(ell, 1), *ai)
            a = trace_of_frobenius(C)
            for p in (3, 5, 7, 11, 13):
                if p == ell:
                    continue
                M = frobenius_module(C, p)
                assert torsion_field_degree(C, p) == mat_order(M.matrix, p), (ai, ell, p)
                disc = (a * a - 4 * ell) % p
                kinds.add(legendre(disc, p) if disc else 0)
    # chi = x^2 - a x + ell: split, irreducible and with a double root
    assert kinds == {1, -1, 0}


def _curves(F, count, rng):
    """count nonsingular curves over F with a_i drawn from rng (ints on a
    prime field, so that ``_count_prime`` can read them)."""
    out = []
    while len(out) < count:
        ai = [rng.randrange(F.q) for _ in range(5)]
        try:
            out.append(CurveOverFq(F, *(ai if F.k == 1 else map(F.from_index, ai))))
        except SingularCurveError:
            pass
    return out


def test_bsgs_count_matches_prime_field_count(monkeypatch):
    twists = []
    monkeypatch.setattr(fqcurves, "_quadratic_twist_curve",
                        lambda C, orig=fqcurves._quadratic_twist_curve:
                        twists.append(C) or orig(C))
    rng = random.Random(1)
    curves = [C for ell in (101, 1009, 10007) for C in _curves(Fq(ell, 1), 60, rng)]
    curves += [CurveOverFq(Fq(ell, 1), *ai) for ell in (1019, 10007)
               for ai in ((0, 0, 0, 1, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, 1))]
    for C in curves:
        assert _count_bsgs(C) == _count_prime(C.F.ell, *C.ai_ints), C.ai_ints
    # some group's exponent leaves several candidates in the Hasse interval
    assert twists


def test_bsgs_count_matches_enumeration_char_2():
    # random points come from the closed-form y^2 + b y = rhs over F_{2^k}
    rng = random.Random(2)
    for k in (4, 5, 6, 7, 8, 9):
        for C in _curves(Fq(2, k), 2, rng):
            assert _count_bsgs(C) == _count_naive(C), (k, C.a1, C.a2, C.a3, C.a4, C.a6)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(2, k) for k in range(1, 9)]
                       + [(3, 1), (3, 4), (5, 3), (7, 1), (11, 2), (101, 1)]),
       st.data())
def test_solve_y_matches_root_oracle(field, data):
    F = Fq(*field)
    elem = st.integers(0, F.q - 1).map(F.from_index)
    try:
        C = CurveOverFq(F, *[data.draw(elem) for _ in range(5)])
    except SingularCurveError:
        assume(False)
    x = data.draw(elem)
    b = F.add(F.mul(C.a1, x), C.a3)
    rhs = F.add(F.add(F.mul(x, F.mul(x, x)), F.mul(C.a2, F.mul(x, x))),
                F.add(F.mul(C.a4, x), C.a6))
    assert sorted(_solve_y(C, x)) == poly_roots(F, [F.neg(rhs), b, F.one()])


def _torsion_points(ell, k, ai, p):
    """All nonzero p-torsion points of the curve over F_{ell^k}."""
    F = Fq(ell, k)
    C = CurveOverFq(F, *ai)
    poly = division_polynomial(C, p)
    coeffs = poly if isinstance(poly, list) else list(poly)
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


# ---------------------------------------------------------------------------
# Weil pairing against a reference: the four-Miller-loop form with an
# offset point S, e_p(P, Q) = f_P(Q + S) f_Q(-S) / (f_P(S) f_Q(P - S)).
# ---------------------------------------------------------------------------

class _BadOffset(Exception):
    """A Miller function of the reference vanished at its argument."""


def _reference_line_value(C, V, W, X):
    """(numerator, denominator) of the line through V and W (tangent if
    V = W) divided by the vertical at V + W, evaluated at X."""
    F = C.F
    xX, yX = X
    xV, yV = V
    if V != W and V[0] == W[0]:
        return F.sub(xX, xV), F.one()
    if V == W:
        den = F.add(F.smul(2, yV), F.add(F.mul(C.a1, xV), C.a3))
        if F.is_zero(den):
            return F.sub(xX, xV), F.one()
        num = F.sub(
            F.add(F.smul(3, F.mul(xV, xV)),
                  F.add(F.smul(2, F.mul(C.a2, xV)), C.a4)),
            F.mul(C.a1, yV),
        )
    else:
        num = F.sub(W[1], yV)
        den = F.sub(W[0], xV)
    lam = F.div(num, den)
    lval = F.sub(F.sub(yX, yV), F.mul(lam, F.sub(xX, xV)))
    return lval, F.sub(xX, C.add(V, W)[0])


def _reference_miller(C, P, X, n):
    """(num, den) with num/den = f_{n,P}(X), f_{n,P} of divisor
    n(P) - n(O); raises _BadOffset where it vanishes or has a pole."""
    F = C.F
    num = den = F.one()
    V = P
    for bit in bin(n)[3:]:
        ln, ld = _reference_line_value(C, V, V, X)
        V = C.add(V, V)
        num = F.mul(F.mul(num, num), ln)
        den = F.mul(F.mul(den, den), ld)
        if bit == "1":
            if V is None:
                raise _BadOffset
            ln, ld = _reference_line_value(C, V, P, X)
            V = C.add(V, P)
            num = F.mul(num, ln)
            den = F.mul(den, ld)
    if F.is_zero(num) or F.is_zero(den):
        raise _BadOffset
    return num, den


def _reference_weil(C, P, Q, p):
    """e_p(P, Q) from four Miller loops against the first offset point S
    (searching x = 0, 1, 2, ...) at which none of them vanishes."""
    F = C.F
    if P is None or Q is None or P == Q or P == C.neg(Q):
        return F.one()
    forbidden = {None, P, C.neg(Q), C.add(P, C.neg(Q))}
    for idx in range(8 * F.ell + 16):
        x = F.from_index(idx % F.q)
        for S in [(x, y) for y in _solve_y(C, x)]:
            if S in forbidden:
                continue
            try:
                n1, d1 = _reference_miller(C, P, C.add(Q, S), p)
                n2, d2 = _reference_miller(C, P, S, p)
                n3, d3 = _reference_miller(C, Q, C.add(P, C.neg(S)), p)
                n4, d4 = _reference_miller(C, Q, C.neg(S), p)
            except (_BadOffset, ZeroDivisionError):
                continue
            den = F.mul(F.mul(d1, n2), F.mul(d4, n3))
            if not F.is_zero(den):
                return F.div(F.mul(F.mul(n1, d2), F.mul(n4, d3)), den)
    raise AssertionError("no valid pairing offset found")


# (ell, p, a-invariants): full p-torsion over F_{ell^k}, k <= 12, in
# characteristics 2 and 3, supersingular and ordinary, short and general
# models.
PAIRING_CURVES = [
    (2, 3, (0, 0, 1, 0, 0)),
    (2, 3, (1, 0, 0, 0, 1)),
    (2, 5, (0, 0, 1, 1, 0)),
    (2, 7, (0, 0, 1, 0, 0)),
    (3, 5, (0, 1, 0, 0, 2)),
    (3, 7, (0, 0, 0, 1, 0)),
    (5, 3, (0, 0, 0, 0, 1)),
    (7, 3, (0, 0, 0, 0, 2)),
    (13, 3, (1, 0, 1, 4, 7)),
    (11, 5, (0, 0, 0, 1, 3)),
    (19, 5, (0, 18, 1, 9, 18)),
    (13, 7, (0, 0, 0, 0, 4)),
    (43, 7, (0, 0, 0, 0, 3)),
]


@lru_cache(maxsize=None)
def _pairing_basis(idx):
    """(C, P, Q): the curve over its p-torsion field and a basis of E[p]."""
    ell, p, ai = PAIRING_CURVES[idx]
    k = torsion_field_degree(CurveOverFq(Fq(ell, 1), *ai), p)
    C, pts = _torsion_points(ell, k, ai, p)
    assert len(pts) == p * p - 1
    P = pts[0]
    line = {C.smul(j, P) for j in range(p)}
    return C, P, next(pt for pt in pts if pt not in line)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(PAIRING_CURVES) - 1), st.integers(0, 10),
       st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
       st.sampled_from(["free", "equal", "negated", "multiple"]))
@example(0, 0, 0, 1, 1, "free")  # P = O
@example(3, 1, 0, 0, 0, "free")  # Q = O
@example(4, 2, 3, 0, 0, "equal")
@example(5, 1, 1, 0, 0, "negated")
@example(6, 1, 2, 3, 0, "multiple")
@example(8, 1, 0, 0, 1, "free")
def test_weil_pairing_matches_offset_reference(idx, a, b, c, d, relation):
    C, P, Q = _pairing_basis(idx)
    p = PAIRING_CURVES[idx][1]
    X = C.add(C.smul(a, P), C.smul(b, Q))
    Y = {"free": C.add(C.smul(c, P), C.smul(d, Q)), "equal": X,
         "negated": C.neg(X), "multiple": C.smul(c, X)}[relation]
    assert weil_pairing(C, X, Y, p) == _reference_weil(C, X, Y, p)


def test_weil_pairing_rejects_points_outside_torsion():
    # E(F_7) = E[3] for y^2 = x^3 + 2, so no point but O is 5-torsion
    C = CurveOverFq(Fq(7, 1), 0, 0, 0, 0, 2)
    x = C.F.from_int(3)
    P = (x, _solve_y(C, x)[0])
    assert C.smul(3, P) is None and C.smul(5, P) is not None
    with pytest.raises(ValueError):
        weil_pairing(C, P, None, 5)
    with pytest.raises(ValueError):
        weil_pairing(C, None, P, 5)


# ---------------------------------------------------------------------------
# The Frobenius module's double-eigenvalue path: the scalar test by the
# trace, and the torsion point's y in a quadratic ring.
# ---------------------------------------------------------------------------

def _primes_below(n):
    return [q for q in range(2, n) if all(q % d for d in range(2, q))]


def _double_eigenvalue_cases(ells, ps=(3, 5, 7)):
    """(C, p, a, lam) for every class of ``curve_classes(ell)`` and every
    p != ell with p | a^2 - 4 ell, a the trace and lam = a/2 mod p."""
    for ell in ells:
        for ai in curve_classes(ell):
            C = CurveOverFq(Fq(ell, 1), *ai)
            a = trace_of_frobenius(C)
            for p in ps:
                if p != ell and (a * a - 4 * ell) % p == 0:
                    yield C, p, a, a * pow(2, -1, p) % p


def _scalar_by_psi(C, p, lam):
    """The psi_p test alone: every p-torsion x-coordinate is rational over
    F_{ell^s}, s = ord(lam), with no shortcut from the trace."""
    ell = C.F.ell
    s = next(s for s in range(1, p) if pow(lam, s, p) == 1)
    psi = flx_monic(ell, division_polynomial(C, p))
    return flx_powmod(ell, [0, 1], ell**s, psi) == flx_mod(ell, [0, 1], psi), s


def test_scalar_frobenius_needs_p_squared_in_discriminant(monkeypatch):
    # pi - lam = p*beta with beta in End E when Frobenius is scalar mod p,
    # so p^2 | a^2 - 4 ell; the psi_p test must agree on every class
    monkeypatch.setattr(fqcurves, "_unipotent_u_class", lambda C, p, lam: 1)
    cases = scalars = 0
    for C, p, a, lam in _double_eigenvalue_cases(_primes_below(60)):
        scalar, s = _scalar_by_psi(C, p, lam)
        cases += 1
        scalars += scalar
        assert not scalar or (a * a - 4 * C.F.ell) % (p * p) == 0
        M = frobenius_module(C, p).matrix
        assert (M == ((lam, 0), (0, lam))) == scalar
        assert torsion_field_degree(C, p) == (s if scalar else p * s)
    assert cases > 500 and scalars > 0


def _field_embed(small, a, big):
    """Image of a in big under the embedding that sends the generator of
    small to the least root of small's modulus in big."""
    root = poly_roots(big, [big.from_int(c) for c in small.modulus])[0]
    res, power = big.zero(), big.one()
    for c in a:
        res = big.add(res, big.smul(c, power))
        power = big.mul(power, root)
    return res


def _reference_u_class(C, p, lam):
    """(class of u, case): the torsion point's y by a square root in K when
    there is one ("split"), else in K(sqrt(disc)) for odd ell or in
    F_{2^{2D}} through a field embedding for ell = 2 ("non-split")."""
    ell = C.F.ell
    factor, D = _nonkernel_factor(C, p, lam)
    K = Fq(ell, D, modulus=tuple(factor))
    x0 = K.gen()
    CK = C.base_change(K)
    yroots = _solve_y(CK, x0)
    if yroots:
        L, P, case = K, (x0, yroots[0]), "split"
    elif ell != 2:
        b = K.add(K.mul(CK.a1, x0), CK.a3)
        rhs = K.add(
            K.add(K.mul(x0, K.mul(x0, x0)), K.mul(CK.a2, K.mul(x0, x0))),
            K.add(K.mul(CK.a4, x0), CK.a6),
        )
        L = QuadExt(K, K.zero(), K.add(K.mul(b, b), K.smul(4, rhs)))
        yL = L.smul(pow(2, -1, ell), L.sub(L.gen(), L.from_base(b)))
        P, case = (L.from_base(x0), yL), "non-split"
    else:
        L = Fq(ell, 2 * D)
        xL = _field_embed(K, x0, L)
        P, case = (xL, _solve_y(C.base_change(L), xL)[0]), "non-split"
    CL = C.base_change(L)
    R = CL.add(_point_frob(L, P, ell), CL.neg(CL.smul(lam, P)))
    z0 = _weil(CL, P, R, p)
    sq_poly, nonsq_poly = _zeta_class_polys(ell, p)
    for cls, ints in ((1, sq_poly), (-1, nonsq_poly)):
        if L.is_zero(poly_eval(L, [L.from_int(c) for c in ints], z0)):
            return cls, case
    raise AssertionError("pairing value is not a primitive p-th root")


def test_unipotent_class_matches_square_root_reference():
    seen = set()
    for C, p, a, lam in _double_eigenvalue_cases((2, 3, 5, 7, 11, 13)):
        M = frobenius_module(C, p).matrix
        if M == ((lam, 0), (0, lam)):
            continue
        cls, case = _reference_u_class(C, p, lam)
        assert legendre(M[0][1], p) == cls, (C, p)
        seen.add((C.F.ell == 2, case))
    assert seen == {(odd_or_two, case) for odd_or_two in (False, True)
                    for case in ("split", "non-split")}


def _quad_ring(split):
    """Y^2 + bY - c over F_{5^3} with b != 0: (Y - r1)(Y - r2) when split,
    else with the first c making b^2 + 4c a non-square."""
    K = Fq(5, 3)
    b = K.gen()
    if split:
        r1, r2 = K.from_index(7), K.from_index(31)
        return QuadExt(K, K.neg(K.add(r1, r2)), K.neg(K.mul(r1, r2)))
    c = next(c for c in K.elements()
             if not K.is_square(K.add(K.mul(b, b), K.smul(4, c))))
    return QuadExt(K, b, c)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.integers(0, 124), st.integers(0, 124))
def test_quad_ring_inverse(split, iu, iv):
    L = _quad_ring(split)
    K = L.base
    x = (K.from_index(iu), K.from_index(iv))
    u, v = x
    norm = K.sub(K.mul(u, K.sub(u, K.mul(v, L.b))), K.mul(K.mul(v, v), L.c))
    if K.is_zero(norm):
        with pytest.raises(ZeroDivisionError):
            L.inv(x)
        return
    assert L.mul(x, L.inv(x)) == L.one()
    # Y^2 = c - bY
    assert L.mul(L.gen(), L.gen()) == (L.c, K.neg(L.b))
