"""The prime-field polynomial layer of ``fq``: the int-list ``flx_*``
functions against the generic ``poly_*`` reference over Fq(ell, 1), the
irreducibility test against brute force, and the pinned field moduli."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from artifact.fq import (
    Fq,
    _poly_is_irreducible,
    conway_like_modulus,
    flx_add,
    flx_divmod,
    flx_gcd,
    flx_mul,
    flx_powmod,
    flx_sub,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_powmod,
    poly_sub,
)
from artifact.fqcurves import CurveOverFq, frobenius_module, torsion_field_degree

ELLS = (2, 3, 5, 7, 13, 47, 101)


@st.composite
def ell_and_polys(draw, max_len=40):
    """A prime ell and two int-list polynomials over F_ell whose lengths
    straddle the schoolbook/Kronecker switch of flx_mul at length 16."""
    ell = draw(st.sampled_from(ELLS))
    coeffs = st.integers(0, ell - 1)
    f = draw(st.lists(coeffs, min_size=1, max_size=max_len))
    g = draw(st.lists(coeffs, min_size=1, max_size=max_len))
    return ell, f, g


def _to_F(F, f):
    return [F.from_int(c) for c in f]


def _from_F(f):
    return [c[0] for c in f]


@settings(max_examples=300, deadline=None)
@given(ell_and_polys())
@example((101, [100] * 16, [100] * 16))     # both at the switch
@example((101, [100] * 15, [100] * 30))     # one side below it
@example((2, [1] * 20, [1, 0, 1] * 9))      # Kronecker over F_2
def test_flx_ring_ops_match_generic(case):
    ell, f, g = case
    F = Fq(ell, 1)
    fF, gF = _to_F(F, f), _to_F(F, g)
    assert flx_mul(ell, f, g) == _from_F(poly_mul(F, fF, gF))
    assert flx_add(ell, f, g) == _from_F(poly_add(F, fF, gF))
    assert flx_sub(ell, f, g) == _from_F(poly_sub(F, fF, gF))
    assert flx_gcd(ell, f, g) == _from_F(poly_gcd(F, fF, gF))
    if any(g):
        q, r = flx_divmod(ell, f, g)
        qF, rF = poly_divmod(F, fF, gF)
        assert (q, r) == (_from_F(qF), _from_F(rF))


@settings(max_examples=200, deadline=None)
@given(ell_and_polys(max_len=12), st.integers(0, 10**4))
def test_flx_powmod_matches_generic(case, n):
    ell, f, m = case
    if not any(m):
        m = [1] + m
    F = Fq(ell, 1)
    expect = _from_F(poly_powmod(F, _to_F(F, f), n, _to_F(F, m)))
    assert flx_powmod(ell, f, n, m) == expect


def _monics(ell, d):
    for low in itertools.product(range(ell), repeat=d):
        yield list(low) + [1]


def _convolve(ell, g, h):
    out = [0] * (len(g) + len(h) - 1)
    for i, a in enumerate(g):
        for j, b in enumerate(h):
            out[i + j] = (out[i + j] + a * b) % ell
    return tuple(out)


@pytest.mark.parametrize("ell,k", [
    (ell, k) for ell in (2, 3, 5, 7, 11, 13) for k in range(1, 9)
    if ell ** k <= 256])
def test_irreducible_matches_brute_force(ell, k):
    # reducible = has a monic factor of degree d <= k/2
    reducible = {_convolve(ell, g, h)
                 for d in range(1, k // 2 + 1)
                 for g in _monics(ell, d) for h in _monics(ell, k - d)}
    for f in _monics(ell, k):
        assert _poly_is_irreducible(tuple(f), ell) == (tuple(f) not in reducible)


@pytest.mark.parametrize("ell,k,modulus", [
    (2, 12, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (3, 12, (2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (2, 14, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (47, 10, (17, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (7, 2, (1, 0, 1)),
])
def test_conway_like_modulus_pinned(ell, k, modulus):
    # the moduli fix every element encoding, hence witnesses and digests
    assert conway_like_modulus(ell, k) == modulus


def test_frobenius_module_needs_prime_field():
    C = CurveOverFq(Fq(3, 2), 0, 0, 0, 2, 0)
    with pytest.raises(ValueError):
        frobenius_module(C, 5)
    with pytest.raises(ValueError):
        torsion_field_degree(C, 5)
