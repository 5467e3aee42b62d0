import pytest
from hypothesis import given, strategies as st

from artifact.padic import (
    PrecisionError,
    Wring,
    count_unramified_roots,
    unramified_roots,
)


@st.composite
def ring_and_elements(draw):
    """A Wring(ell, k, N) for small N and two of its elements."""
    ell, k = draw(st.sampled_from([(2, 12), (3, 12), (5, 1), (7, 1)]))
    R = Wring(ell, k, draw(st.integers(1, 6)))
    coeffs = st.lists(st.integers(0, R.mod - 1), min_size=k, max_size=k)
    return R, tuple(draw(coeffs)), tuple(draw(coeffs))


@given(ring_and_elements(), st.integers(0, 20))
def test_wring_ring_operations(data, n):
    R, a, b = data
    F, res = R.F, R.residue
    # reduction mod ell is a ring homomorphism onto the residue field
    assert res(R.add(a, b)) == F.add(res(a), res(b))
    assert res(R.sub(a, b)) == F.sub(res(a), res(b))
    assert res(R.mul(a, b)) == F.mul(res(a), res(b))
    assert res(R.pow(a, n)) == F.pow(res(a), n)
    if R.k == 1:
        assert R.add(a, b) == ((a[0] + b[0]) % R.mod,)
        assert R.mul(a, b) == ((a[0] * b[0]) % R.mod,)
        assert R.pow(a, n) == (pow(a[0], n, R.mod),)
    if R.val(a) == 0:
        assert R.mul(a, R.inv(a)) == R.one()
    with pytest.raises(ZeroDivisionError):
        R.inv(R.smul(R.ell, a))


def test_square_roots_of_units_always_unramified():
    # x^2 - 2: 2 is a square mod 7, so both roots live in Q_7
    assert count_unramified_roots([-2, 0, 1], 7) == 2
    # 2 is not a square mod 5, but the quadratic unramified extension
    # contains the roots
    assert count_unramified_roots([-2, 0, 1], 5) == 2
    assert count_unramified_roots([1, 0, 1], 3) == 2  # x^2 + 1 over Q_3


def test_ramified_roots_not_counted():
    # x^2 - ell needs a ramified extension
    assert count_unramified_roots([-5, 0, 1], 5) == 0
    assert count_unramified_roots([-3, 0, 1], 3) == 0


def test_cubic():
    # x^3 - 2 over Q_5: roots generate unramified extensions only
    assert count_unramified_roots([-2, 0, 0, 1], 5) == 3
    # over Q_2 the roots need a ramified piece except the one in Q_2^un;
    # x^3 - 2 is Eisenstein at 2: no unramified root at all
    assert count_unramified_roots([-2, 0, 0, 1], 2) == 0


def test_root_values_are_roots():
    R, roots = unramified_roots([-2, 0, 1], 7)
    assert len(roots) == 2
    for r in roots:
        sq = R.mul(r.value, r.value)
        diff = R.sub(sq, R.from_int(2))
        assert R.val(diff) >= min(r.precision, 6)


def test_rejects_non_squarefree():
    with pytest.raises(ValueError):
        unramified_roots([1, 2, 1], 5)  # (x+1)^2


def test_rejects_non_unit_leading():
    with pytest.raises(ValueError):
        unramified_roots([1, 0, 5], 5)
