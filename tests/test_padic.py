import pytest
from hypothesis import given, strategies as st

from artifact.padic import with_unramified_roots


def _roots(coeffs, ell):
    return with_unramified_roots(coeffs, ell, lambda roots: roots)


def _count(coeffs, ell):
    return len(_roots(coeffs, ell))


def test_square_roots():
    # x^2 - 2: 2 is a square mod 7 but not mod 5
    assert _count([-2, 0, 1], 7) == 2
    assert _count([-2, 0, 1], 5) == 0
    # x^2 + 1: -1 is a square in Q_5, not in Q_3
    assert _count([1, 0, 1], 5) == 2
    assert _count([1, 0, 1], 3) == 0


def test_square_roots_at_two_need_digit_lifting():
    # mod 2 both are (x - 1)^2; 17 = 1 mod 8 is a square in Q_2, 5 is not
    assert _count([-17, 0, 1], 2) == 2
    assert _count([-5, 0, 1], 2) == 0


def test_ramified_roots_not_counted():
    # x^2 - ell needs a ramified extension
    assert _count([-5, 0, 1], 5) == 0
    assert _count([-3, 0, 1], 3) == 0


def test_cubic():
    # cubing permutes F_5^*, so x^3 - 2 has one root in Q_5
    assert _count([-2, 0, 0, 1], 5) == 1
    # 2 is not a cube mod 7; x^3 - 2 is Eisenstein at 2
    assert _count([-2, 0, 0, 1], 7) == 0
    assert _count([-2, 0, 0, 1], 2) == 0


def test_root_values_are_roots():
    roots = _roots([-2, 0, 1], 7)
    assert len(roots) == 2
    for r in roots:
        assert (r.value * r.value - 2) % 7 ** r.precision == 0


@given(st.sampled_from([2, 3, 5, 7]),
       st.lists(st.integers(-500, 500), min_size=1, max_size=4, unique=True))
def test_split_polynomials(ell, rs):
    # prod (x - r): every root lies in Z and is found, also when several
    # roots agree mod ell; the r differ mod ell^10
    f = [1]
    for r in rs:
        f = [a - r * b for a, b in zip([0] + f, f + [0])]
    found = _roots(f, ell)
    assert len(found) == len(rs)
    for r in rs:
        assert sum((root.value - r) % ell ** 10 == 0 for root in found) == 1


def test_rejects_non_squarefree():
    with pytest.raises(ValueError):
        _roots([1, 2, 1], 5)  # (x+1)^2


def test_rejects_non_unit_leading():
    with pytest.raises(ValueError):
        _roots([1, 0, 5], 5)


def _product(rs):
    f = [1]
    for r in rs:
        f = [a - r * b for a, b in zip([0] + f, f + [0])]
    return f


def _matches_a_true_root(root, rs, ell):
    return any((root.value - r) % ell ** root.precision == 0 for r in rs)


def test_precision_counts_stripped_digits():
    # x^3 - 4x at 2: below the double residue root 0 the content strips
    # lose 3 and then 2 digits, so the roots 2 and -2 are known to 33 of
    # the 36 working digits, not to 34
    roots = _roots([0, -4, 0, 1], 2)
    assert len(roots) == 3
    for root in roots:
        assert _matches_a_true_root(root, (0, 2, -2), 2), root
        assert 0 <= root.value < 2 ** root.precision
    assert sorted(root.precision for root in roots) == [33, 33, 34]


@given(st.sampled_from([2, 3, 5]), st.integers(-50, 50), st.integers(1, 12),
       st.lists(st.integers(-20, 20), min_size=2, max_size=4, unique=True))
def test_close_roots_match_to_their_precision(ell, base, k, offsets):
    # roots r_i = base + ell^k t_i agree to k digits or more; every
    # returned root must agree with a true root to the digits it claims
    rs = [base + ell ** k * t for t in offsets]
    found = _roots(_product(rs), ell)
    assert len(found) == len(rs)
    for root in found:
        assert _matches_a_true_root(root, rs, ell), (root, rs)
