import math

import pytest
import sympy
from hypothesis import example, given, strategies as st

from artifact.arith import (
    Factorization,
    discriminant,
    factorize,
    is_prime,
    is_square,
    jacobi,
    legendre,
    primes_upto,
    squarefree_part,
    valuation,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    assert is_prime(10 ** 18 + 9)


def test_is_prime_matches_trial_division():
    # crosses the trial-division-only range's end at 43^2 = 1849, with
    # 1681 = 41^2 and 1763 = 41 * 43 below it and 1847 prime
    for n in range(-3, 5000):
        naive = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == naive, n


@pytest.mark.parametrize("n", [0, 1, 2, 400, 1000])
def test_primes_upto_matches_is_prime(n):
    assert list(primes_upto(n)) == [q for q in range(n + 1) if is_prime(q)]


def test_legendre_known():
    # squares mod 7 are {1, 2, 4}
    assert [legendre(a, 7) for a in range(7)] == [0, 1, 1, -1, 1, -1, -1]
    assert legendre(3, 13) == 1          # 4^2 = 3 mod 13
    assert legendre(2, 37) == -1
    assert legendre(-11 % 37, 37) == 1
    assert legendre(-11 % 13, 13) == -1


def test_legendre_rejects_non_prime():
    with pytest.raises(ValueError):
        legendre(3, 15)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_jacobi_matches_legendre():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            assert jacobi(a, p) == legendre(a, p)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(-27, 3) == 3
    assert valuation(1, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_factorize():
    f = factorize(2 ** 5 * 3 ** 2 * 37)
    assert tuple(f.factors) == ((2, 5), (3, 2), (37, 1))
    assert isinstance(f, Factorization)
    # a semiprime beyond the trial-division limit
    n = 1000003 * 1000033
    assert tuple(factorize(n).factors) == ((1000003, 1), (1000033, 1))


def test_is_square():
    assert is_square(0) and is_square(1) and is_square(144)
    assert not is_square(-4) and not is_square(2)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(1) == 1
    assert squarefree_part(121) == 1
    assert squarefree_part(11 * 121) == 11
    with pytest.raises(ValueError):
        squarefree_part(-12)


def _sympy_disc(coeffs):
    x = sympy.Symbol("x")
    return int(sympy.Poly(list(reversed(coeffs)), x).discriminant())


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=4),
       st.integers(-9, 9).filter(bool), st.booleans())
@example([3], 2, False)                 # degree 1
@example([0, 0, 0], 1, False)           # x^3: repeated root 0
@example([-1, 0, 0, 0], 1, False)       # x^4 - 1
def test_discriminant_matches_sympy(lower, lead, zero_constant):
    # sympy is the reference here only; the library does not use it
    coeffs = [0, *lower[1:]] if zero_constant else list(lower)
    coeffs.append(lead)
    assert discriminant(coeffs) == _sympy_disc(coeffs)


@given(st.integers(-20, 20), st.lists(st.integers(-20, 20), min_size=1, max_size=3),
       st.integers(-9, 9).filter(bool))
def test_discriminant_zero_on_repeated_factor(r, cofactor, lead):
    # (x - r)^2 * (lead x^k + ...) with a non-unit leading coefficient
    x = sympy.Symbol("x")
    f = sympy.Poly((x - r) ** 2 * sum(c * x ** i for i, c in
                                      enumerate([*cofactor, lead])), x)
    coeffs = [int(c) for c in reversed(f.all_coeffs())]
    assert discriminant(coeffs) == 0 == _sympy_disc(coeffs)


def test_discriminant_known_values():
    assert discriminant([5, 3]) == 1                    # linear
    assert discriminant([-4, 0, 1]) == 16               # x^2 - 4
    assert discriminant([1, -3, 2]) == 1                # 2x^2 - 3x + 1
    assert discriminant([-2, 0, 0, 1]) == -108          # x^3 - 2
    assert discriminant([1, 1, 0, 1]) == -31            # x^3 + x + 1
    with pytest.raises(ValueError):
        discriminant([7])
