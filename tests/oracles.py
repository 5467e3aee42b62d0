"""Reference implementations that only the tests use."""

import random

from artifact.fq import Fq


def mat_mul(A, B, p: int):
    return (
        ((A[0][0] * B[0][0] + A[0][1] * B[1][0]) % p,
         (A[0][0] * B[0][1] + A[0][1] * B[1][1]) % p),
        ((A[1][0] * B[0][0] + A[1][1] * B[1][0]) % p,
         (A[1][0] * B[0][1] + A[1][1] * B[1][1]) % p),
    )


def mat_order(A, p: int) -> int:
    """Multiplicative order by naive repeated multiplication (oracle)."""
    identity = ((1, 0), (0, 1))
    M = A
    for n in range(1, p * (p * p - 1) + 1):
        if M == identity:
            return n
        M = mat_mul(M, A, p)
    raise ValueError("matrix is not invertible")


# ---------------------------------------------------------------------------
# Polynomials over Fq: dense little-endian coefficient lists.
# ---------------------------------------------------------------------------

def poly_trim(F: Fq, f):
    while len(f) > 1 and F.is_zero(f[-1]):
        f = f[:-1]
    return f


def poly_deg(F: Fq, f) -> int:
    f = poly_trim(F, f)
    if len(f) == 1 and F.is_zero(f[0]):
        return -1
    return len(f) - 1


def poly_add(F: Fq, f, g):
    n = max(len(f), len(g))
    f = list(f) + [F.zero()] * (n - len(f))
    g = list(g) + [F.zero()] * (n - len(g))
    return poly_trim(F, [F.add(a, b) for a, b in zip(f, g)])


def poly_sub(F: Fq, f, g):
    n = max(len(f), len(g))
    f = list(f) + [F.zero()] * (n - len(f))
    g = list(g) + [F.zero()] * (n - len(g))
    return poly_trim(F, [F.sub(a, b) for a, b in zip(f, g)])


def poly_mul(F: Fq, f, g):
    if poly_deg(F, f) < 0 or poly_deg(F, g) < 0:
        return [F.zero()]
    res = [F.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not F.is_zero(a):
            for j, b in enumerate(g):
                res[i + j] = F.add(res[i + j], F.mul(a, b))
    return poly_trim(F, res)


def poly_divmod(F: Fq, f, g):
    f = list(poly_trim(F, f))
    g = poly_trim(F, g)
    dg = poly_deg(F, g)
    if dg < 0:
        raise ZeroDivisionError
    inv_lead = F.inv(g[-1])
    q = [F.zero()] * max(len(f) - dg, 1)
    while poly_deg(F, f) >= dg:
        df = len(f) - 1
        c = F.mul(f[-1], inv_lead)
        q[df - dg] = c
        for j in range(dg + 1):
            f[df - dg + j] = F.sub(f[df - dg + j], F.mul(c, g[j]))
        f = list(poly_trim(F, f))
    return poly_trim(F, q), poly_trim(F, f)


def poly_mod(F: Fq, f, g):
    return poly_divmod(F, f, g)[1]


def poly_gcd(F: Fq, f, g):
    f, g = poly_trim(F, f), poly_trim(F, g)
    while poly_deg(F, g) >= 0:
        f, g = g, poly_mod(F, f, g)
    d = poly_deg(F, f)
    if d >= 0:
        lead_inv = F.inv(f[-1])
        f = [F.mul(c, lead_inv) for c in f]
    return f


def poly_powmod(F: Fq, f, n: int, mod):
    res = [F.one()]
    base = poly_mod(F, f, mod)
    while n:
        if n & 1:
            res = poly_mod(F, poly_mul(F, res, base), mod)
        base = poly_mod(F, poly_mul(F, base, base), mod)
        n >>= 1
    return res


def poly_eval(F: Fq, f, x):
    res = F.zero()
    for c in reversed(poly_trim(F, f)):
        res = F.add(F.mul(res, x), c)
    return res


def _split_all_linear(F: Fq, f, rng: random.Random):
    """Roots of f, assuming f is squarefree and splits into linears over F."""
    d = poly_deg(F, f)
    if d <= 0:
        return []
    if d == 1:
        return [F.neg(F.div(f[0], f[1]))]
    while True:
        if F.ell == 2:
            # trace splitting of y -> c*y: T(z) = z + z^2 + ... + z^(2^(k-1))
            c = F.from_index(1 + rng.randrange(F.q - 1))
            acc = [F.zero()]
            cur = poly_mod(F, [F.zero(), c], f)
            for _ in range(F.k):
                acc = poly_add(F, acc, cur)
                cur = poly_mod(F, poly_mul(F, cur, cur), f)
            g = poly_gcd(F, acc, f)
        else:
            delta = F.from_index(rng.randrange(F.q))
            h = poly_powmod(F, [delta, F.one()], (F.q - 1) // 2, f)
            g = poly_gcd(F, poly_sub(F, h, [F.one()]), f)
        dg = poly_deg(F, g)
        if 0 < dg < d:
            other, _ = poly_divmod(F, f, g)
            return _split_all_linear(F, g, rng) + _split_all_linear(F, other, rng)


def poly_roots(F: Fq, f) -> list:
    """Distinct roots of f in F (no multiplicities)."""
    f = poly_trim(F, f)
    if poly_deg(F, f) < 1:
        return []
    xq = poly_powmod(F, [F.zero(), F.one()], F.q, f)
    g = poly_gcd(F, poly_sub(F, xq, [F.zero(), F.one()]), f)
    rng = random.Random(0xC0FFEE ^ F.q ^ poly_deg(F, f))
    return sorted(_split_all_linear(F, g, rng))


def poly_root_multiplicity(F: Fq, f, r) -> int:
    m = 0
    f = poly_trim(F, f)
    while poly_deg(F, f) >= 1 and F.is_zero(poly_eval(F, f, r)):
        f, _ = poly_divmod(F, f, [F.neg(r), F.one()])
        m += 1
    return m
