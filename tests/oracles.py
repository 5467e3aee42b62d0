"""Reference implementations that only the tests use."""


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
