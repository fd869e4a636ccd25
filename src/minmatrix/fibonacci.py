"""Fibonacci numbers and the binomial identity tying them to the
symmetric functions of the min matrix's eigenvalues."""

from .symmetric import symfun_closed


def fib(i):
    """The i-th Fibonacci number under the F_1 = F_2 = 1 convention."""
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    a, b = 1, 1
    for _ in range(i - 1):
        a, b = b, a + b
    return a


def fibonacci_identity(n):
    """Check sum_{k=0}^n C(n+k, n-k) = F_{2n+1} (Gould's identity) in its
    direct form, with S_0 as computed, not taken as C(n, n) = 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum(symfun_closed(n, k) for k in range(n + 1)) == fib(2 * n + 1)
