"""Six ways to the same number.

The k-th elementary symmetric function of the eigenvalues of the min
matrix equals the binomial coefficient C(n+k, n-k). This demo computes
it by all six routes: the closed form, brute-force enumeration of
principal minors (exponential in n), a sum over integer compositions,
two memoized recurrences, and a multiplicative recurrence whose every
division is exact. It then assembles the characteristic polynomial
from the values and checks it against elimination.
"""

import time

from minmatrix import (
    METHODS,
    char_matrix,
    charpoly,
    det_bareiss,
    symfun,
)

n = 8
print(f"Symmetric functions of the eigenvalues of the {n}x{n} min matrix:\n")
header = "  k | " + " | ".join(f"{m:>7}" for m in METHODS)
print(header)
print("  " + "-" * (len(header) - 2))
for k in range(n + 1):
    values = [symfun(n, k, method=m) for m in METHODS]
    print(f"  {k} | " + " | ".join(f"{v:7d}" for v in values))

print("\nHow long does each method take at n=12, k=6?")
for method in METHODS:
    start = time.perf_counter()
    value = symfun(12, 6, method=method)
    elapsed = time.perf_counter() - start
    print(f"   {method:>7}: {value:8d}  ({elapsed * 1000:8.3f} ms)")
print("   (minors sums all C(12,6) = 924 principal 6x6 minors in one walk over the")
print("    index sets, each set's minor one exact update of its parent's block)")

p = charpoly(4)
print(f"\nCharacteristic polynomial of the 4x4 min matrix: coeffs {p.coeffs}")
print("   (lowest degree first; the alternating signs carry the symmetric functions)")
for lam in (-2, -1, 0, 1, 2):
    print(f"   p({lam:2d}) = {p(lam):5d}   det({lam}*I - A) = {det_bareiss(char_matrix(4, lam)):5d}")
