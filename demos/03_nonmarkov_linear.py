#!/usr/bin/env python3
"""A non-Markov linear map whose exponent is known in closed form.

T(x) = 17x/5 mod 1 has breakpoints at multiples of 5/17, so no uniform
partition aligns with them and the invariant density is a genuine staircase.
Because |T'| is constant, the Lyapunov exponent equals ln(17/5) for any
invariant measure, which turns this run into an end-to-end correctness
check: the certified interval must contain ln(17/5) at every k.
"""

import math

from rigdens import (
    assemble_ulam,
    certify_l1,
    contraction_sweep,
    lyapunov,
    ly_coefficients_bv,
    markovize,
    parse_map,
    report,
)

m = parse_map("linear 17/5 mod 1").build()
ly = ly_coefficients_bv(m)
print(f"lambda = {ly.lam.hi:.6f}  B' = {ly.b_prime.hi:.4f}  B = {ly.b.hi:.4f}")
print(f"shortest branch: {ly.min_branch_len.lo:.6f} (= 2/17)")

k = 1024
matrix = markovize(assemble_ulam(m, k))
print(f"\nk = {k}: eps = {matrix.eps:.3g}, nnz_max = {matrix.nnz_max}")

contraction, density = contraction_sweep(matrix, 1e-4)
cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-4,
                  map_id="17x/5 mod 1")
lyap = lyapunov(m, density, cert)
print(report(cert, lyap).text)

target = math.log(17 / 5)
print(f"\nln(17/5) = {target:.7f}")
print(f"certified interval [{lyap.lo:.7f}, {lyap.hi:.7f}]"
      f"  contains it: {lyap.lo < target < lyap.hi}")

print("\ndensity staircase (first plateau, around x = 5/17):")
for i in range(int(5 / 17 * k) - 2, int(5 / 17 * k) + 3):
    print(f"  cell {i}: density ~ {density.density_values[i]:.5f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    xs = [(i + 0.5) / k for i in range(k)]
    plt.figure(figsize=(7, 3))
    plt.step(xs, density.density_values, lw=0.8)
    plt.xlabel("x")
    plt.ylabel("density")
    plt.title("certified invariant density of 17x/5 mod 1")
    plt.tight_layout()
    plt.savefig("density_17x5.png", dpi=120)
    print("\nwrote density_17x5.png")
except ImportError:
    pass
