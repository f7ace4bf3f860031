#!/usr/bin/env python3
"""The tripling map: everything in this pipeline can be checked by hand.

T(x) = 3x mod 1 is linear on three branches of length 1/3, so the cell
transition matrix assembles through the exact rational fast path with zero
assembly error, the invariant density is Lebesgue, and the Lyapunov
exponent is exactly ln 3.
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

m = parse_map("linear 3 mod 1").build()
print("branches:", [(str(b.lo.exact), str(b.hi.exact)) for b in m.branches])

ly = ly_coefficients_bv(m)
print(f"\ninequality coefficients: lambda = {ly.lam.hi:.6f}  "
      f"B' = {ly.b_prime.hi:.6f}  B = {ly.b.hi:.6f}")
print("(hand check: 1/3, 2/(1/3) + 0 = 6, 6/(1 - 2/3) = 18)")

k = 9
raw = assemble_ulam(m, k)
print(f"\nassembled k={k}: per-entry error bound eps = {raw.eps:.3g} "
      "(representation only: rational preimages are exact)")
matrix = markovize(raw)
print("row sums after markovization:", set(matrix.row_sums().tolist()))
print("max nonzeros per row:", matrix.nnz_max, " (structural cap 3+4)")

contraction, density = contraction_sweep(matrix, 1e-6)
print(f"\nenclosure: l = {density.l} power steps, radius = {density.radius:.3g}")
print(f"contraction: N_eps = {contraction.n_eps}, N = {contraction.n_true}")
print("density values (cell mass * k):",
      [round(float(k * v), 9) for v in density.values])

# the discretization term scales like B/k, so certify at a finer partition
k = 243
matrix = markovize(assemble_ulam(m, k))
contraction, density = contraction_sweep(matrix, 1e-6)
cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-6,
                  map_id="3x mod 1")
lyap = lyapunov(m, density, cert)
print(f"\nrefined to k = {k}: certified error bound eps_rig = {cert.eps_rig:.4f}")
print(f"Lyapunov interval [{lyap.lo:.6f}, {lyap.hi:.6f}]")
print(f"ln 3           =  {math.log(3):.6f}")
print()
print(report(cert, lyap).text)
