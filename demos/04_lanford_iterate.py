#!/usr/bin/env python3
"""Symbolic iteration: a map that is too weakly expanding on its own.

T(x) = 2x + x(1-x)/2 mod 1 has derivative as low as 3/2, so the mass-norm
pipeline (which needs inf |T'| > 2) rejects it.  Studying T^2 instead is
legitimate because T and T^2 share their invariant measures.  The second
iterate is composed symbolically: branch polynomials compose exactly while
the new breakpoints, which are irrational, become interval enclosures whose
widths the assembly charges to the per-entry error.
"""

from rigdens import (
    ExpansionError,
    assemble_ulam,
    certify_l1,
    contraction_sweep,
    lyapunov,
    ly_coefficients_bv,
    markovize,
    parse_map,
    report,
)

base = parse_map("poly [0,1] : 2x + (1/2)x(1-x) mod 1").build()
print("one-step map: branch endpoints")
for b in base.branches:
    tag = str(b.lo.exact) if b.lo.is_exact else f"enclosure {b.lo.enc}"
    print("  ", tag)

try:
    ly_coefficients_bv(base)
except ExpansionError as exc:
    print(f"\nas expected, the one-step map is rejected: {exc}")

m2 = parse_map("poly [0,1] : 2x + (1/2)x(1-x) mod 1; iterate 2").build()
print(f"\nsecond iterate: {m2.branch_count} branches, degree "
      f"{max(len(b.poly) - 1 for b in m2.branches)} polynomials")
for b in m2.branches:
    print(f"   [{b.lo.enc.lo:.15g}, {b.hi.enc.hi:.15g}]")

ly = ly_coefficients_bv(m2)
print(f"\ncertified inf |(T^2)'| >= {1 / ly.lam.hi:.6f} "
      "(the minimum sits at the right endpoint, where (T')^2 = 2.25)")
print(f"lambda = {ly.lam.hi:.4f}  B' = {ly.b_prime.hi:.4f}  B = {ly.b.hi:.4f}")

k = 256
matrix = markovize(assemble_ulam(m2, k))
print(f"\nk = {k}: eps = {matrix.eps:.3g} (bracket widths of the irrational "
      f"breakpoints and level preimages), nnz_max = {matrix.nnz_max}")

contraction, density = contraction_sweep(matrix, 1e-4)
cert = certify_l1(ly, matrix, contraction, density, eps_num=1e-4,
                  map_id="lanford T^2")
lyap = lyapunov(m2, density, cert)
print(report(cert, lyap).text)
print("\n(the reported exponent is that of the composed map T^2, i.e. twice"
      "\n the per-step exponent of T; shrink it by refining k)")
