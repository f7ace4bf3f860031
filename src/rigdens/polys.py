"""Exact rational polynomials with exact and interval evaluation.

A polynomial is a plain list of ``Fraction`` coefficients, lowest degree
first.  ``poly_eval`` is the one Horner loop: at rational points on the
``Fraction`` coefficients it is exact; on coefficients already enclosed
as intervals (a branch encloses them once, ``maps.Branch._table``) it
runs the outward-rounded arithmetic of :mod:`rigdens.intervals` on an
``Interval`` or, elementwise, on an ``IntervalArray``; on float
coefficients it gives the plain float values of a Newton proposal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

Poly = List[Fraction]


def poly_eval(p: Sequence, x):
    """Horner's scheme for the coefficients p at x, one loop for every
    kind: exact for ``Fraction`` coefficients at a rational x, an
    outward-rounded enclosure for enclosed coefficients at an Interval or,
    elementwise, an IntervalArray x, and plain floats for float
    coefficients at a float array x (a constant stays a scalar)."""
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def poly_derivative(p: Sequence[Fraction]) -> Poly:
    return [c * n for n, c in enumerate(p)][1:] or [Fraction(0)]


def poly_add(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    n = max(len(p), len(q))
    return [
        (p[i] if i < len(p) else Fraction(0)) + (q[i] if i < len(q) else Fraction(0))
        for i in range(n)
    ]


def poly_scale(p: Sequence[Fraction], s: Fraction) -> Poly:
    return [c * s for c in p]


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> Poly:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_compose(outer: Sequence[Fraction], inner: Sequence[Fraction]) -> Poly:
    """outer(inner(x)) by Horner over polynomial coefficients."""
    acc: Poly = [Fraction(0)]
    for c in reversed(outer):
        acc = poly_add(poly_mul(acc, inner), [c])
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return acc


def poly_shift(p: Sequence[Fraction], s: Fraction) -> Poly:
    """p(x) + s on the constant coefficient."""
    out = list(p) or [Fraction(0)]
    out[0] = out[0] + s
    return out


def poly_degree(p: Sequence[Fraction]) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def poly_is_linear(p: Sequence[Fraction]) -> bool:
    return poly_degree(p) <= 1

