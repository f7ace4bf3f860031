"""Piecewise expanding interval/circle maps with rigorous evaluation.

A map is an ordered tuple of branches partitioning [0, 1].  Each branch is
a polynomial with exact rational coefficients, optionally plus a sinusoidal
term ``A*sin(B*pi*x)`` with rational A, B, strictly monotone on its domain.
Branch endpoints are exact rationals or, for breakpoints created by mod-1
wrapping and by symbolic iteration, machine-interval enclosures.

All quantities the certification consumes (contraction factor, variation
coefficients, distortion bounds) are produced as intervals whose upper ends
are rigorous upper bounds and lower ends rigorous lower bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .intervals import PI, Interval, from_fraction, iv
from .polys import (
    poly_compose,
    poly_derivative,
    poly_eval,
    poly_eval_iv,
    poly_is_linear,
    poly_shift,
)

__all__ = [
    "Endpoint",
    "Branch",
    "PiecewiseMap",
    "LYCoefficientsBV",
    "LYCoefficientsLip",
    "ExpansionError",
    "eval_on_interval",
    "distortion_sup",
    "ly_coefficients_bv",
    "ly_coefficients_lip",
    "iterate_map",
    "level_crossing",
    "split_mod_branches",
]


class ExpansionError(ValueError):
    """The map fails an expansion precondition of the requested pipeline."""


@dataclass(frozen=True)
class Endpoint:
    """Branch endpoint: always an enclosure, exact rational when known."""

    enc: Interval
    exact: Optional[Fraction] = None

    @staticmethod
    def from_rational(q) -> "Endpoint":
        q = Fraction(q)
        return Endpoint(from_fraction(q), q)

    @staticmethod
    def from_bracket(lo: Fraction, hi: Fraction) -> "Endpoint":
        if lo == hi:
            return Endpoint.from_rational(lo)
        return Endpoint(Interval(from_fraction(lo).lo, from_fraction(hi).hi), None)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


@dataclass(frozen=True)
class Branch:
    """One monotone C^2 piece of the map (mod-1 shift folded into poly[0])."""

    lo: Endpoint
    hi: Endpoint
    poly: Tuple[Fraction, ...]
    trig_amp: Fraction = Fraction(0)
    trig_freq: Fraction = Fraction(0)

    # -- structure ------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.trig_amp == 0

    @property
    def is_linear(self) -> bool:
        return self.is_polynomial and poly_is_linear(self.poly)

    def domain_outer(self) -> Interval:
        return Interval(self.lo.enc.lo, self.hi.enc.hi)

    # -- evaluation -------------------------------------------------------

    def value_exact(self, x: Fraction) -> Optional[Fraction]:
        """Exact value at a rational point, or None when irrational."""
        base = poly_eval(self.poly, x)
        if self.trig_amp == 0:
            return base
        arg = self.trig_freq * x  # sin(arg * pi)
        if arg.denominator == 1:
            return base
        if arg.denominator == 2:  # half-integer multiples of pi: sin = +-1
            sign = 1 if (arg.numerator % 4) == 1 else -1
            return base + sign * self.trig_amp
        return None

    def value_iv(self, x: Interval) -> Interval:
        out = poly_eval_iv(self.poly, x)
        if self.trig_amp != 0:
            arg = from_fraction(self.trig_freq) * PI * x
            out = out + from_fraction(self.trig_amp) * arg.sin()
        return out

    def deriv_iv(self, x: Interval) -> Interval:
        out = poly_eval_iv(poly_derivative(self.poly), x)
        if self.trig_amp != 0:
            w = from_fraction(self.trig_freq) * PI
            out = out + from_fraction(self.trig_amp) * w * (w * x).cos()
        return out

    def second_iv(self, x: Interval) -> Interval:
        out = poly_eval_iv(poly_derivative(poly_derivative(self.poly)), x)
        if self.trig_amp != 0:
            w = from_fraction(self.trig_freq) * PI
            out = out - from_fraction(self.trig_amp) * w * w * (w * x).sin()
        return out

    def image_iv(self) -> Interval:
        """Enclosure of the branch image (monotone: endpoint hull)."""
        return Interval.hull(self.value_iv(self.lo.enc), self.value_iv(self.hi.enc))


@dataclass(frozen=True)
class PiecewiseMap:
    """Ordered branches partitioning [0,1]; circle=True for S^1 dynamics."""

    branches: Tuple[Branch, ...]
    circle: bool = False

    def __post_init__(self):
        if not self.branches:
            raise ValueError("map needs at least one branch")
        first, last = self.branches[0], self.branches[-1]
        if first.lo.exact != 0 or last.hi.exact != 1:
            raise ValueError("branch domains must start at 0 and end at 1")
        for a, b in zip(self.branches, self.branches[1:]):
            if a.hi.is_exact and b.lo.is_exact:
                if a.hi.exact != b.lo.exact:
                    raise ValueError("branch domains must share endpoints")
            elif not a.hi.enc.overlaps(b.lo.enc):
                raise ValueError("branch endpoint enclosures must agree")

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def breakpoints(self) -> List[Endpoint]:
        """Interior breakpoints, in order."""
        return [b.lo for b in self.branches[1:]]

    def validate_monotone(self) -> None:
        """Certify that no branch derivative enclosure touches zero."""
        for i, b in enumerate(self.branches):
            rng = _adaptive_range(b.deriv_iv, b.domain_outer())
            if rng.contains_zero():
                raise ValueError(f"branch {i} is not certifiably monotone")

    # -- rigorous global quantities --------------------------------------

    def abs_deriv_inf(self, rel_tol: float = 0.002) -> Interval:
        """Enclosure of inf over [0,1] of |T'|."""
        encs = [
            _adaptive_inf(lambda s, b=b: abs(b.deriv_iv(s)), b.domain_outer(),
                          rel_tol=rel_tol)
            for b in self.branches
        ]
        out = encs[0]
        for e in encs[1:]:
            out = out.min_with(e)
        return out

    def abs_deriv_sup(self, rel_tol: float = 0.002) -> Interval:
        encs = [
            _adaptive_sup(lambda s, b=b: abs(b.deriv_iv(s)), b.domain_outer(),
                          rel_tol=rel_tol)
            for b in self.branches
        ]
        out = encs[0]
        for e in encs[1:]:
            out = out.max_with(e)
        return out

    def abs_deriv_range_over(self, x: Interval) -> Interval:
        """Hull of |T'| over every branch meeting x (straddles included)."""
        pieces = []
        for b in self.branches:
            dom = b.domain_outer()
            if dom.lo < x.hi and x.lo < dom.hi:
                seg = Interval(max(dom.lo, x.lo), min(dom.hi, x.hi))
                pieces.append(abs(b.deriv_iv(seg)))
        if not pieces:
            raise ValueError("interval misses every branch domain")
        return Interval.hull(*pieces)

    def min_branch_length(self) -> Interval:
        lengths = [b.hi.enc - b.lo.enc for b in self.branches]
        out = lengths[0]
        for e in lengths[1:]:
            out = out.min_with(e)
        return out


# ---------------------------------------------------------------------------
# adaptive rigorous sup / inf
# ---------------------------------------------------------------------------

_GLOBAL_REFINE_CAP = 20000


def _adaptive_sup(fn: Callable[[Interval], Interval], dom: Interval,
                  rel_tol: float = 0.01, max_depth: int = 24) -> Interval:
    """Rigorous enclosure [attained, upper] of sup over dom of fn.

    Refines the current argmax segment until its interval evaluation is
    narrower than rel_tol times the current max magnitude, or depth caps.
    """

    def point(x: float) -> float:
        return fn(Interval(x, x)).lo

    best = max(point(dom.lo), point(dom.hi), point(dom.mid))
    first = fn(dom)
    heap = [(-first.hi, dom.lo, dom.hi, 0, first.width)]
    steps = 0
    while heap and steps < _GLOBAL_REFINE_CAP:
        neg_hi, lo, hi, depth, width = heap[0]
        top_hi = -neg_hi
        scale = max(abs(best), abs(top_hi), 1e-300)
        if depth >= max_depth or width <= rel_tol * scale or top_hi <= best:
            break
        heapq.heappop(heap)
        steps += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (neg_hi, lo, hi, max_depth, width))
            continue
        best = max(best, point(mid))
        for a, b in ((lo, mid), (mid, hi)):
            enc = fn(Interval(a, b))
            heapq.heappush(heap, (-enc.hi, a, b, depth + 1, enc.width))
    sup_hi = max(-h[0] for h in heap) if heap else best
    return Interval(min(best, sup_hi), sup_hi)


def _adaptive_inf(fn: Callable[[Interval], Interval], dom: Interval,
                  rel_tol: float = 0.01, max_depth: int = 24) -> Interval:
    neg = _adaptive_sup(lambda s: -fn(s), dom, rel_tol, max_depth)
    return -neg


def _adaptive_range(fn: Callable[[Interval], Interval], dom: Interval,
                    rel_tol: float = 0.01, max_depth: int = 24) -> Interval:
    return Interval(
        _adaptive_inf(fn, dom, rel_tol, max_depth).lo,
        _adaptive_sup(fn, dom, rel_tol, max_depth).hi,
    )


# ---------------------------------------------------------------------------
# map-level operations
# ---------------------------------------------------------------------------


def eval_on_interval(m: PiecewiseMap, x: Interval) -> List[Tuple[Interval, int]]:
    """Images of x under every branch it meets, tagged with branch ids.

    The union of returned intervals contains T(x).  An input straddling a
    breakpoint yields one tagged image per branch; an empty input raises.
    """
    if x.width < 0:
        raise ValueError("empty interval")
    if x.lo < -1e-12 or x.hi > 1 + 1e-12:
        raise ValueError("input must lie inside [0,1]")
    out: List[Tuple[Interval, int]] = []
    for idx, b in enumerate(m.branches):
        dom = b.domain_outer()
        lo = max(dom.lo, x.lo)
        hi = min(dom.hi, x.hi)
        if lo > hi:
            continue
        img = Interval.hull(b.value_iv(Interval(lo, lo)), b.value_iv(Interval(hi, hi)))
        out.append((img, idx))
    if not out:
        raise ValueError("interval misses every branch domain")
    return out


def distortion_sup(m: PiecewiseMap, rel_tol: float = 0.01,
                   max_depth: int = 24) -> Interval:
    """Rigorous upper bound of sup over [0,1] of |T''| / (T')^2."""

    def make_fn(b: Branch):
        def fn(s: Interval) -> Interval:
            num = abs(b.second_iv(s))
            den = b.deriv_iv(s).sqr()
            if den.contains_zero():
                return Interval(0.0, math.inf)
            return num / den

        return fn

    encs = [
        _adaptive_sup(make_fn(b), b.domain_outer(), rel_tol, max_depth)
        for b in m.branches
    ]
    out = encs[0]
    for e in encs[1:]:
        out = out.max_with(e)
    return out


@dataclass(frozen=True)
class LYCoefficientsBV:
    """Variation-norm inequality data: ||L mu|| <= 2l ||mu|| + B' |mu|_1."""

    lam: Interval            # 1 / inf |T'|
    b_prime: Interval        # 2/min branch length + 2 sup |T''/(T')^2|
    b: Interval              # B' / (1 - 2 lam)
    min_branch_len: Interval
    distortion: Interval


@dataclass(frozen=True)
class LYCoefficientsLip:
    """Lipschitz-norm inequality data for C^2 expanding circle maps."""

    lam: Interval            # 1 / inf |T'|
    b_var: Interval          # distortion / (1 - lam)
    m_sup: Interval          # B + 1, bounds ||L^n||_inf
    b_one: Interval          # Lip(L 1) <= branches * distortion
    k_iter: int              # smallest k with M lam^k < 1
    alpha: Interval          # M lam^k_iter
    distortion: Interval


def ly_coefficients_bv(m: PiecewiseMap) -> LYCoefficientsBV:
    """Coefficients of the variation inequality for the L1 pipeline.

    Requires inf |T'| > 2 (so the doubled contraction factor stays < 1);
    otherwise instructs the caller to study a higher iterate.
    """
    inf_d = m.abs_deriv_inf()
    if not inf_d.lo > 2.0:
        raise ExpansionError(
            f"certified inf |T'| = {inf_d.lo:.6g} <= 2; "
            "raise the iterate exponent and retry"
        )
    lam = iv(1) / inf_d
    min_len = m.min_branch_length()
    if not min_len.lo > 0.0:
        raise ValueError("degenerate branch: zero-length domain")
    dist = distortion_sup(m)
    b_prime = iv(2) / min_len + iv(2) * dist
    one_minus = iv(1) - iv(2) * lam
    if not one_minus.lo > 0.0:
        raise ExpansionError("2/inf|T'| reaches 1; raise the iterate exponent")
    b = b_prime / one_minus
    return LYCoefficientsBV(lam, b_prime, b, min_len, dist)


def ly_coefficients_lip(m: PiecewiseMap, max_k_iter: int = 64) -> LYCoefficientsLip:
    """Coefficients of the Lipschitz inequality for the sup-norm pipeline."""
    if not m.circle:
        raise ValueError("sup-norm coefficients need a circle map")
    inf_d = m.abs_deriv_inf()
    if not inf_d.lo > 1.0:
        raise ExpansionError(
            f"certified inf |T'| = {inf_d.lo:.6g} <= 1; not expanding"
        )
    lam = iv(1) / inf_d
    dist = distortion_sup(m)
    b_var = dist / (iv(1) - lam)
    m_sup = b_var + iv(1)
    b_one = iv(m.branch_count) * dist
    alpha = m_sup * lam
    k_iter = 1
    while alpha.hi >= 1.0 and k_iter < max_k_iter:
        alpha = alpha * lam
        k_iter += 1
    if alpha.hi >= 1.0:
        raise ExpansionError("no iterate up to 64 contracts the Lipschitz norm")
    return LYCoefficientsLip(lam, b_var, m_sup, b_one, k_iter, alpha, dist)


# ---------------------------------------------------------------------------
# mod-1 splitting and symbolic iteration
# ---------------------------------------------------------------------------


def _branch_increasing(b: Branch) -> bool:
    rng = _adaptive_range(b.deriv_iv, b.domain_outer(), rel_tol=0.05)
    if rng.lo > 0:
        return True
    if rng.hi < 0:
        return False
    raise ValueError("cannot certify branch monotonicity")


def _exact_level_crossing(b: Branch, level: Fraction,
                          a: Fraction, c: Fraction) -> Optional[Fraction]:
    """Root of expr(x) = level on [a, c] when it is rational: the root of a
    linear polynomial part, unless a sine term is nonzero there."""
    p = b.poly
    if not poly_is_linear(p) or len(p) < 2 or p[1] == 0:
        return None
    r = (level - p[0]) / p[1]
    if a <= r <= c and (b.trig_amp == 0 or b.value_exact(r) == level):
        return r
    return None


def level_crossing(b: Branch, level: Fraction, a: Fraction, c: Fraction,
                   increasing: bool) -> Tuple[Fraction, Fraction]:
    """Rational bracket (lo, hi) of {x in [a, c] : b(x) = level}.

    b must be monotone on [a, c] in the given direction.  lo == hi when the
    crossing is solved exactly; otherwise interval-sign bisection narrows
    the bracket to 1e-14 or to where the sign becomes undecidable.  A level
    that b does not reach on [a, c] is bracketed at the end of [a, c] it
    lies beyond, so the bracket always encloses the crossing clamped to
    [a, c].
    """
    exact = _exact_level_crossing(b, level, a, c)
    if exact is not None:
        return exact, exact
    lvl = from_fraction(level)
    lo, hi = a, c

    def side(x: Fraction) -> Optional[bool]:
        v = b.value_iv(from_fraction(x)) - lvl
        if v.hi < 0:
            return increasing  # below level: root to the right iff increasing
        if v.lo > 0:
            return not increasing
        return None

    for _ in range(80):
        if hi - lo <= Fraction(1, 10 ** 14):
            break
        mid = (lo + hi) / 2
        s = side(mid)
        if s is None:
            # sign undecidable within rounding: keep a slightly wider bracket
            quarter = (hi - lo) / 4
            lo2, hi2 = mid - quarter, mid + quarter
            if side(lo2) is True and side(hi2) is False:
                lo, hi = lo2, hi2
                continue
            break
        if s:
            lo = mid
        else:
            hi = mid
    return lo, hi


def split_mod_branches(expr_branch: Branch) -> List[Branch]:
    """Split one monotone expression over [a,b] into mod-1 branches.

    Finds every level crossing expr(x) = n for integer n interior to the
    image, producing branches whose polynomials carry the -n shift.  Exact
    rational crossings stay exact; irrational ones become enclosures.
    """
    b = expr_branch
    inc = _branch_increasing(b)
    a_end, c_end = b.lo, b.hi
    if not (a_end.is_exact and c_end.is_exact):
        raise ValueError("mod splitting expects exact domain endpoints")
    a, c = a_end.exact, c_end.exact
    va, vc = b.value_exact(a), b.value_exact(c)
    if va is not None and vc is not None:
        lo_img, hi_img = (va, vc) if va <= vc else (vc, va)
        levels = [Fraction(n) for n in range(math.floor(lo_img) + 1,
                                             math.ceil(hi_img) + 1)
                  if lo_img < n < hi_img]
    else:
        va_i = b.value_iv(from_fraction(a))
        vc_i = b.value_iv(from_fraction(c))
        lo_f = min(va_i.lo, vc_i.lo)
        hi_f = max(va_i.hi, vc_i.hi)
        levels = [Fraction(n) for n in range(math.floor(lo_f) + 1,
                                             math.ceil(hi_f) + 1)
                  if lo_f + 1e-9 < n < hi_f - 1e-9]
    if not inc:
        levels = levels[::-1]  # crossings ordered along the domain

    cuts: List[Endpoint] = [a_end]
    for lvl in levels:
        cuts.append(Endpoint.from_bracket(*level_crossing(b, lvl, a, c, inc)))
    cuts.append(c_end)

    out: List[Branch] = []
    for left, right in zip(cuts, cuts[1:]):
        probe = _probe_point(left, right)
        shift = Fraction(math.floor(b.value_iv(from_fraction(probe)).mid))
        out.append(Branch(left, right, tuple(poly_shift(list(b.poly), -shift)),
                          b.trig_amp, b.trig_freq))
    return out


def _probe_point(left: Endpoint, right: Endpoint) -> Fraction:
    lo = left.exact if left.is_exact else Fraction(left.enc.hi)
    hi = right.exact if right.is_exact else Fraction(right.enc.lo)
    if hi <= lo:
        lo = Fraction(left.enc.lo)
        hi = Fraction(right.enc.hi)
    return (lo + hi) / 2


def _preimage_endpoint(b: Branch, target: Endpoint, increasing: bool,
                       a: Fraction, c: Fraction) -> Endpoint:
    """Endpoint enclosure of {x in [a,c] : expr(x) = target} (monotone)."""
    if target.is_exact:
        return Endpoint.from_bracket(*level_crossing(b, target.exact, a, c,
                                                     increasing))
    br1 = level_crossing(b, Fraction(target.enc.lo), a, c, increasing)
    br2 = level_crossing(b, Fraction(target.enc.hi), a, c, increasing)
    return Endpoint.from_bracket(min(br1[0], br2[0]), max(br1[1], br2[1]))


def compose_maps(outer: PiecewiseMap, inner: PiecewiseMap) -> PiecewiseMap:
    """Branches of outer(inner(x)) with exact composed polynomials.

    Restricted to polynomial maps: trigonometric terms do not compose into
    the representable class.  Each inner branch is cut at the preimages of
    the outer breakpoints interior to its image.
    """
    for b in list(outer.branches) + list(inner.branches):
        if not b.is_polynomial:
            raise ValueError("symbolic iteration supports polynomial maps only")
    interior = outer.breakpoints()  # d_1 < ... < d_{n-1}
    new_branches: List[Branch] = []
    for ib in inner.branches:
        inc = _branch_increasing(ib)
        a = ib.lo.exact if ib.lo.is_exact else Fraction(ib.lo.enc.lo)
        c = ib.hi.exact if ib.hi.is_exact else Fraction(ib.hi.enc.hi)
        img = ib.image_iv()
        inside = [
            j for j, d in enumerate(interior)
            if d.enc.lo > img.lo + 1e-13 and d.enc.hi < img.hi - 1e-13
        ]
        if inside:
            first_outer = inside[0]          # image starts in outer branch j0
            outer_ids = [first_outer] + [j + 1 for j in inside]
        else:
            outer_ids = [_branch_index_at(outer, img.mid)]
        cut_targets = [interior[j] for j in inside]
        if not inc:
            outer_ids = outer_ids[::-1]
            cut_targets = cut_targets[::-1]
        cuts: List[Endpoint] = [ib.lo]
        for tgt in cut_targets:
            cuts.append(_preimage_endpoint(ib, tgt, inc, a, c))
        cuts.append(ib.hi)
        for (left, right), oid in zip(zip(cuts, cuts[1:]), outer_ids):
            comp = tuple(poly_compose(list(outer.branches[oid].poly), list(ib.poly)))
            new_branches.append(Branch(left, right, comp))
    return PiecewiseMap(tuple(new_branches), circle=outer.circle)


def _branch_index_at(m: PiecewiseMap, x: float) -> int:
    for i, b in enumerate(m.branches):
        if b.lo.enc.lo <= x <= b.hi.enc.hi:
            return i
    raise ValueError(f"point {x} outside [0,1]")


def iterate_map(m: PiecewiseMap, p: int) -> PiecewiseMap:
    """Symbolic p-th iterate (branch count grows multiplicatively)."""
    if p < 1:
        raise ValueError("iterate exponent must be >= 1")
    out = m
    for _ in range(p - 1):
        out = compose_maps(m, out)
    return out
