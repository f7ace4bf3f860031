"""Piecewise expanding interval/circle maps with rigorous evaluation.

A map is an ordered tuple of branches partitioning [0, 1].  Each branch is
a polynomial with exact rational coefficients, optionally plus a sinusoidal
term ``A*sin(B*pi*x)`` with rational A, B, strictly monotone on its domain.
Branch endpoints are rational brackets (lo, hi): exact when lo == hi, and
for the irrational breakpoints created by mod-1 wrapping and by symbolic
iteration the bracket that ``level_crossing`` returns.

A branch works out each fact about itself once and caches it: the
enclosure of inf |T'| over its outer domain (``Branch.abs_deriv_inf``),
its certified direction (``Branch.increasing``, read off that enclosure;
every reader of the direction uses it, and a mod-1 piece certifies its
own) and the interval enclosures of the coefficients of its value, first
and second derivative.  A map does the same for its global facts:
``abs_deriv_inf``, ``min_branch_length`` and ``distortion_sup`` are
cached enclosures, each one fold over the branches of a per-branch
enclosure, computed on first read; bounds on |T'| over a set come from
``abs_deriv_range_over``.

``level_crossing`` is the one preimage routine: one array call brackets
the preimages of many levels, exactly (integers over a common
denominator) on rational linear branches and with verified float
brackets a few ulps wide otherwise.  Ulam assembly calls it with every
level j/k of a branch; mod-1 splitting and symbolic iteration call it
where they cut a branch, at the crossings of a sorted list of levels (the
integers, respectively the outer map's breakpoints) that one routine
decides by certified comparison with the branch's end values.

All quantities the certification consumes (contraction factor, variation
coefficients, distortion bounds) are produced as intervals whose upper ends
are rigorous upper bounds and lower ends rigorous lower bounds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .intervals import (PI, Interval, IntervalArray, exact_int_dtype, from_fraction, iv,
                        ratio_array)
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
    "ly_coefficients_bv",
    "ly_coefficients_lip",
    "iterate_map",
    "level_crossing",
    "split_mod_branches",
    "value_bracket",
]


class ExpansionError(ValueError):
    """The map fails an expansion precondition of the requested pipeline."""


@dataclass(frozen=True)
class Endpoint:
    """Branch endpoint: a rational bracket [lo, hi], exact when lo == hi."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_rational(q) -> "Endpoint":
        q = Fraction(q)
        return Endpoint(q, q)

    @cached_property
    def enc(self) -> Interval:
        return Interval(from_fraction(self.lo).lo, from_fraction(self.hi).hi)

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lo if self.lo == self.hi else None

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi


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

    @cached_property
    def _enclosed(self):
        """Enclosed coefficients of poly, poly' and poly'', and of A, B*pi,
        A*B*pi and A*(B*pi)^2 (the products taken left to right)."""
        d1 = poly_derivative(self.poly)
        polys = (self.poly, d1, poly_derivative(d1))
        amp, w = from_fraction(self.trig_amp), from_fraction(self.trig_freq) * PI
        return (tuple(tuple(from_fraction(c) for c in p) for p in polys),
                amp, w, amp * w, amp * w * w)

    def value_iv(self, x: Interval) -> Interval:
        (p, _, _), amp, w, _, _ = self._enclosed
        out = poly_eval_iv(p, x)
        if self.trig_amp != 0:
            out = out + amp * (w * x).sin()
        return out

    def deriv_iv(self, x: Interval) -> Interval:
        (_, p, _), _, w, aw, _ = self._enclosed
        out = poly_eval_iv(p, x)
        if self.trig_amp != 0:
            out = out + aw * (w * x).cos()
        return out

    def second_iv(self, x: Interval) -> Interval:
        (_, _, p), _, w, _, aww = self._enclosed
        out = poly_eval_iv(p, x)
        if self.trig_amp != 0:
            out = out - aww * (w * x).sin()
        return out

    def distortion_iv(self, x: Interval) -> Interval:
        """Enclosure of |T''| / (T')^2 over x ([0, inf] where T' may vanish)."""
        den = self.deriv_iv(x).sqr()
        if den.contains_zero():
            return Interval(0.0, math.inf)
        return abs(self.second_iv(x)) / den

    @cached_property
    def abs_deriv_inf(self) -> Interval:
        """Enclosure of inf over the outer domain of |T'|."""
        return _adaptive_inf(lambda s: abs(self.deriv_iv(s)),
                             self.domain_outer(), rel_tol=0.002)

    @cached_property
    def increasing(self) -> bool:
        """Certified direction: where inf |T'| is positive, the continuous
        T' keeps over the outer domain the sign it has at the lower end."""
        end = self.deriv_iv(self.lo.enc)
        if self.abs_deriv_inf.lo > 0 and (end.lo > 0 or end.hi < 0):
            return end.lo > 0
        raise ValueError(f"branch on [{self.lo.lo}, {self.hi.hi}] is not "
                         "certifiably monotone")

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
            if a.hi.hi < b.lo.lo or b.lo.hi < a.hi.lo:
                raise ValueError("branch domains must share endpoints")

    @property
    def branch_count(self) -> int:
        return len(self.branches)

    def validate_monotone(self) -> None:
        """Certify that no branch derivative enclosure touches zero."""
        for b in self.branches:
            b.increasing  # raises ValueError when the sign is undecided

    # -- rigorous global quantities, each computed once --------------------

    def _fold(self, pick, fact: Callable[[Branch], Interval]) -> Interval:
        """pick (min or max) of a per-branch enclosure, end by end."""
        encs = [fact(b) for b in self.branches]
        return Interval(pick(e.lo for e in encs), pick(e.hi for e in encs))

    @cached_property
    def abs_deriv_inf(self) -> Interval:
        """Enclosure of inf over [0,1] of |T'|."""
        return self._fold(min, lambda b: b.abs_deriv_inf)

    @cached_property
    def distortion_sup(self) -> Interval:
        """Enclosure of sup over [0,1] of |T''| / (T')^2."""
        return self._fold(max, lambda b: _adaptive_sup(b.distortion_iv,
                                                       b.domain_outer()))

    @cached_property
    def min_branch_length(self) -> Interval:
        """Enclosure of the shortest branch domain's length."""
        return self._fold(min, lambda b: b.hi.enc - b.lo.enc)

    def abs_deriv_range_over(self, x: IntervalArray) -> IntervalArray:
        """Hull of |T'| over every branch meeting x (straddles included),
        elementwise."""
        lo = np.full(x.shape, np.inf)
        hi = np.full(x.shape, -np.inf)
        for b in self.branches:
            dom = b.domain_outer()
            meet = (dom.lo < x.hi) & (x.lo < dom.hi)
            seg = IntervalArray(np.maximum(dom.lo, x.lo[meet]),
                                np.minimum(dom.hi, x.hi[meet]))
            d = abs(b.deriv_iv(seg))
            lo[meet] = np.minimum(lo[meet], d.lo)
            hi[meet] = np.maximum(hi[meet], d.hi)
        if np.isinf(lo).any():
            raise ValueError("interval misses every branch domain")
        return IntervalArray(lo, hi)


# ---------------------------------------------------------------------------
# adaptive rigorous sup / inf
# ---------------------------------------------------------------------------

_GLOBAL_REFINE_CAP = 20000
_MAX_DEPTH = 24


def _adaptive_sup(fn: Callable[[Interval], Interval], dom: Interval,
                  rel_tol: float = 0.01) -> Interval:
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
        if depth >= _MAX_DEPTH or width <= rel_tol * scale or top_hi <= best:
            break
        heapq.heappop(heap)
        steps += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            heapq.heappush(heap, (neg_hi, lo, hi, _MAX_DEPTH, width))
            continue
        best = max(best, point(mid))
        for a, b in ((lo, mid), (mid, hi)):
            enc = fn(Interval(a, b))
            heapq.heappush(heap, (-enc.hi, a, b, depth + 1, enc.width))
    sup_hi = max(-h[0] for h in heap) if heap else best
    return Interval(min(best, sup_hi), sup_hi)


def _adaptive_inf(fn: Callable[[Interval], Interval], dom: Interval,
                  rel_tol: float = 0.01) -> Interval:
    return -_adaptive_sup(lambda s: -fn(s), dom, rel_tol)


# ---------------------------------------------------------------------------
# map-level operations
# ---------------------------------------------------------------------------


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

    Requires inf |T'| > 2, certified as 1 - 2 lam > 0 (the doubled
    contraction factor stays < 1); otherwise instructs the caller to
    study a higher iterate.  m's branches are certified monotone, as a
    built map's are, so inf |T'| is certified positive.
    """
    inf_d = m.abs_deriv_inf
    lam = iv(1) / inf_d
    one_minus = iv(1) - iv(2) * lam
    if not one_minus.lo > 0.0:
        raise ExpansionError(
            f"certified inf |T'| = {inf_d.lo:.6g} <= 2; "
            "raise the iterate exponent and retry"
        )
    min_len = m.min_branch_length
    if not min_len.lo > 0.0:
        raise ValueError(
            "a branch's length enclosure reaches 0: the shortest lies in "
            f"[{min_len.lo:.3g}, {min_len.hi:.3g}]")
    dist = m.distortion_sup
    b_prime = iv(2) / min_len + iv(2) * dist
    b = b_prime / one_minus
    return LYCoefficientsBV(lam, b_prime, b, min_len, dist)


_MAX_K_ITER = 64


def ly_coefficients_lip(m: PiecewiseMap) -> LYCoefficientsLip:
    """Coefficients of the Lipschitz inequality for the sup-norm pipeline."""
    if not m.circle:
        raise ValueError("sup-norm coefficients need a circle map")
    inf_d = m.abs_deriv_inf
    if not inf_d.lo > 1.0:
        raise ExpansionError(
            f"certified inf |T'| = {inf_d.lo:.6g} <= 1; not expanding"
        )
    lam = iv(1) / inf_d
    dist = m.distortion_sup
    b_var = dist / (iv(1) - lam)
    m_sup = b_var + iv(1)
    b_one = iv(m.branch_count) * dist
    alpha = m_sup * lam
    k_iter = 1
    while alpha.hi >= 1.0 and k_iter < _MAX_K_ITER:
        alpha = alpha * lam
        k_iter += 1
    if alpha.hi >= 1.0:
        raise ExpansionError(
            f"no iterate up to {_MAX_K_ITER} contracts the Lipschitz norm")
    return LYCoefficientsLip(lam, b_var, m_sup, b_one, k_iter, alpha, dist)


# ---------------------------------------------------------------------------
# mod-1 splitting and symbolic iteration
# ---------------------------------------------------------------------------


# levels bracketed at a time: bounds the interval temporaries
_CROSSING_CHUNK = 1 << 16
_NEWTON_STEPS = 8


def level_crossing(b: Branch, nums: np.ndarray, den: int, a: Fraction,
                   c: Fraction) -> Tuple[np.ndarray, np.ndarray, int]:
    """Brackets of {x in [a, c] : b(x) = n / den} for every n in nums.

    Returns (lo, hi, scale): the bracket of level nums[i] is
    [lo[i] / scale, hi[i] / scale].  [a, c] lies in the branch's outer
    domain, on which the branch is monotone in the direction
    b.increasing.  A level that b does not reach on [a, c] is bracketed at
    the end of [a, c] it lies beyond, so the bracket always encloses the
    crossing clamped to [a, c].  There are two kinds of bracket:

    - exact, when the polynomial part is linear and the sine term (if any)
      vanishes at every root and every root lies in [a, c]: lo == hi are
      the roots as integers over one common denominator ``scale``, in the
      format of ``intervals.exact_int_dtype`` (int64 or Python ints);
    - float, otherwise (``scale`` is 1): a float Newton iteration proposes
      each root, and certified interval signs of ``b.value_iv`` at the two
      ends verify it; an end that fails moves away from the proposal by
      a growing number of ulps until it verifies, so brackets are a few
      ulps wide.  Proposal and verification run on the branch's whole
      outer domain, so a level's bracket does not depend on [a, c] until
      it is clamped to it.
    """
    nums = np.asarray(nums)
    exact = _exact_crossings(b, nums, den, a, c)
    if exact is not None:
        return exact
    y = ratio_array(nums, den)
    lo_out, hi_out = np.empty(len(nums)), np.empty(len(nums))
    for s in range(0, len(nums), _CROSSING_CHUNK):
        part = slice(s, s + _CROSSING_CHUNK)
        lo_out[part], hi_out[part] = _float_crossings(b, y[part])
    ea, ec = from_fraction(a), from_fraction(c)
    return (np.minimum(np.maximum(lo_out, ea.lo), ec.lo),
            np.minimum(np.maximum(hi_out, ea.hi), ec.hi), 1)


def _exact_crossings(b: Branch, nums: np.ndarray, den: int, a: Fraction,
                     c: Fraction):
    """Exact roots of expr(x) = n / den clamped to [a, c], as integers over
    a common denominator, or None unless the polynomial part is linear and
    any sine term vanishes at every root, which then lies in [a, c]."""
    p = b.poly
    if not poly_is_linear(p) or len(p) < 2 or p[1] == 0:
        return None
    (a0, b0), (a1, b1) = (Fraction(p[0]).as_integer_ratio(),
                          Fraction(p[1]).as_integer_ratio())
    # x = (n - den p0) / (den p1) = (n b0 - den a0) b1 / (den b0 a1)
    g = den * b0 * a1
    scale = math.lcm(abs(g), a.denominator, c.denominator)
    mult = b1 * (scale // g)
    f_num, f_den = b.trig_freq.as_integer_ratio()
    top = int(np.abs(nums).max()) if nums.size else 0
    bound = max((top * b0 + den * abs(a0)) * abs(mult) * max(abs(f_num), 1),
                f_den * scale, scale * max(abs(a), abs(c), 1))
    x = (nums.astype(exact_int_dtype(bound)) * b0 - den * a0) * mult
    x_a = a.numerator * (scale // a.denominator)
    x_c = c.numerator * (scale // c.denominator)
    if b.trig_amp != 0:
        # a root of the linear part solves expr(x) = n where the sine
        # vanishes, i.e. where f_num / f_den * x / scale is an integer; it
        # is the crossing only inside [a, c], where b is certified
        # monotone (outside, b may cross the level elsewhere in [a, c])
        if ((x * f_num) % (f_den * scale) != 0).any() or \
                (x < x_a).any() or (x > x_c).any():
            return None
        return x, x, scale
    x = np.minimum(np.maximum(x, x_a), x_c)
    return x, x, scale


def _float_values(b: Branch, x: np.ndarray, order: int) -> np.ndarray:
    """Plain float value (order 0) or derivative (order 1) of b at x: the
    Newton proposal only, never a decision."""
    p = [float(c) for c in (b.poly if order == 0 else poly_derivative(b.poly))]
    out = np.zeros_like(x)
    for c in reversed(p):
        out = out * x + c
    if b.trig_amp != 0:
        w = float(b.trig_freq) * math.pi
        # libm per element, so a proposal does not depend on its batch
        wave = np.fromiter(map(math.cos if order else math.sin,
                               (w * x).tolist()), np.float64, count=x.size)
        out = out + float(b.trig_amp) * (w if order else 1.0) * wave
    return out


def _float_crossings(b: Branch, y: IntervalArray):
    """Verified float brackets (lo, hi) of the crossings of the levels y
    over the branch's outer domain, each clamped to it."""
    dom = b.domain_outer()
    d_lo, d_hi = dom.lo, dom.hi
    target = y.lo
    # proposal: inverse interpolation on a coarse table, then Newton; each
    # element stops on its own, so a proposal depends on its level alone
    xs = np.linspace(d_lo, d_hi, 65)
    ts = _float_values(b, xs, 0)
    if not b.increasing:
        xs, ts = xs[::-1], ts[::-1]
    x = np.interp(target, np.maximum.accumulate(ts), xs)
    active = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            xa = x[active]
            step = (_float_values(b, xa, 0) - target[active]) / \
                _float_values(b, xa, 1)
            new = np.clip(np.where(np.isfinite(step), xa - step, xa), d_lo, d_hi)
            x[active] = new
            active = active[new != xa]
            if not active.size:
                break
    # ends: root right of lo and left of hi, certified or at the domain end
    unit = np.spacing(np.maximum(np.abs(x), 2.0 ** -24 * (d_hi - d_lo)))
    ends = []
    for side in (-1.0, 1.0):
        out = np.empty_like(x)
        todo, ulps = np.arange(len(x)), 1.0
        while todo.size:  # ends at the domain clamp within ~80 rounds
            cand = np.clip(x[todo] + side * ulps * unit[todo], d_lo, d_hi)
            v = b.value_iv(IntervalArray(cand))
            below, above = v.hi < y.lo[todo], v.lo > y.hi[todo]
            # root on the far side of cand from the proposal's end
            ok = (cand == (d_lo if side < 0 else d_hi)) | (
                (below if (side < 0) == b.increasing else above))
            out[todo[ok]] = cand[ok]
            todo, ulps = todo[~ok], ulps * 2.0
        ends.append(out)
    return ends[0], ends[1]


def value_bracket(b: Branch, e: Endpoint) -> Tuple[Fraction, Fraction]:
    """b at an endpoint as a rational bracket: (v, v) for an exact e where
    b's value v is rational, otherwise b's enclosure over e's bracket."""
    if e.is_exact:
        v = b.value_exact(e.lo)
        if v is not None:
            return v, v
    enc = b.value_iv(e.enc)
    return Fraction(enc.lo), Fraction(enc.hi)


def _order(x: Tuple[Fraction, Fraction],
           y: Tuple[Fraction, Fraction]) -> Optional[int]:
    """Certified sign of x - y for rational brackets (lo, hi) of each;
    None when the brackets overlap and so cannot decide it."""
    if x[0] > y[1] or x[1] < y[0]:
        return 1 if x[0] > y[1] else -1
    return 0 if x[0] == x[1] == y[0] == y[1] else None


def _level_cuts(b: Branch, levels: Sequence[Endpoint], name: str,
                cut: str) -> List[Tuple[Endpoint, Endpoint, int]]:
    """Cut b where its image crosses the sorted levels.

    Each level (exact, or a bracket) is compared with b's end values,
    exact where rational and enclosed otherwise; a level that the
    comparison cannot place (its bracket overlaps an end value's) raises
    ValueError, naming it as the ``name`` level and the cut as a ``cut``
    cut.  The levels strictly inside the image cut the domain at the
    bracket of their preimages.  Returns the pieces (left, right, j) in
    domain order, where piece j's image lies between levels j - 1 and j:
    j counts the levels at or below it.
    """
    a, c = b.lo.lo, b.hi.hi
    ends = (value_bracket(b, b.lo), value_bracket(b, b.hi))
    lower, upper = ends if b.increasing else ends[::-1]
    inside, below = [], 0
    for d in levels:
        signs = (_order((d.lo, d.hi), lower), _order((d.lo, d.hi), upper))
        if None in signs:
            shown = d.exact if d.is_exact else f"[{d.lo}, {d.hi}]"
            raise ValueError(
                f"an end value of the branch on [{a}, {c}] is within rounding "
                f"of the {name} {shown}: cannot certify its {cut} cut")
        if signs == (1, -1):
            inside.append(d)
        elif signs[0] <= 0:
            below += 1
    ids = list(range(below, below + len(inside) + 1))
    if not b.increasing:  # crossings ordered along the domain
        inside, ids = inside[::-1], ids[::-1]
    # one call brackets the preimages of both ends of every level
    ends = [t for d in inside for t in (d.lo, d.hi)]
    den = math.lcm(*(t.denominator for t in ends))
    nums = np.array([t.numerator * (den // t.denominator) for t in ends],
                    dtype=object)
    lo, hi, scale = level_crossing(b, nums, den, a, c)
    lo = [Fraction(v) / scale for v in lo.tolist()]
    hi = [Fraction(v) / scale for v in hi.tolist()]
    cuts = [b.lo] + [Endpoint(min(lo[n], lo[n + 1]), max(hi[n], hi[n + 1]))
                     for n in range(0, len(ends), 2)] + [b.hi]
    return list(zip(cuts, cuts[1:], ids))


def split_mod_branches(expr_branch: Branch) -> List[Branch]:
    """Split one monotone expression over [a,b] into mod-1 branches.

    The cuts are the crossings expr(x) = n of the integers n strictly
    inside the image (``_level_cuts``); the branches' polynomials carry
    the -n shifts.  Exact rational crossings stay exact; irrational ones
    become brackets.  Each piece certifies its own direction, from the
    |T'| enclosure over its own domain that the map's abs_deriv_inf reads.
    """
    b = expr_branch
    if not (b.lo.is_exact and b.hi.is_exact):
        raise ValueError("mod splitting expects exact domain endpoints")
    img = b.image_iv()
    base = math.floor(img.lo)  # at or below the image: every piece has j >= 1
    levels = [Endpoint.from_rational(n)
              for n in range(base, math.ceil(img.hi) + 1)]
    # piece j lies above the integer base + j - 1
    return [Branch(left, right, tuple(poly_shift(list(b.poly), 1 - base - j)),
                   b.trig_amp, b.trig_freq)
            for left, right, j in _level_cuts(b, levels, "integer", "mod-1")]


def compose_maps(outer: PiecewiseMap, inner: PiecewiseMap) -> PiecewiseMap:
    """Branches of outer(inner(x)) with exact composed polynomials.

    Restricted to polynomial maps: trigonometric terms do not compose into
    the representable class.  Each inner branch is cut at the preimages of
    the outer breakpoints interior to its image (``_level_cuts``), and a
    piece whose image lies above j of them composes with outer branch j.
    The composed branches are not certified monotone here;
    ``PiecewiseMap.validate_monotone`` does that for the map that
    ``iterate_map`` returns.
    """
    for b in outer.branches + inner.branches:
        if not b.is_polynomial:
            raise ValueError("symbolic iteration supports polynomial maps only")
    interior = [b.lo for b in outer.branches[1:]]
    return PiecewiseMap(tuple(
        Branch(left, right,
               tuple(poly_compose(list(outer.branches[j].poly), list(ib.poly))))
        for ib in inner.branches
        for left, right, j in _level_cuts(ib, interior, "outer breakpoint",
                                          "composition")), circle=outer.circle)


def iterate_map(m: PiecewiseMap, p: int) -> PiecewiseMap:
    """Symbolic p-th iterate (branch count grows multiplicatively)."""
    if p < 1:
        raise ValueError("iterate exponent must be >= 1")
    out = m
    for _ in range(p - 1):
        out = compose_maps(m, out)
    return out
