"""Evidence on the criterion-2 reference tables, independent of the code's
evaluator: 50-digit mpmath samples of |T'| and |T''|/T'^2 from each
branch's exact coefficients (polynomial and sine term; SINMAP is checked
too, though it has no table).

The certified enclosures must bound every sample (inf |T'| from below,
the distortion sup from above), and they are tight: the extreme samples
lie within 1 % of the enclosures.  The other ends, which the refinement
takes from enclosures over segments rather than from attained values,
are tight too: the upper end of inf |T'| is at least the smallest
sample and within 1 % of it, the lower end of the distortion sup at
most the largest sample and within 1 % of it.  So the divergence of
``test_acceptance.test_criterion_2_coefficients`` from its reference
table for LANFORD2, EQ4 and EQ7 is not looseness of these enclosures.
For LANFORD2 the chain rule alone settles lambda: T'(T(x)) T'(x) tends
to 9/4 as x -> 1, so any lambda = 1 / inf |(T^2)'| is at least 4/9,
above the table's 0.3234.
"""

from fractions import Fraction as F

import mpmath
import pytest

from rigdens.cli import parse_map
from rigdens.maps import ly_coefficients_bv
from tests.conftest import EQ4, EQ7, LANFORD2, SINMAP
from tests.test_acceptance import _REFERENCE_TABLE

SAMPLES = 2000


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _samples(branch):
    """|T'| and |T''|/T'^2 at SAMPLES + 1 evenly spaced points of the
    branch's outer domain, both ends included (50 digits)."""
    p = [_mp(c) for c in branch.poly]
    d1 = [c * n for n, c in enumerate(p)][1:]
    d2 = [c * n for n, c in enumerate(d1)][1:] or [mpmath.mpf(0)]
    # the sine term A sin(w x), w = B pi, adds A w cos(w x) to T' and
    # -A w^2 sin(w x) to T''
    a, w = _mp(branch.trig_amp), _mp(branch.trig_freq) * mpmath.pi
    lo, hi = _mp(branch.lo.lo), _mp(branch.hi.hi)
    slopes, distortions = [], []
    for j in range(SAMPLES + 1):
        x = lo + (hi - lo) * j / SAMPLES
        s = mpmath.polyval(d1[::-1], x) + a * w * mpmath.cos(w * x)
        t = mpmath.polyval(d2[::-1], x) - a * w * w * mpmath.sin(w * x)
        slopes.append(abs(s))
        distortions.append(abs(t) / s ** 2)
    return slopes, distortions


@pytest.mark.parametrize("text", [LANFORD2, EQ4, EQ7, SINMAP],
                         ids=["lanford2", "eq4", "eq7", "sinmap"])
def test_enclosures_bound_mpmath_samples(text):
    m = parse_map(text).build()
    inf_d, dist = m.abs_deriv_inf, m.distortion_sup
    with mpmath.workdps(50):
        slopes, distortions = [], []
        for br in m.branches:
            s, d = _samples(br)
            slopes += s
            distortions += d
        assert mpmath.mpf(inf_d.lo) <= min(slopes) <= mpmath.mpf(inf_d.lo) * 1.01
        assert mpmath.mpf(dist.hi) * 0.99 <= max(distortions) <= mpmath.mpf(dist.hi)
        assert min(slopes) <= mpmath.mpf(inf_d.hi) <= min(slopes) * 1.01
        assert max(distortions) * 0.99 <= mpmath.mpf(dist.lo) <= max(distortions)


def test_lanford2_chain_rule_limit_forces_lambda_above_the_table():
    """T(x) = 2x + x(1 - x)/2 mod 1 has T'(x) = 5/2 - x; as x -> 1, T(x)
    -> 1 from below, so (T^2)'(x) = T'(T(x)) T'(x) -> (3/2)(3/2) = 9/4."""
    table_lam = _REFERENCE_TABLE["lanford2"][1]
    lam = ly_coefficients_bv(parse_map(LANFORD2).build()).lam
    with mpmath.workdps(50):
        for j in range(3, 31):
            eps = mpmath.mpf(10) ** -j
            x = 1 - eps
            t = 2 * x + x * (1 - x) / 2
            prod = (mpmath.mpf(5) / 2 - (t - mpmath.floor(t))) * (mpmath.mpf(5) / 2 - x)
            assert abs(prod - mpmath.mpf(9) / 4) <= 4 * eps
            # inf |(T^2)'| <= prod, so lambda >= 1 / prod
            assert mpmath.mpf(lam.hi) >= 1 / prod > table_lam
        assert 1 / prod > mpmath.mpf(4) / 9 - mpmath.mpf(10) ** -29
