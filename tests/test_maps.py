"""Map evaluation and the inequality coefficients that feed certification."""

import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from rigdens.intervals import Interval, IntervalArray, iv
from rigdens.maps import (
    Branch,
    Endpoint,
    ExpansionError,
    PiecewiseMap,
    compose_maps,
    iterate_map,
    ly_coefficients_bv,
    ly_coefficients_lip,
)
from rigdens import cli, maps
from rigdens.cli import parse_map
from rigdens.polys import poly_eval
from tests.conftest import (EQ4, EQ6, EQ7, LANFORD, LANFORD2, QUADRUPLING,
                            SINMAP, TRIPLING)


def _dense_grid(m, fn, n=20001):
    """Non-rigorous dense-sample oracle of a per-branch quantity."""
    out = []
    for br in m.branches:
        lo, hi = br.domain_outer().lo, br.domain_outer().hi
        for x in np.linspace(lo + 1e-12, hi - 1e-12, n // m.branch_count):
            out.append(fn(br, x))
    return np.array(out)


def _oracle_deriv(br, x):
    return abs(br.deriv_iv(Interval(x, x)).mid)


def _oracle_distortion(br, x):
    d = br.deriv_iv(Interval(x, x)).mid
    s = br.second_iv(Interval(x, x)).mid
    return abs(s) / d ** 2


def test_eval_image_contains_samples(eq4):
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = sorted(rng.uniform(0, 1, size=2))
        for br in eq4.branches:
            dom = br.domain_outer()
            lo, hi = max(a, dom.lo), min(b, dom.hi)
            if lo > hi:
                continue
            img = br.value_iv(Interval(lo, hi))
            for x in rng.uniform(lo, hi, size=20):
                assert img.contains(poly_eval(br.poly, F(x)))


# certifies with exit 0; its negative amplitude sends every sine product
# of an interval array through the four-corner path of intervals._mul
NEG_SINE = "circle; poly [0,1] : 4x - 0.01 sin(8 pi x) mod 1"


def _mp(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


def _mp_derivs(br, x):
    """T, T' and T'' of br at the mpmath number x, from its exact
    coefficients (the caller sets the precision)."""
    out, p = [], [_mp(c) for c in br.poly]
    for _ in range(3):
        out.append(mpmath.polyval(p[::-1], x) if p else mpmath.mpf(0))
        p = [c * n for n, c in enumerate(p)][1:]
    if br.trig_amp:
        w = _mp(br.trig_freq) * mpmath.pi
        amp = _mp(br.trig_amp)
        out[0] += amp * mpmath.sin(w * x)
        out[1] += amp * w * mpmath.cos(w * x)
        out[2] -= amp * w ** 2 * mpmath.sin(w * x)
    return out


def _ends(enc, shape):
    """Lower and upper end arrays of an enclosure over an IntervalArray
    argument (a constant derivative comes back as one scalar Interval)."""
    return np.broadcast_to(enc.lo, shape), np.broadcast_to(enc.hi, shape)


@pytest.mark.parametrize("text", [TRIPLING, EQ6, EQ4, EQ7, LANFORD, LANFORD2,
                                  SINMAP, QUADRUPLING, NEG_SINE],
                         ids=["tripling", "eq6", "eq4", "eq7", "lanford",
                              "lanford2", "sinmap", "quadrupling", "neg_sine"])
def test_branch_evaluator_against_mpmath(text):
    """value_iv, deriv_iv and second_iv enclose 50-digit T, T', T'' at
    both ends and the middle of small intervals and at points, on Interval
    and IntervalArray arguments alike; the two agree element for element,
    and the float values of the Newton proposal lie inside the value and
    slope enclosures at the points."""
    m = parse_map(text).build()
    rng = np.random.default_rng(28)
    names = ("value_iv", "deriv_iv", "second_iv")
    for br in m.branches:
        dom = br.domain_outer()
        a = np.concatenate([[dom.lo, dom.hi], rng.uniform(dom.lo, dom.hi, 48)])
        b = np.minimum(a + rng.uniform(0, 1e-3, a.size) * (a < dom.hi), dom.hi)
        b[:2] = a[:2]
        for lo, hi in ((a, b), (a, a)):
            arr = IntervalArray(lo, hi)
            encs = [_ends(getattr(br, n)(arr), lo.shape) for n in names]
            with mpmath.workdps(50):
                for i in range(lo.size):
                    pts = [mpmath.mpf(lo[i]), mpmath.mpf(hi[i]),
                           (mpmath.mpf(lo[i]) + mpmath.mpf(hi[i])) / 2]
                    for n, enc in zip(names, encs):
                        one = getattr(br, n)(Interval(lo[i], hi[i]))
                        assert (one.lo, one.hi) == (enc[0][i], enc[1][i])
                    for pt in pts:
                        for enc, v in zip(encs, _mp_derivs(br, pt)):
                            assert mpmath.mpf(enc[0][i]) <= v <= mpmath.mpf(enc[1][i])
        # encs now holds the point enclosures at a
        value, slope = br._derivs(a, (0, 1))
        for f, (lo, hi) in ((value, encs[0]), (slope, encs[1])):
            assert ((lo <= f) & (f <= hi)).all()


def test_bv_coefficients_tripling(tripling):
    ly = ly_coefficients_bv(tripling)
    assert abs(ly.lam.hi - 1 / 3) < 1e-12
    assert abs(ly.b_prime.hi - 6.0) < 1e-9
    assert abs(ly.b.hi - 18.0) < 1e-8


def test_bv_coefficients_eq6(eq6):
    ly = ly_coefficients_bv(eq6)
    assert abs(ly.lam.hi - 5 / 17) < 1e-12
    assert abs(ly.b_prime.hi - 17.0) < 1e-9
    assert abs(ly.b.hi - 289 / 7) < 1e-6


@pytest.mark.parametrize(
    "mapname,lam_exp,bprime_exp",
    [
        ("eq4", 1 / 3, 8 + F(8, 9)),
        ("eq7", 1 / 3, 17 + 2 * F(68, 25) / 9),
    ],
)
def test_bv_coefficients_quadratic_maps(request, mapname, lam_exp, bprime_exp):
    m = request.getfixturevalue(mapname)
    ly = ly_coefficients_bv(m)
    assert abs(ly.lam.hi - lam_exp) < 1e-10
    # rigorous upper bound, within 1% of the exact formula value
    assert float(bprime_exp) <= ly.b_prime.hi <= float(bprime_exp) * 1.01
    # independent dense-grid oracle
    grid_inf = _dense_grid(m, _oracle_deriv).min()
    grid_sup_dist = _dense_grid(m, _oracle_distortion).max()
    assert ly.lam.hi >= 1 / grid_inf - 1e-12
    assert ly.distortion.hi >= grid_sup_dist - 1e-9


def test_bv_rejects_slow_expansion(lanford):
    with pytest.raises(ExpansionError):
        ly_coefficients_bv(lanford)


def test_bv_b_relation(eq4):
    ly = ly_coefficients_bv(eq4)
    rebuilt = ly.b_prime / (iv(1) - iv(2) * ly.lam)
    assert rebuilt.lo <= ly.b.hi and ly.b.lo <= rebuilt.hi


def test_iterate_chain_rule_one_sided(lanford, lanford2):
    inf1 = lanford.abs_deriv_inf
    inf2 = lanford2.abs_deriv_inf
    # inf |(T^2)'| >= (inf |T'|)^2; the Lanford map attains equality at 1
    assert inf2.hi >= inf1.lo ** 2 * (1 - 1e-9)
    assert abs(inf1.lo - 1.5) < 1e-6
    assert inf2.lo <= 2.25 + 1e-12 and inf2.hi >= 2.25 - 1e-3


def test_lanford_iterate_structure(lanford2):
    assert lanford2.branch_count == 4
    beta = (5 - math.sqrt(17)) / 2
    b1 = lanford2.branches[1]
    assert b1.hi.enc.lo <= beta <= b1.hi.enc.hi


def test_lanford_bv_coefficients(lanford2):
    ly = ly_coefficients_bv(lanford2)
    # formula outputs on the composed map (see the quadratic-map oracle)
    grid_inf = _dense_grid(lanford2, _oracle_deriv, 40001).min()
    assert ly.lam.hi >= 1 / grid_inf - 1e-9
    assert ly.lam.hi <= 1 / grid_inf * 1.01
    min_len = min(
        float(F(br.hi.enc.lo) - F(br.lo.enc.hi)) for br in lanford2.branches
    )
    grid_dist = _dense_grid(lanford2, _oracle_distortion, 40001).max()
    expected = 2 / min_len + 2 * grid_dist
    assert expected * 0.999 <= ly.b_prime.hi <= expected * 1.02


def test_distortion_tripling(tripling):
    d = tripling.distortion_sup
    assert d.hi <= 1e-12


def test_distortion_lanford_branch(lanford):
    # T'' = -1, T' in [3/2, 5/2]: sup |T''/(T')^2| = 4/9
    d = lanford.distortion_sup
    assert 4 / 9 - 1e-9 <= d.hi <= 4 / 9 * 1.01


def test_distortion_sin_map(sinmap):
    d = sinmap.distortion_sup
    grid = _dense_grid(sinmap, _oracle_distortion, 40001).max()
    crude = 0.64 * math.pi ** 2 / (4 - 0.08 * math.pi) ** 2  # ~0.45
    assert grid - 1e-6 <= d.hi <= crude * 1.05
    assert d.hi <= grid * 1.02


def test_lip_coefficients_quadrupling(quadrupling):
    ly = ly_coefficients_lip(quadrupling)
    assert abs(ly.lam.hi - 0.25) < 1e-12
    assert ly.b_var.hi <= 1e-12
    assert abs(ly.m_sup.hi - 1.0) < 1e-12
    assert ly.b_one.hi <= 1e-12
    assert abs(ly.alpha.hi - 0.25) < 1e-10
    assert ly.k_iter == 1


def test_lip_coefficients_tripling_circle():
    m = parse_map("circle\nlinear 3 mod 1").build()
    ly = ly_coefficients_lip(m)
    assert abs(ly.lam.hi - 1 / 3) < 1e-12
    assert abs(ly.m_sup.hi - 1.0) < 1e-12
    assert abs(ly.alpha.hi - 1 / 3) < 1e-10


def test_lip_coefficients_sin_map(sinmap):
    ly = ly_coefficients_lip(sinmap)
    lam_exact = 1 / (4 - 0.08 * math.pi)
    assert lam_exact <= ly.lam.hi <= lam_exact * 1.001
    assert ly.b_var.hi <= 0.62
    assert ly.m_sup.hi <= 1.62
    assert ly.b_one.hi < 1.8
    assert ly.alpha.hi <= 0.44
    assert ly.k_iter == 1


def test_lip_needs_circle(eq6):
    with pytest.raises(ValueError):
        ly_coefficients_lip(eq6)


def test_min_branch_length_eq6(eq6):
    ml = eq6.min_branch_length
    assert abs(ml.lo - 2 / 17) < 1e-12


def test_iterate_rejects_trig(sinmap):
    with pytest.raises(ValueError):
        iterate_map(sinmap, 2)


def test_branch_direction_is_certified(eq6, lanford2):
    assert all(b.increasing for b in eq6.branches)
    falling = parse_map("poly [0,1] : 3 - 3x mod 1").build()
    assert not any(b.increasing for b in falling.branches)
    # T^2 composes rising branches of T: every composed branch rises
    assert all(b.increasing for b in lanford2.branches)
    # a falling map composed with itself rises
    assert all(b.increasing for b in iterate_map(falling, 2).branches)


@pytest.mark.parametrize("poly", [(F(0), F(4), F(-4)),      # T' in [-4, 4]
                                  (F(0), F(-1, 10), F(1))])  # T' in [-0.1, 1.9]
def test_non_monotone_branch_rejected(poly):
    b = Branch(Endpoint.from_rational(0), Endpoint.from_rational(1), poly)
    with pytest.raises(ValueError, match="not certifiably monotone"):
        b.increasing


def test_composed_cut_brackets_the_outer_breakpoint_bracket():
    # the outer breakpoint is known only as the bracket [9/20, 11/20]; the
    # cut of the composition must bracket the preimages of both its ends
    d = Endpoint(F(9, 20), F(11, 20))
    outer = PiecewiseMap((Branch(Endpoint.from_rational(0), d, (F(0), F(2))),
                          Branch(d, Endpoint.from_rational(1), (F(-1), F(2)))))
    inner = PiecewiseMap((Branch(Endpoint.from_rational(0),
                                 Endpoint.from_rational(1), (F(0), F(1))),))
    cut = compose_maps(outer, inner).branches[1].lo
    assert (cut.lo, cut.hi) == (F(9, 20), F(11, 20))


def _near_integer_end_map(amp: str) -> str:
    # T(1/3) = 2 + amp * sqrt(3)/2: an irrational end just above the integer 2
    return (f"poly [0,1/3] : 6x + {amp} sin(pi x) mod 1\n"
            "poly [1/3,1] : 3x mod 1")


def test_mod_split_keeps_cut_near_irrational_image_end():
    # the end exceeds 2 by 8.7e-11: the crossing of level 2 is a true cut,
    # leaving a last piece that maps into [0, 8.7e-11]
    m = parse_map(_near_integer_end_map("0.0000000001")).build()
    assert m.branch_count == 5
    last = m.branches[2]
    assert last.poly[0] == -2 and last.hi.exact == F(1, 3)
    assert F(1, 3) - F(1, 10**10) < last.lo.lo < last.lo.hi < F(1, 3)
    img = last.image_iv()
    assert -1e-13 < img.lo and img.hi < 1e-10  # the cut is a bracket


def test_mod_split_undecided_cut_raises():
    # 8.7e-18 above 2 is inside the end value's enclosure: no certified cut
    with pytest.raises(ValueError, match="within rounding of the integer 2"):
        parse_map(_near_integer_end_map("0.00000000000000001")).build()


def test_mod_split_sine_root_outside_the_domain():
    # x + 7/20 sin(2 pi x) + 1/2 on [0, 1/5] crosses the integer 1 near
    # 0.1817; the linear part's root 1/2 lies outside the domain although
    # the sine vanishes there, so it says nothing about the cut
    m = parse_map("poly [0,1/5] : x + 7/20 sin(2 pi x) + 1/2 mod 1\n"
                  "poly [1/5,1] : x").build()
    cut = m.branches[0].hi
    assert m.branches[1].lo == cut and m.branches[1].hi.exact == F(1, 5)
    with mpmath.workdps(60):
        root = mpmath.findroot(
            lambda x: x + mpmath.mpf(7) / 20 * mpmath.sin(2 * mpmath.pi * x) - 0.5, 0.18)
    assert _mp(cut.lo) <= root <= _mp(cut.hi)
    assert cut.hi - cut.lo < F(1, 10**14)


def _identity_split_at(e: Endpoint) -> PiecewiseMap:
    return PiecewiseMap((Branch(Endpoint.from_rational(0), e, (F(0), F(1))),
                         Branch(e, Endpoint.from_rational(1), (F(0), F(1)))))


def test_composition_cut_near_an_inner_end_value():
    # the outer breakpoint 1/2 lies 5e-14 below the end of the inner branch's
    # image: certified inside, so it cuts that branch
    outer = PiecewiseMap((Branch(Endpoint.from_rational(0), Endpoint.from_rational(F(1, 2)),
                                 (F(0), F(2))),
                          Branch(Endpoint.from_rational(F(1, 2)), Endpoint.from_rational(1),
                                 (F(-1), F(2)))))
    end = F(1, 2) + F(5, 10**14)
    near = Endpoint(end - F(1, 10**20), end + F(1, 10**20))
    comp = compose_maps(outer, _identity_split_at(near))
    assert [b.poly for b in comp.branches] == [(F(0), F(2)), (F(-1), F(2)),
                                               (F(-1), F(2))]
    assert comp.branches[1].lo.exact == F(1, 2)
    # a bracket holding 1/2 itself leaves the comparison undecided
    holding = Endpoint(F(1, 2) - F(1, 10**20), F(1, 2) + F(1, 10**20))
    with pytest.raises(ValueError, match="cannot certify its composition cut"):
        compose_maps(outer, _identity_split_at(holding))


# most refinement evaluations (enclosures of a fact over a segment) per run
_EVALUATIONS = {SINMAP: 279, EQ4: 68, EQ7: 64, LANFORD2: 221}


@pytest.mark.parametrize("text,mode,calls", [
    (SINMAP, "Linf", 9), (EQ4, "L1", 8), (EQ7, "L1", 8), (LANFORD2, "L1", 11)])
def test_each_map_fact_refined_once(text, mode, calls, tmp_path, monkeypatch):
    """One cli.run refines each (branch, quantity) pair once: every stage
    reads the cached enclosures, and a branch's direction is read off its
    inf |T'| enclosure.  A refinement is identified by its domain, its
    tolerance and the enclosure of its function over the whole domain,
    which tells |T'| and the distortion apart.  No piece inherits a
    direction: each branch refines inf |T'| and the distortion once.
    SINMAP: inf |T'| of the expression (its direction, which the mod-1
    split reads), then the 2 facts on its 4 pieces; EQ4 and EQ7: the 2
    facts on 4 branches; LANFORD2: inf |T'| of the expression and of its
    2 mod-1 pieces (their directions, which the composition's cuts read),
    then the 2 facts on the 4 branches of T^2.  No stage reads
    sup |T'|.  A refinement evaluates only enclosures over segments of
    positive width, never a point, and the run's evaluations stay within
    the recorded total."""
    seen, args = [], []
    refine = maps._adaptive_sup

    def recorded(fn, dom, rel_tol=0.01):
        whole = fn(dom)
        seen.append((dom.lo, dom.hi, rel_tol, whole.lo, whole.hi))

        def counted(x):
            args.append(x)
            return fn(x)

        return refine(counted, dom, rel_tol)

    monkeypatch.setattr(maps, "_adaptive_sup", recorded)
    cfg = cli.RunConfig(map_text=text, mode=mode, k=64, out_dir=str(tmp_path))
    assert cli.run(cfg) == 0
    assert len(set(seen)) == len(seen)
    assert len(seen) == calls
    assert [(a.lo, a.hi) for a in args if not a.lo < a.hi] == []
    assert len(args) <= _EVALUATIONS[text]
